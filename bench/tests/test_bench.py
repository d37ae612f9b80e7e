"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import hashlib
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(8)


@pytest.fixture
def runner(tmp_path):
    with run.Runner(tmp_path, run.load_digests()) as runner:
        yield runner


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_requests_are_deterministic_and_keep_classes_and_sizes(workload):
    lists = [workloads.requests(workload, seed) for seed in SEEDS]
    assert lists == [workloads.requests(workload, seed) for seed in SEEDS]
    shapes = {frozenset(Counter((r.cls, r.n) for r in reqs).items()) for reqs in lists}
    assert len(shapes) == 1
    assert len({tuple(r.key for r in reqs) for reqs in lists}) == len(lists)


def test_every_request_of_every_seed_has_a_recorded_digest():
    digests = run.load_digests()
    universe = {" ".join(argv) for argv in workloads.universe()}
    assert universe == set(digests)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            assert {r.key for r in workloads.requests(workload, seed)} <= universe


def test_self_time_on_a_synthetic_span_tree():
    #  a [0, 10]
    #    b [1, 4]
    #      b [2, 3]      same layer, nested: not counted again in b.s
    #    c [5, 9]
    #      d [6, 7]
    #  e [20, 30] with overlapping children [21, 25] and [23, 26]
    tree = [
        ["a", 0.0, 10.0, None, "1", None],
        ["b", 1.0, 4.0, 0, "1", {"values": 2}],
        ["b", 2.0, 3.0, 1, "1", {"values": 5}],
        ["c", 5.0, 9.0, 0, "1", None],
        ["d", 6.0, 7.0, 3, "1", None],
        ["e", 20.0, 30.0, None, "1", None],
        ["f", 21.0, 25.0, 5, "1", None],
        ["f", 23.0, 26.0, 5, "1", None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 1.0, 5.0, 4.0, 3.0]
    totals = spans.layer_totals(tree)
    assert totals["a"]["self_s"] == 3.0
    assert totals["b"]["s"] == 3.0 and totals["b"]["self_s"] == 3.0
    assert totals["b"]["calls"] == 1 and totals["b"]["values"] == 2
    assert totals["c"]["s"] == 4.0 and totals["c"]["self_s"] == 3.0
    assert totals["e"]["self_s"] == 5.0


def test_layers_not_installed_are_absent_not_zero():
    trace = {"installed": ["verify.brute"],
             "spans": [["cli.main", 0.0, 1.0, None, "1", None]]}
    metrics = spans.pass_metrics([trace])
    assert metrics["verify.brute.values"] == 0
    assert metrics["cli.self_s"] == 1.0
    assert not any(m.startswith("algebra.det") for m in metrics)


def test_tracer_skips_a_deleted_name(monkeypatch):
    module = types.ModuleType("qmetallic.fake")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "qmetallic.fake", module)
    recorder = tracer.Recorder("7")
    layers = {
        "kept": ([("qmetallic.fake", "present"), ("qmetallic.fake", "deleted")], None),
        "gone": ([("qmetallic.fake", "deleted"), ("qmetallic.missing", "f")], None),
    }
    assert tracer.install(recorder, layers) == ["kept"]
    assert module.present(1) == 2
    assert [s[0] for s in recorder.spans] == ["kept"]
    assert recorder.spans[0][4] == "7"


def test_gate_reasons():
    ok = b"PASS x\n"
    key = ("verify", "--format", "text")
    digests = {" ".join(key): hashlib.sha256(ok).hexdigest()}
    assert run.gate(key, 0, ok, digests) is None
    assert run.gate(key, None, ok, digests).startswith("timeout")
    assert run.gate(key, 1, ok, digests) == "exit code 1"
    assert run.gate(key, 0, b"PASS x\nFAIL y\n", digests) == "FAIL line"
    assert run.gate(("v", "--format", "json"), 0, b"{", {}) == "unparsable JSON"
    assert run.gate(("v", "--format", "json"), 0,
                    b'{"checks": [{"pass": false}]}', {}) == '"pass": false'
    assert run.gate(("other",), 0, ok, digests) == "no recorded digest"


def test_digest_gate_catches_one_flipped_byte(runner):
    argv = ("series", "--n", "2", "--prec", "20", "--format", "text")
    outcome = runner.run(argv)
    assert outcome.failure is None
    for i in (0, len(outcome.stdout) // 2, len(outcome.stdout) - 1):
        flipped = bytearray(outcome.stdout)
        flipped[i] ^= 0x01
        assert run.gate(argv, 0, bytes(flipped), runner.digests) == (
            "stdout differs from the recorded digest")


def test_the_same_request_twice_is_not_a_cache_hit(runner):
    # every request starts a fresh interpreter, so the second run redoes
    # the brute-force work instead of reading a warm module-level cache
    argv = ("hankel", "--n", "3", "--source", "both", "--format", "text")
    plain = runner.run(argv)
    first, second = runner.run(argv, traced=True), runner.run(argv, traced=True)
    for outcome in (plain, first, second):
        assert outcome.failure is None
    assert first.stdout == second.stdout == plain.stdout
    metrics = [spans.pass_metrics([o.trace]) for o in (first, second)]
    for m in metrics:
        assert m["algebra.det.calls"] == 47  # sizes 1..47 of a 48-value window
        assert m["verify.brute.values"] == 48
        assert m["qseries.series.calls"] == 1
    assert first.trace["request_id"] != second.trace["request_id"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_level(19) is None
    assert run.tail_level(20) == 500
    assert run.tail_level(99) == 750
    assert run.tail_level(100) == 900
    assert run.tail_level(150) == 900
    assert run.tail_level(1000) == 990
    values = list(range(1, 101))
    assert run.nearest_rank(values, 900) == 90
    assert run.nearest_rank(values, 500) == 50


def test_peak_rss_is_the_childs_own(runner):
    # a child started directly by this (larger) process would report this
    # process's RSS as its own high-water mark
    import resource

    outcome = runner.run(workloads.SETUP_ARGV)
    assert outcome.failure is None
    assert outcome.maxrss_kb < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
