"""Benchmark of the qmetallic command line.

    python3 bench/run.py --workload oracle|suites|interactive|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs the seeded request list of a workload (see workloads.py and
README.md) in a closed loop with one client and one request in flight.
Every request runs in a fresh interpreter, `python -m qmetallic.cli ...`
with `src` on PYTHONPATH, because CLI users pay for cold caches on every
invocation. Passes over the list repeat while the next one should end
within `--seconds`. Every response is checked (see `gate`); the metrics
are printed by name with their units, and the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
each request of a pass runs twice, plainly and then through tracer.py,
and the metrics are the per-layer ones of the traced runs, plus the
tracing overhead. End-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans as spanlib
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
SPAWNER = BENCH / "spawner.py"
DIGESTS = BENCH / "digests.json"

TIMEOUT_S = 60
# at least this many passes; the tail percentile is chosen for the
# samples of these (interactive: 2 x 50 requests reach p90)
MIN_PASSES = {"oracle": 1, "suites": 1, "interactive": 2}
# `--version` runs before every pass and after the last, timed as set-up
PROBES = 10
TAIL_LEVELS = (999, 990, 950, 900, 750, 500)  # per mille


@dataclass
class Outcome:
    key: str
    code: object  # exit code, or None on timeout
    stdout: bytes
    latency: float
    maxrss_kb: int
    trace: dict = None
    failure: str = None


class Runner:
    """Runs one request at a time, each in a fresh child interpreter
    started by spawner.py. Close it (or use it in a `with`) to stop the
    spawner."""

    def __init__(self, workdir: Path, digests: dict):
        self.workdir = workdir
        self.digests = digests
        env = dict(os.environ)
        env.pop("HM_DEFAULT_PRECISION", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWNER)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.count = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def _spawn(self, cmd) -> dict:
        request = {"argv": cmd, "stdout": str(self.workdir / "stdout"),
                   "stderr": str(self.workdir / "stderr"), "timeout": TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the request spawner exited")
        return json.loads(reply)

    def run(self, argv, traced: bool = False) -> Outcome:
        self.count += 1
        rid = str(self.count)
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans_path), rid, *argv]
        else:
            cmd = [sys.executable, "-m", "qmetallic.cli", *argv]
        reply = self._spawn(cmd)
        code = reply["code"]
        outcome = Outcome(" ".join(argv), code, (self.workdir / "stdout").read_bytes(),
                          reply["latency"], reply["maxrss_kb"])
        if traced and code is not None:
            try:
                outcome.trace = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                outcome.failure = "no spans written"
        outcome.failure = outcome.failure or gate(argv, code, outcome.stdout, self.digests)
        return outcome


def _has_failed_check(payload) -> bool:
    if isinstance(payload, dict):
        if payload.get("pass") is False:
            return True
        return any(_has_failed_check(v) for v in payload.values())
    if isinstance(payload, list):
        return any(_has_failed_check(v) for v in payload)
    return False


def gate(argv, code, stdout: bytes, digests: dict):
    """Why a response counts as failed, or None when it is good.

    A response fails on a timeout, a non-zero exit, a FAIL line, a
    `"pass": false` or unparsable JSON, and when its SHA-256 differs from
    the digest recorded for the command line: CLI output must stay
    byte-identical. Every command line a seed can produce has a digest.
    """
    if code is None:
        return f"timeout after {TIMEOUT_S} s"
    if code != 0:
        return f"exit code {code}"
    text = stdout.decode("utf-8", "replace")
    if any(line.startswith("FAIL") for line in text.splitlines()):
        return "FAIL line"
    if "json" in argv:
        try:
            payload = json.loads(text)
        except ValueError:
            return "unparsable JSON"
        if _has_failed_check(payload):
            return '"pass": false'
    want = digests.get(" ".join(argv))
    if want is None:
        return "no recorded digest"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded digest"
    return None


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# Statistics


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of a per-mille level among n samples."""
    return max(1, -(-permille * n // 1000))


def nearest_rank(sorted_values, permille: int) -> float:
    return sorted_values[rank(len(sorted_values), permille) - 1]


def tail_level(n: int):
    """The highest level in TAIL_LEVELS (per mille) with at least ten
    samples beyond it, or None when there are fewer than twenty samples."""
    for permille in TAIL_LEVELS:
        if n - rank(n, permille) >= 10:
            return permille
    return None


# ---------------------------------------------------------------------------
# Workload runs


def run_pass(runner, requests) -> tuple:
    start = time.perf_counter()
    outcomes = [runner.run(r.argv) for r in requests]
    return time.perf_counter() - start, outcomes


def probe(runner, count=PROBES) -> list:
    return [runner.run(workloads.SETUP_ARGV) for _ in range(count)]


def read_loadavg() -> list:
    try:
        return Path("/proc/loadavg").read_text().split(" ", 3)[:3]
    except OSError:
        return ["?"]


def run_workload(runner, name, seed, seconds, trace) -> dict:
    requests = workloads.requests(name, seed)
    load_before = read_loadavg()
    start = time.perf_counter()
    outcomes, walls, probes, traced_walls, layer_passes = [], [], [], [], []
    while True:
        pass_start = time.perf_counter()
        if trace:
            # each request runs plainly and then traced, back to back, so
            # that both see the same machine and their ratio is the overhead
            plain, traced = [], []
            for r in requests:
                plain.append(runner.run(r.argv))
                traced.append(runner.run(r.argv, traced=True))
                if traced[-1].failure is None and plain[-1].stdout != traced[-1].stdout:
                    traced[-1].failure = "traced stdout differs from untraced stdout"
            outcomes += plain + traced
            walls.append(sum(o.latency for o in plain))
            traced_walls.append(sum(o.latency for o in traced))
            layer_passes.append(spanlib.pass_metrics([o.trace for o in traced if o.trace]))
            layer_passes[-1]["cli.output_bytes"] = sum(len(o.stdout) for o in traced)
        else:
            probes += probe(runner)
            wall, plain = run_pass(runner, requests)
            outcomes += plain
            walls.append(wall)
        # another pass only if it should end within the time asked for
        now = time.perf_counter()
        if (trace or len(walls) >= MIN_PASSES[name]) and (
                now + (now - pass_start) - start > seconds):
            break
    if not trace:
        probes += probe(runner)
    load_after = read_loadavg()

    checked = outcomes + probes
    failures = [o for o in checked if o.failure]
    result = {
        "workload": name,
        "requests_per_pass": len(requests),
        "passes": len(walls),
        "pass_walls": walls,
        "attempted": len(checked),
        "failed": len(failures),
        "failures": [(o.key, o.failure) for o in failures],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    if trace:
        metrics = {}
        for metric in {m for p in layer_passes for m in p}:
            metrics[metric] = statistics.median(p[metric] for p in layer_passes if metric in p)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(walls)
        result["metrics"] = metrics
        result["untraced_wall_s"] = statistics.median(walls)
        return result

    latencies = sorted(o.latency for o in outcomes)
    # the level depends on the fewest samples a run can have, so that it
    # is the same on every run of the workload
    level = tail_level(MIN_PASSES[name] * len(requests))
    result.update(
        metrics={
            "wall_s": statistics.median(walls),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": (nearest_rank(latencies, level) if level
                               else statistics.median(latencies)),
            "setup_s": statistics.median(o.latency for o in probes),
            "peak_rss_mb": max(o.maxrss_kb for o in checked) / 1024,
            "error_rate": len(failures) / len(checked),
        },
        samples=len(latencies),
        tail_level=level,
        setup_samples=len(probes),
    )
    return result


# ---------------------------------------------------------------------------
# Reporting

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# error_rate is printed but is not a JSON metric: it is 0 on correct code,
# so it has no relative bound; the JSON carries it as failed / attempted.
JSON_END_TO_END = ("wall_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb")

LAYER_UNITS = {m: unit for m, (_, _, unit) in spanlib.LAYER_METRICS.items()}
LAYER_UNITS.update({"cli.output_bytes": "bytes", "trace.wall_s": "s",
                    "trace.overhead_ratio": "ratio"})


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(result, trace) -> list:
    lines = [
        f"workload {result['workload']}: {result['passes']} pass(es) of "
        f"{result['requests_per_pass']} requests, closed loop, 1 client, "
        f"{'traced and untraced' if trace else 'untraced'}",
        f"  loadavg before {' '.join(result['loadavg_before'])}, "
        f"after {' '.join(result['loadavg_after'])}",
    ]
    metrics = result["metrics"]
    if trace:
        for name in sorted(metrics):
            lines.append(f"  {name:32s} {metrics[name]:14.6f} {LAYER_UNITS[name]}")
        brute, wall = metrics.get("verify.brute.s"), metrics["trace.wall_s"]
        qq = [metrics.get(m) for m in ("hfrac.expand.s", "hfrac.template.s",
                                       "hfrac.formula.s", "verify.checks.self_s")]
        if brute is not None:
            lines.append(f"  share of traced wall_s in verify.brute: {brute / wall:.3f}")
        if None not in qq:
            lines.append("  share of traced wall_s in hfrac.expand + template + formula"
                         f" + verify.checks.self_s: {sum(qq) / wall:.3f}")
    else:
        level = result["tail_level"]
        notes = {
            "wall_s": "median of passes " + " ".join(f"{w:.3f}" for w in result["pass_walls"]),
            "latency_p50_s": f"n={result['samples']}",
            "latency_tail_s": (
                f"p{level / 10:g} of n={result['samples']}" if level else
                f"median of n={result['samples']}: a run may have fewer "
                "than 20 samples, too few for ten beyond any percentile"
            ),
            "setup_s": f"median of {result['setup_samples']} `--version` runs",
            "peak_rss_mb": "largest child max-RSS",
            "error_rate": f"{result['failed']}/{result['attempted']} failed",
        }
        for name, unit in END_TO_END_UNITS.items():
            lines.append(f"  {name:16s} {metrics[name]:12.6f} {unit:5s}  {notes[name]}")
    for key, why in result["failures"]:
        lines.append(f"  FAILED {key!r}: {why}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmetallic" / "cli.py").is_file():
        print(f"error: no qmetallic sources under {SRC}", file=sys.stderr)
        return 2
    try:
        digests = load_digests()
    except (OSError, ValueError) as e:
        print(f"error: cannot read {DIGESTS}: {e}", file=sys.stderr)
        return 2

    print(f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
          f"commit={git_commit()} seed={args.seed}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir, \
            Runner(Path(workdir), digests) as runner:
        for name in names:
            result = run_workload(runner, name, args.seed, args.seconds, args.trace)
            results.append(result)
            print("\n".join(describe(result, args.trace)), flush=True)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, value in sorted(result["metrics"].items()):
            if args.trace or name in JSON_END_TO_END:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
