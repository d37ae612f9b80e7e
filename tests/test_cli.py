"""Command-line behavior: formats, schemas, exit codes, determinism."""

import ast
import csv
import hashlib
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import pytest

from qmetallic import CheckResult
from qmetallic import cli, reports, verify
from qmetallic.fields import PRIMALITY_BOUND

import goldens

ROOT = pathlib.Path(__file__).resolve().parent.parent
# environment of a child interpreter that imports the package from this
# checkout, whether or not pytest itself was given PYTHONPATH
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SCHEMA_DIR = ROOT / "schemas"
SCHEMAS = {
    p.stem: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.json")
}


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, schema, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS[schema])
    return code, payload, err


def test_shipped_schemas_cover_every_subcommand():
    assert set(SCHEMAS) == {"series", "hfrac", "hankel", "verify", "modp", "scan"}


# --- series ------------------------------------------------------------


def test_series_text(capsys):
    code, out, _ = run(["series", "--n", "1", "--prec", "16"], capsys)
    assert code == 0
    assert out.startswith("1 + q^2 - q^3 + 2q^4")


def test_series_json(capsys):
    code, payload, _ = run_json(["series", "--n", "2", "--prec", "23"], "series", capsys)
    assert code == 0
    assert payload["n"] == 2 and payload["prec"] == 23
    assert payload["coefficients"][:8] == [1, 1, 0, 0, 1, 0, -2, 1]


def test_series_csv(capsys):
    code, out, _ = run(["series", "--n", "1", "--prec", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out == "n,j,coefficient\n1,0,1\n"


def test_series_precision_comes_only_from_the_flag(capsys, monkeypatch):
    monkeypatch.setenv("HM_DEFAULT_PRECISION", "5")
    code, payload, _ = run_json(["series", "--n", "1"], "series", capsys)
    assert code == 0 and payload["prec"] == 24 and len(payload["coefficients"]) == 24


# --- hfrac -------------------------------------------------------------


def test_hfrac_json_26_cycle(capsys):
    code, payload, _ = run_json(["hfrac", "--n", "5"], "hfrac", capsys)
    assert code == 0
    assert payload["period"] == 26 and payload["offset"] == 1
    assert payload["delta"] == 2
    assert payload["head"] == {"k": 0, "a": -1, "v": 1, "D": [1, -1]}
    for t in [payload["head"]] + payload["preamble"] + payload["cycle"]:
        assert t["a"] == -t["v"]


def test_hfrac_json_3_cycle(capsys):
    code, payload, _ = run_json(["hfrac", "--n", "1"], "hfrac", capsys)
    assert code == 0 and payload["period"] == 3
    assert payload["cycle"][1] == {"k": 1, "a": 1, "v": -1, "D": [1, 1, -1]}


def test_hfrac_shifted(capsys):
    code, payload, _ = run_json(["hfrac", "--n", "5", "--ell", "5"], "hfrac", capsys)
    assert code == 0 and payload["period"] == 26
    assert payload["head"]["D"][:6] == [1, 0, 1, 1, 1, 2]


def test_hfrac_text(capsys):
    code, out, _ = run(["hfrac", "--n", "1", "--format", "text"], capsys)
    assert code == 0
    assert "head: (1)/(1)" in out and "cycle of 3 terms" in out


def test_hfrac_csv(capsys):
    code, out, _ = run(["hfrac", "--n", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "2,0,0,head,0,1,1 - q"


def test_hfrac_shift_out_of_range(capsys):
    code, _, err = run(["hfrac", "--n", "3", "--ell", "9"], capsys)
    assert code == 2 and "--ell 0..4" in err


# --- hankel ------------------------------------------------------------


def test_hankel_csv_quotes_negative_cells(capsys):
    code, out, _ = run(
        ["hankel", "--n", "1", "--ell", "2", "--horizon", "8", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,ell,j,delta,source"
    assert lines[5] == '1,2,4,"-1",both'


def test_hankel_json_dual_route(capsys):
    code, payload, _ = run_json(
        ["hankel", "--n", "5", "--horizon", "60", "--source", "both"], "hankel", capsys
    )
    assert code == 0
    assert len(payload["values"]) == 60
    assert payload["checks"][0]["pass"] is True


def test_hankel_zero_horizon_is_header_only(capsys):
    code, out, _ = run(["hankel", "--n", "3", "--horizon", "0", "--format", "csv"], capsys)
    assert code == 0 and out == "n,ell,j,delta,source\n"


def test_hankel_formula_needs_proved_shift(capsys):
    code, _, err = run(["hankel", "--n", "2", "--ell", "6", "--source", "formula"], capsys)
    assert code == 2 and "--ell <= 3" in err


def test_hankel_brute_reaches_any_shift(capsys):
    code, payload, _ = run_json(
        ["hankel", "--n", "2", "--ell", "6", "--horizon", "5", "--source", "brute"],
        "hankel",
        capsys,
    )
    assert code == 0 and payload["source"] == "brute_force"


# --- verify ------------------------------------------------------------


def test_verify_suite_json(capsys):
    code, payload, _ = run_json(["verify", "--suite", "thmA", "--n", "1..4"], "verify", capsys)
    assert code == 0 and payload["pass"] is True and len(payload["checks"]) == 4


def test_verify_text_lines(capsys):
    code, out, _ = run(["verify", "--suite", "thmC", "--n", "1"], capsys)
    assert code == 0 and out.count("PASS gale_robinson") == 3


def test_verify_drops_repeated_n_values(capsys):
    argv = ["verify", "--suite", "thmA", "--n", "3,3,1..3"]
    code, payload, _ = run_json(argv, "verify", capsys)
    assert code == 0 and payload["n_values"] == [3, 1, 2]
    assert len(payload["checks"]) == 3


@pytest.mark.parametrize("suite, n", [("thm51", "1"), ("symmetries", "1..2")])
def test_verify_refuses_a_suite_that_checks_nothing(suite, n, capsys):
    code, out, err = run(["verify", "--suite", suite, "--n", n], capsys)
    assert code == 2 and out == ""
    assert "n >= 3" in err


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run(["verify", "--suite", "nope", "--n", "1"], capsys)
    assert code == 2


def test_verify_rejects_backwards_range(capsys):
    code, _, err = run(["verify", "--n", "6..3"], capsys)
    assert code == 2


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch):
    stub = [CheckResult("stub_check", False, (0, 1, -1), "forced")]
    monkeypatch.setattr(verify, "run_suite", lambda suite, ns: stub)
    code, payload, _ = run_json(["verify", "--suite", "thmA", "--n", "3"], "verify", capsys)
    assert code == 1
    assert payload["pass"] is False
    assert payload["checks"][0]["counterexample"] == {"j": 0, "expected": 1, "got": -1}


# --- modp --------------------------------------------------------------


def test_modp_json(capsys):
    code, payload, _ = run_json(["modp", "--n", "3", "--ell", "0", "--p", "2"], "modp", capsys)
    assert code == 0
    assert payload["conclusive"] is True and payload["hfraction_period"] is not None


def test_modp_text_names_an_unresolved_determinant_period(capsys):
    code, out, _ = run(["modp", "--n", "5", "--ell", "17", "--p", "5"], capsys)
    assert code == 0
    assert "determinant stream: no period within 4000 values\n" in out
    assert "None" not in out


def test_modp_requires_prime(capsys):
    code, _, err = run(["modp", "--n", "3", "--p", "4"], capsys)
    assert code == 2 and "prime" in err


def test_modp_refuses_a_modulus_past_the_primality_bound(capsys):
    code, _, err = run(["modp", "--n", "3", "--p", str(PRIMALITY_BOUND)], capsys)
    assert code == 2 and "primality" in err


def test_modp_text(capsys):
    code, out, _ = run(["modp", "--n", "3", "--p", "5", "--format", "text"], capsys)
    assert code == 0 and "fraction stream" in out


# --- scan --------------------------------------------------------------


def test_scan_json(capsys):
    code, payload, _ = run_json(
        ["scan", "--n", "3", "--ell", "5", "--horizon", "48"], "scan", capsys
    )
    assert code == 0
    assert payload["label"] == "exploratory"
    assert payload["value_min"] >= -2 and payload["value_max"] <= 2


def test_scan_refuses_settled_shifts(capsys):
    code, _, _ = run(["scan", "--n", "3", "--ell", "2"], capsys)
    assert code == 2


def test_scan_text_defaults(capsys):
    code, out, _ = run(["scan", "--n", "3", "--format", "text"], capsys)
    assert code == 0 and "exploratory" in out


# --- cross-cutting -------------------------------------------------------


def test_output_is_deterministic(capsys):
    args = ["hankel", "--n", "2", "--horizon", "24", "--format", "json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


# every pinned command line that runs on the real routes
PINNED = goldens.CLI_DIGESTS + goldens.CLI_INCONCLUSIVE_DIGESTS


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[c[0] for c in PINNED])
def test_stdout_bytes_match_the_pinned_digest(argv, code, digest, capsys):
    got_code, out, _ = run(argv.split(), capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_csv_leaves_a_missing_value_empty(capsys):
    # an inconclusive run has no periods: null in JSON, an empty CSV cell
    argv = ["modp", "--n", "3", "--ell", "0", "--p", "7", "--max-steps", "1"]
    _, out, _ = run(argv + ["--format", "json"], capsys)
    payload = json.loads(out)
    _, out, _ = run(argv + ["--format", "csv"], capsys)
    header, row = (line.split(",") for line in out.splitlines())
    cells = dict(zip(header, row))
    assert payload["hfraction_period"] is None and cells["hfraction_period"] == ""
    assert "None" not in out


def corrupt_formula_route(monkeypatch):
    """Raise the value at j = 3 of every ell = 1 formula window by one, in
    `reports`, the one module that holds the formula route: `hankel`,
    the checkers of `verify` and `modp` all call it through the module."""
    real = reports.hankel_formula_values

    def corrupted(n, ell, count):
        values = real(n, ell, count)
        return [v + 1 if j == 3 and ell == 1 else v for j, v in enumerate(values)]

    monkeypatch.setattr(reports, "hankel_formula_values", corrupted)


@pytest.mark.parametrize(
    "argv, code, digest",
    goldens.CLI_FAILING_DIGESTS,
    ids=[c[0] for c in goldens.CLI_FAILING_DIGESTS],
)
def test_failing_checks_print_the_pinned_bytes(argv, code, digest, capsys, monkeypatch):
    corrupt_formula_route(monkeypatch)
    got_code, out, _ = run(argv.split(), capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CSV_LINES = [(argv, code, False) for argv, code, _ in PINNED if argv.endswith("csv")]
CSV_LINES += [
    (argv, code, True) for argv, code, _ in goldens.CLI_FAILING_DIGESTS
    if argv.endswith("csv")
]


@pytest.mark.parametrize(
    "argv, code, corrupt", CSV_LINES, ids=[c[0] for c in CSV_LINES]
)
def test_csv_rows_read_back_with_the_header_width(
    argv, code, corrupt, capsys, monkeypatch
):
    # a failed check's line may end the table as one cell, quoted as a
    # whole although it holds a comma
    if corrupt:
        corrupt_formula_route(monkeypatch)
    got_code, out, _ = run(argv.split(), capsys)
    assert got_code == code
    header, *rows = csv.reader(out.splitlines())
    if code == 1 and len(rows[-1]) != len(header):
        last = rows.pop()
        assert len(last) == 1 and last[0].startswith("FAIL "), last
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[c[0] for c in PINNED])
def test_out_flag_writes_the_stdout_bytes(argv, code, digest, capsys, tmp_path):
    target = tmp_path / "out"
    got_code, out, _ = run(argv.split() + ["--out", str(target)], capsys)
    assert got_code == code and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_only_main_reads_the_output_format():
    # one place picks the rendering: no subcommand branches on --format
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    readers = []
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "format"
                and not isinstance(node.value, ast.Constant)  # str.format
            ):
                readers.append(getattr(top, "name", None))
    assert readers and set(readers) == {"main"}


def test_out_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "payload.json"
    code, out, _ = run(
        ["series", "--n", "1", "--prec", "4", "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 1


def test_out_flag_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "payload.txt"
    code, out, err = run(["series", "--n", "1", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def console_script():
    """argv prefix of the `qmetallic` console script: the installed one, or
    else the entry point pyproject.toml declares, run in a fresh interpreter."""
    installed = shutil.which("qmetallic")
    if installed:
        return [installed]
    # tomllib is 3.11+; pyproject.toml admits 3.10
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, func = meta["project"]["scripts"]["qmetallic"].split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_runs():
    r = subprocess.run(
        console_script() + ["series", "--n", "1", "--prec", "3"],
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and "1 + q^2" in r.stdout


PACKAGE = ROOT / "src" / "qmetallic"
# every module but `cli`, which every request runs, and the package files
LIBRARY = {
    "algebra", "artin", "cfrac", "commands", "crosschecks", "explicit", "fields",
    "hfrac", "modp", "oracle", "poly", "qrational", "qseries", "reports",
    "template", "verify",
}
# what every well-formed request runs; what one that reads the fraction's
# product formula runs (no expansion, no power series); and what one that
# takes only brute-force windows runs, and no more
CORE = {"commands", "algebra", "poly"}
FORMULA = CORE | {"cfrac", "template"}
BRUTE = CORE | {"qseries", "oracle", "reports"}

# one command line in a fresh interpreter; the last line of stderr lists
# the modules that ran. A lazy library module sits in sys.modules before
# it runs, as an instance of a ModuleType subclass; running it makes it a
# plain module.
CHILD = """
import sys, types
import qmetallic.cli
try:
    qmetallic.cli.main(sys.argv[1:])
except SystemExit:  # --version and argparse's usage errors
    pass
print(sorted(name for name, m in sys.modules.items()
             if type(m) is types.ModuleType), file=sys.stderr)
"""


def modules_run_by(argv) -> tuple:
    """(the library modules that ran, every module that ran) for one
    command line; -S keeps site packages from loading anything first."""
    r = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *argv],
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    ran = set(ast.literal_eval(r.stderr.splitlines()[-1]))
    return {m for m in LIBRARY if f"qmetallic.{m}" in ran}, ran


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # each costs start-up time in every CLI process; the two requests run
    # every library module that a command line runs (all but `artin`), so
    # that none of them can load one unseen. Every command line stays in ZZ
    # and GF(p), so none needs `fractions` (which loads `decimal`): only
    # the QQ methods import it
    out = str(tmp_path / "out")
    library = set()
    for argv in (["verify", "--suite", "all", "--n", "3"], ["modp", "--n", "3", "--p", "7"]):
        ran_library, ran = modules_run_by(argv + ["--out", out])
        library |= ran_library
        assert {"dataclasses", "inspect", "fractions", "decimal"}.isdisjoint(ran)
    assert library == LIBRARY - {"artin"}


def test_a_qq_expansion_loads_fractions_on_first_use():
    # the ZZ step meets a non-unit on this model, so it is mapped to QQ,
    # whose methods import `fractions` themselves; the digest pins the
    # fraction's JSON and its rendered levels, where ints, Fractions with
    # denominator 1 and proper Fractions each keep their own encoding
    code = """
import hashlib, json, sys
from qmetallic import fields, hfrac
model = hfrac.shifted_model_chain(3, 5)
before = "fractions" in sys.modules
hf = hfrac.hfraction_of_quadratic(model.map_domain(fields.QQ))
levels = [list(map(str, hf.rendered(j))) for j in range(hf.n_stored_terms())]
text = json.dumps([hf.to_json_dict(), levels], sort_keys=True)
print(before, "fractions" in sys.modules, hf.dom, hashlib.sha256(text.encode()).hexdigest())
"""
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], env=SRC_ENV, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        "False", "True", "QQ",
        "136bbfcb7baf1e79e8111aea56d3e25061506da4af8dc1a7220cc8055a6a4c49",
    ]


def compiled_nodes(modules) -> int:
    """The AST nodes that a request compiles: `cli` and the library
    modules it runs (the package's own files are the same for all)."""
    return sum(
        sum(1 for _ in ast.walk(ast.parse((PACKAGE / f"{m}.py").read_text())))
        for m in {"cli", *modules}
    )


# Each row pins the modules a request runs, and a budget for the AST nodes
# it compiles, about 5 % over the measured sum. The benchmark runs every
# request from source without a bytecode cache, so this sum sets both the
# compile time and the peak RSS of a short request; unlike either, it is
# exact, so a module that creeps back onto a path shows here at once.
@pytest.mark.parametrize("argv, expected, budget", [
    (["--version"], set(), 775),
    (["series"], set(), 775),  # argparse's usage error
    (["verify", "--suite", "nope"], set(), 775),  # the suite names are not in verify
    (["series", "--n", "3"], CORE | {"qseries"}, 6_650),
    # the fraction is the template's: neither `hfrac` nor `hankel
    # --source formula` runs the expansion (`hfrac`) or `qseries`
    (["hfrac", "--n", "3"], FORMULA, 7_450),
    # the two routes' windows are in `reports`: no `hankel` or `scan`
    # request runs the checkers of `verify` or the closed forms of
    # `explicit`, and only the brute-force route runs `oracle`
    (["hankel", "--n", "3", "--source", "formula"], FORMULA | {"reports"}, 8_500),
    (["hankel", "--n", "3", "--source", "both"], FORMULA | BRUTE, 11_350),
    (["hankel", "--n", "3", "--source", "brute"], BRUTE, 9_000),
    (["scan", "--n", "1"], BRUTE, 9_000),
    (["modp", "--n", "3", "--p", "4"], {"commands", "algebra", "fields"}, 4_550),  # a usage error
    # `modp` expands over GF(p) and reads the formula route, but runs
    # neither `verify` nor `explicit`, and `oracle` only beyond ell = n+1
    (["modp", "--n", "3", "--p", "7"],
     FORMULA | {"fields", "modp", "hfrac", "qseries", "reports"}, 13_300),
    # thmB..thmD read only the formula route: none of the expansion,
    # `oracle`, `explicit` or `modp`
    (["verify", "--suite", "thmB", "--n", "3"], FORMULA | {"reports", "verify"}, 9_950),
    (["verify", "--suite", "thmC", "--n", "3"], FORMULA | {"reports", "verify"}, 9_950),
    (["verify", "--suite", "thmD", "--n", "3"], FORMULA | {"reports", "verify"}, 9_950),
    # only the thm51 checkers read the closed forms of `explicit`
    (["verify", "--suite", "thm51", "--n", "3"],
     FORMULA | BRUTE | {"verify", "crosschecks", "explicit"}, 15_850),
], ids=[
    "version", "usage-error", "unknown-suite", "series", "hfrac", "hankel-formula",
    "hankel-both", "hankel-brute", "scan", "modp-not-prime", "modp", "verify-thmB",
    "verify-thmC", "verify-thmD", "verify-thm51",
])
def test_each_request_runs_only_the_modules_it_needs(argv, expected, budget):
    library, ran = modules_run_by(argv)
    assert library == expected
    assert compiled_nodes(library) <= budget
    assert "json" not in ran  # only JSON output needs it
    assert "fractions" not in ran  # only QQ needs it


TRACER_LAYERS = [
    "verify.brute", "algebra.det", "hfrac.expand", "hfrac.alg_step",
    "hfrac.template", "hfrac.formula", "cfrac", "verify.checks",
    "qseries.series", "verify.modp", "verify.is_prime",
]
# per-layer metrics that bench/run.py computes from a whole traced pass
# (its wall time, and the bytes the requests print), not from a layer
RUN_METRICS = {"trace.wall_s", "trace.overhead_ratio", "cli.output_bytes"}


def test_bench_tracer_still_wraps_every_layer():
    # bench/tracer.py looks each layer up in sys.modules right after
    # `import qmetallic.cli`; a library module that is not there by then
    # loses its layers, and the traced run its metrics
    code = (
        "import importlib.util, sys; "
        f"spec = importlib.util.spec_from_file_location('tracer', {str(ROOT / 'bench' / 'tracer.py')!r}); "
        "tracer = importlib.util.module_from_spec(spec); "
        "spec.loader.exec_module(tracer); "
        "import qmetallic.cli; "
        "print(tracer.install(tracer.Recorder('t')))"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    installed = ast.literal_eval(r.stdout)
    # Every per-layer metric that BENCHMARK.json declares must come from a
    # layer the tracer installs. A change that deleted `det_fraction_free`,
    # the only target of the `algebra.det` layer, was refused for this:
    # its traced `oracle` run lacked the five `algebra.det.*` metrics and
    # was rejected as malformed output, although it exited 0.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layers = set(installed) | set(spans.ALWAYS_INSTALLED)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unserved = [
        m["name"] for m in declared
        if m["name"] not in RUN_METRICS
        and spans.LAYER_METRICS.get(m["name"], (None,))[0] not in layers
    ]
    assert not unserved, f"BENCHMARK.json metrics no installed layer serves: {unserved}"
    assert installed == TRACER_LAYERS


def test_missing_required_argument_exits_2():
    r = subprocess.run(
        [sys.executable, "-m", "qmetallic.cli", "series"],
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--n", "3"],
    ["modp", "--n", "3", "--p", "7"],
    ["hankel", "--n", "2", "--format", "csv"],
], ids=["verify-all", "modp", "hankel"])
def test_python_m_never_imports_cli_a_second_time(argv):
    # under `python -m qmetallic.cli`, cli runs as __main__; a library
    # module that imported `qmetallic.cli` (for an exit code, say) would
    # compile and run it again as a second module. -X importtime lists
    # every module the import system loads; the lazy modules run outside
    # it and are not listed
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-W", "error", "-m", "qmetallic.cli", *argv],
        env={**SRC_ENV, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    imported = [
        line.rpartition("|")[2].strip() for line in r.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "qmetallic" in imported  # the control: the listing shows the package
    assert "qmetallic.cli" not in imported
