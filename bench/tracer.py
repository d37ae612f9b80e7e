"""Run one qmetallic command line with spans around each module's public
functions.

    PYTHONPATH=src python bench/tracer.py SPANS_OUT REQUEST_ID ARG...

behaves like `python -m qmetallic.cli ARG...` (same stdout, same exit
code) and in addition writes the spans of the request to SPANS_OUT as
JSON. The library itself is not changed: the functions named in LAYERS
are replaced, in every `qmetallic` module that holds them, by wrappers
that record a span (name, start, end, parent, request id and a few
counts) in memory. A name that no longer exists is skipped, and its
layer is left out of `installed`, so its metrics read as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf_counter = time.perf_counter


def _values(args, kwargs, result):
    return {"values": len(result) if isinstance(result, list) else 1}


def _det(args, kwargs, result):
    matrix = args[0]
    rows = getattr(matrix, "rows", matrix)
    ints = [c for row in rows for c in row if isinstance(c, int)]
    if isinstance(result, int):
        ints.append(result)
    order = len(rows)
    return {
        "order": order,
        "bits": max((abs(c).bit_length() for c in ints), default=0),
        "ops": order ** 3 // 3,
    }


def _expand(args, kwargs, result):
    return {"cycle": len(result.cycle)}


def _series(args, kwargs, result):
    return {"prec": kwargs.get("prec", args[1] if len(args) > 1 else 0)}


def _checks(args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    checks = [r for r in results if hasattr(r, "passed")]
    return {"checks": len(checks), "failed": sum(not r.passed for r in checks)}


_CHECKERS = (
    "check_hfraction_shape",
    "check_value_set_and_periodicity",
    "gale_robinson_check",
    "check_gale_robinson",
    "check_contiguity",
    "check_explicit_reconstruction",
    "check_delta_symmetry",
    "check_profile_identities",
    "check_support_membership",
    "check_stream_symmetries",
    "baseline_catalan_motzkin",
)

# layer -> (targets, note); a target is (module, attribute), where
# "Class.method" names a method. note(args, kwargs, result) gives the
# counts recorded with the span.
LAYERS = {
    "verify.brute": (
        [("qmetallic.verify", "hankel_bruteforce_values"),
         ("qmetallic.verify", "hankel_bruteforce")],
        _values,
    ),
    "algebra.det": ([("qmetallic.algebra", "det_fraction_free")], _det),
    "hfrac.expand": ([("qmetallic.hfrac", "hfraction_of_quadratic")], _expand),
    "hfrac.alg_step": ([("qmetallic.hfrac", "alg_step")], None),
    "hfrac.template": ([("qmetallic.hfrac", "expected_hfraction")], None),
    "hfrac.formula": (
        [("qmetallic.hfrac", "hankel_values_from_hfraction")],
        _values,
    ),
    "cfrac": (
        [("qmetallic.cfrac", f"PeriodicHFraction.{m}")
         for m in ("canonical", "map_domain", "stream", "to_cfterms")],
        None,
    ),
    "verify.checks": ([("qmetallic.verify", name) for name in _CHECKERS], _checks),
    "qseries.series": ([("qmetallic.qseries", "series_of_model")], _series),
    "verify.modp": ([("qmetallic.verify", "modp_analysis")], None),
    "verify.is_prime": ([("qmetallic.verify", "is_prime")], None),
}


class Recorder:
    """Spans of one request, kept in memory until the request ends.

    A span is [name, start, end, parent index or None, request id, counts].
    """

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn, note=None):
        spans, open_ = self.spans, self._open
        rid = self.request_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, rid, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper


def _rebind(orig, wrapper) -> None:
    # `verify` and `cli` import names directly, so every module attribute
    # holding the function object is replaced, not only the defining one.
    for name, module in list(sys.modules.items()):
        if name != "qmetallic" and not name.startswith("qmetallic."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(recorder: Recorder, layers=LAYERS) -> list:
    """Wrap every target that exists; return the layers with at least one."""
    installed = []
    for layer, (targets, note) in layers.items():
        wrapped = False
        for module_name, attr in targets:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if not callable(orig):
                continue
            wrapper = recorder.wrap(layer, orig, note)
            if path:
                setattr(owner, leaf, wrapper)
            else:
                _rebind(orig, wrapper)
            wrapped = True
        if wrapped:
            installed.append(layer)
    return installed


def main(argv) -> int:
    out_path, request_id, cli_argv = argv[0], argv[1], argv[2:]
    recorder = Recorder(request_id)
    start = perf_counter()
    import qmetallic.cli

    recorder.spans.append(["cli.import", start, perf_counter(), None, request_id, None])
    installed = install(recorder)
    run = recorder.wrap("cli.main", qmetallic.cli.main)
    try:
        code = run(cli_argv)
    except SystemExit as e:  # argparse exits for --version and usage errors
        code = e.code
    finally:
        with open(out_path, "w") as fh:
            json.dump({"request_id": request_id, "installed": installed,
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
