"""Per-layer metrics from the spans the tracer records.

A span is [name, start, end, parent, request id, counts], where parent
is the index of the enclosing span within the same request. For a layer:

- `s` is inclusive time, counting only outermost spans of that layer
  (a span with an ancestor of the same layer is inside time already
  counted);
- `self_s` is, summed over all its spans, a span's duration minus the
  part of it that its child spans cover;
- `calls` is the number of outermost spans;
- counts recorded with outermost spans are summed, except the `MAXIMA`,
  which take the largest value.
"""

from __future__ import annotations

from collections import defaultdict

MAXIMA = ("order", "bits", "prec")

# metric -> (layer, field, unit)
LAYER_METRICS = {
    "verify.brute.s": ("verify.brute", "s", "s"),
    "verify.brute.values": ("verify.brute", "values", "count"),
    "algebra.det.s": ("algebra.det", "s", "s"),
    "algebra.det.calls": ("algebra.det", "calls", "count"),
    "algebra.det.max_order": ("algebra.det", "order", "rows"),
    "algebra.det.max_entry_bits": ("algebra.det", "bits", "bits"),
    "algebra.det.ops_computed": ("algebra.det", "ops", "ops"),
    "hfrac.expand.s": ("hfrac.expand", "s", "s"),
    "hfrac.alg_step.s": ("hfrac.alg_step", "s", "s"),
    "hfrac.expand.steps": ("hfrac.alg_step", "calls", "count"),
    "hfrac.expand.cycle_len": ("hfrac.expand", "cycle", "terms"),
    "hfrac.template.s": ("hfrac.template", "s", "s"),
    "hfrac.template.calls": ("hfrac.template", "calls", "count"),
    "hfrac.formula.s": ("hfrac.formula", "s", "s"),
    "hfrac.formula.values": ("hfrac.formula", "values", "count"),
    "cfrac.s": ("cfrac", "s", "s"),
    "cfrac.calls": ("cfrac", "calls", "count"),
    "verify.checks.s": ("verify.checks", "s", "s"),
    "verify.checks.self_s": ("verify.checks", "self_s", "s"),
    "verify.checks.count": ("verify.checks", "checks", "count"),
    "verify.checks.failed": ("verify.checks", "failed", "count"),
    "qseries.series.s": ("qseries.series", "s", "s"),
    "qseries.series.calls": ("qseries.series", "calls", "count"),
    "qseries.series.max_prec": ("qseries.series", "prec", "coeffs"),
    "cli.import_s": ("cli.import", "s", "s"),
    "cli.self_s": ("cli.main", "self_s", "s"),
    "verify.modp.s": ("verify.modp", "s", "s"),
    "verify.modp.self_s": ("verify.modp", "self_s", "s"),
    "verify.is_prime.s": ("verify.is_prime", "s", "s"),
}

# spans the tracer records itself, whatever the library looks like
ALWAYS_INSTALLED = ("cli.import", "cli.main")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append(span)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        inside = [(max(c[1], start), min(c[2], end)) for c in children[i]]
        out.append(end - start - _covered([iv for iv in inside if iv[0] < iv[1]]))
    return out


def _outermost(spans, i) -> bool:
    name = spans[i][0]
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def layer_totals(spans) -> dict:
    """{layer: {field: value}} for the spans of one request."""
    totals = defaultdict(lambda: defaultdict(float))
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        name, start, end, _parent, _rid, counts = span
        t = totals[name]
        t["self_s"] += self_s
        if not _outermost(spans, i):
            continue
        t["s"] += end - start
        t["calls"] += 1
        for field, value in (counts or {}).items():
            t[field] = max(t[field], value) if field in MAXIMA else t[field] + value
    return totals


def pass_metrics(traces) -> dict:
    """Per-layer metrics of one traced pass: {metric: value}, summed (or
    maximised) over its requests. `traces` holds the tracer's output of
    each request. A layer the tracer could not install in every request
    has no metrics, rather than zeros."""
    installed = set.intersection(*(set(t["installed"]) for t in traces)) if traces else set()
    installed.update(ALWAYS_INSTALLED)
    totals = defaultdict(lambda: defaultdict(float))
    for trace in traces:
        for layer, fields in layer_totals(trace["spans"]).items():
            for field, value in fields.items():
                t = totals[layer]
                t[field] = max(t[field], value) if field in MAXIMA else t[field] + value
    return {
        metric: totals[layer][field]
        for metric, (layer, field, _unit) in LAYER_METRICS.items()
        if layer in installed
    }
