"""Per-layer metrics of a traced run.

Names have the form ``<module>.<function>.<stat>`` or ``<module>.self_s``.
Span statistics are per unit operation of the workload (a trained model, a
predict command, a stream pass):

- ``.s``: wall time inside the function, its traced children included;
- ``.self_s``: the same without its traced children;
- ``.calls``: calls;
- ``.cpu_s``: process CPU time, all threads, inside the function;
- ``.p50_us`` and ``.p99_us``: percentiles of single-call durations.

Wall times come from ``spans.attribute``, so work on pool threads counts for
the wall time it occupied and the module self times add up to the wall time
of the traced calls. A layer the workload does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import attribute
from timing import percentile

# Candidate screening has no public function of its own: it is what
# train_sub_reservoir does outside its traced children.
ALIASES = {"trainer.screen.s": "trainer.train_sub_reservoir.self_s"}
SPAN_STATS = ("s", "self_s", "calls", "cpu_s", "p50_us", "p99_us")


def span_table(spans, main_thread: int) -> dict:
    """Per span name: wall self and total seconds, process CPU, call durations."""
    wall_self, wall_total = attribute(spans, main_thread)
    table = defaultdict(lambda: {"self": 0.0, "total": 0.0, "cpu": 0.0, "durations": []})
    for span, own, total in zip(spans, wall_self, wall_total):
        row = table[span.name]
        row["self"] += own
        row["total"] += total
        row["cpu"] += span.cpu
        row["durations"].append(span.end - span.start)
    return dict(table)


def span_metric(table: dict, name: str, units: int) -> float:
    """Value of one span statistic, per unit operation where it is a sum."""
    name = ALIASES.get(name, name)
    target, stat = name.rsplit(".", 1)
    if "." not in target:  # a module: the self time of all its functions
        return sum(row["self"] for fn, row in table.items()
                   if fn.startswith(target + ".")) / units
    row = table.get(target)
    if row is None:
        return 0.0
    if stat.endswith("_us"):
        return percentile(row["durations"], float(stat[1:-3])) * 1e6
    value = {"s": row["total"], "self_s": row["self"], "cpu_s": row["cpu"],
             "calls": len(row["durations"])}[stat]
    return value / units


def is_span_metric(name: str) -> bool:
    return ALIASES.get(name, name).rsplit(".", 1)[-1] in SPAN_STATS
