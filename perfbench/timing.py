"""Summary statistics and failure counting shared by the benchmark's workloads."""

from __future__ import annotations

import math
import statistics

# Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(n_samples: int) -> float | None:
    """Highest tail percentile with at least MIN_TAIL_SAMPLES samples beyond it.

    Returns None when even the lowest candidate is unsupported (fewer than
    100 samples).
    """
    for p in TAIL_PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def describe(values, scale: float = 1.0) -> str:
    """'median M, pP T (n=N)' with the tail percentile chosen by tail_percentile."""
    n = len(values)
    text = f"median {median(values) * scale:.6g}"
    p = tail_percentile(n)
    if p is not None:
        text += f", p{p:g} {percentile(values, p) * scale:.6g}"
    return text + f" (n={n})"


class Tally:
    """Operations attempted and failed in one run, with the reason for each failure.

    An operation is one CLI command, one session step, one online sample or
    one run-level check. check() records one attempted operation and counts
    it failed when the condition is false.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, n: int = 1):
        self.attempted += n

    def fail(self, reason: str, n: int = 1):
        """Count n already-attempted operations as failed."""
        if n <= 0:
            return
        self.failed += n
        self.reasons.append(f"{reason} (x{n})" if n > 1 else reason)

    def check(self, ok: bool, reason: str) -> bool:
        self.attempt()
        if not ok:
            self.fail(reason)
        return bool(ok)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
