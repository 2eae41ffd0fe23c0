"""Batch-means statistics (§7.2; Law & Kelton).

The dynamic study gathers average network latency "using the method of
batch means ... until the confidence interval was smaller than 5
percent of the mean, using 95 percent confidence intervals".  This
module provides the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from statistics import mean, stdev
from collections.abc import Sequence

#: two-sided 95% Student-t quantiles, t_{0.975, df}, for df = 1..30.
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t975(df: int) -> float:
    """t quantile for a 95% two-sided confidence interval."""
    if df < 1:
        raise ValueError("need at least 2 batches")
    return _T975[df - 1] if df <= 30 else 1.96


@dataclass(frozen=True)
class Summary:
    """Mean with a 95% batch-means confidence interval."""

    mean: float
    ci_halfwidth: float
    num_observations: int
    num_batches: int

    @property
    def relative_ci(self) -> float:
        """CI half-width as a fraction of the mean (the dissertation's
        5% stopping criterion)."""
        return self.ci_halfwidth / self.mean if self.mean else float("inf")

    def __str__(self) -> str:
        return f"{self.mean:.6g} +/- {self.ci_halfwidth:.2g} (n={self.num_observations})"


@dataclass
class SimStats:
    """Mutable delivery/fault counters of one fault-aware run.

    ``delivered``/``dropped`` count unique ``(message, destination)``
    pairs — a destination reached on a retry counts delivered once;
    one never reached within the retry budget counts dropped once.
    ``detoured`` counts adaptive hops that avoided a faulted candidate
    channel at simulation time.
    """

    delivered: int = 0
    dropped: int = 0
    detoured: int = 0
    killed_worms: int = 0
    retries: int = 0
    injection_failures: int = 0
    link_fault_events: int = 0
    node_fault_events: int = 0
    repair_events: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of all requested (message, destination)
        pairs; 1.0 for an empty run."""
        total = self.delivered + self.dropped
        return self.delivered / total if total else 1.0

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        return cls(**data)


def batch_means(values: Sequence[float], num_batches: int = 10) -> Summary:
    """Batch-means estimate of the mean with a 95% CI.

    ``values`` should be in collection (time) order; they are split into
    ``num_batches`` contiguous batches whose means are treated as
    approximately independent observations.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no observations")
    if n < 2 * num_batches:
        num_batches = max(2, n // 2) if n >= 4 else 1
    if num_batches < 2:
        return Summary(mean(values), float("inf"), n, 1)
    size = n // num_batches
    batches = [
        mean(values[i * size : (i + 1) * size]) for i in range(num_batches)
    ]
    m = mean(batches)
    s = stdev(batches)
    half = t975(num_batches - 1) * s / sqrt(num_batches)
    return Summary(m, half, n, num_batches)
