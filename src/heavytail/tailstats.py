"""Nonparametric tail machinery: Hill estimation and directions on the
unit sphere."""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DegenerateSampleError, ParameterError


@dataclass(frozen=True)
class Direction:
    """A unit vector on the sphere; any nonzero vector is normalized at
    construction."""

    theta: tuple

    def __init__(self, theta):
        v = np.atleast_1d(np.asarray(theta, dtype=float))
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0 or not np.all(np.isfinite(v)):
            raise ParameterError("direction must be a finite nonzero vector")
        if abs(nrm - 1.0) > 1e-12:
            v = v / nrm
        object.__setattr__(self, "theta", tuple(float(c) for c in v))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.theta)

    @property
    def dim(self) -> int:
        return len(self.theta)

    def negated(self) -> "Direction":
        return Direction([-c for c in self.theta])


def lookup_direction(table: dict, theta, what: str):
    """The value ``table``, keyed by Direction, holds at ``theta`` (any
    nonzero vector): its exact key, else the first key within 1e-9 of
    it. ``what`` names the values in the error."""
    if not isinstance(theta, Direction):
        theta = Direction(theta)
    if theta in table:
        return table[theta]
    tv = theta.vector
    for direction, value in table.items():
        if np.linalg.norm(direction.vector - tv) <= 1e-9:
            return value
    stored = ", ".join(str(list(d.theta)) for d in table) or "none"
    raise ParameterError(f"direction {list(theta.theta)} has no stored "
                         f"{what}; stored directions: {stored}")


@dataclass
class TailFit:
    """Hill fit of a tail index with its 95% asymptotic band."""

    alpha_hat: float
    k_used: int
    ci_low: float
    ci_high: float
    threshold: float

    def __post_init__(self):
        if not (self.ci_low <= self.alpha_hat <= self.ci_high):
            raise ParameterError("confidence band must bracket alpha_hat")

    def overlaps(self, other: "TailFit") -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def hill_estimate(samples, k: int) -> TailFit:
    """Hill estimator on the top-k order statistics of |samples|, with the
    asymptotic normal band alpha_hat (1 +/- 1.96/sqrt(k)). One copy of
    the samples: |samples| is partitioned in place, and only its top
    k + 1 are sorted."""
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if not (2 <= k < n):
        raise ParameterError(f"k must satisfy 2 <= k < n (got k={k}, n={n})")
    if not math.isfinite(x.max()):
        bad = ~np.isfinite(x)
        raise ParameterError(
            f"samples hold {np.count_nonzero(bad)} non-finite value(s), "
            f"the first at index {int(np.argmax(bad))}")
    x.partition(n - k - 1)
    order = np.sort(x[n - k - 1:])[::-1]
    top = order[:k]
    threshold = order[k]
    if threshold <= 0.0:
        raise DegenerateSampleError(
            "threshold order statistic is nonpositive")
    logs = np.log(top / threshold)
    mean_log = float(np.mean(logs))
    if mean_log <= 0.0:
        raise DegenerateSampleError(
            "top order statistics are all equal to the threshold")
    alpha_hat = 1.0 / mean_log
    half = 1.96 / math.sqrt(k)
    return TailFit(alpha_hat=alpha_hat, k_used=k,
                   ci_low=alpha_hat * (1.0 - half),
                   ci_high=alpha_hat * (1.0 + half),
                   threshold=float(threshold))


def default_hill_k(n: int) -> int:
    """Default exceedance count for Hill fits: floor(sqrt(n))."""
    return max(2, int(math.isqrt(n)))
