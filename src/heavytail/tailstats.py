"""Nonparametric tail machinery: Hill estimation, empirical angular
measures, and directions on the unit sphere."""
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


@dataclass
class AngularMeasure:
    """Discrete distribution on the unit sphere: list of (atom, weight)."""

    atoms: list

    def __post_init__(self):
        cleaned = []
        for vec, w in self.atoms:
            v = np.atleast_1d(np.asarray(vec, dtype=float))
            if w < 0:
                raise ParameterError("weights must be nonnegative")
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ParameterError("atoms must lie on the unit sphere")
            cleaned.append((v, float(w)))
        self.atoms = cleaned

    def as_arrays(self):
        vecs = np.array([v for v, _ in self.atoms])
        ws = np.array([w for _, w in self.atoms])
        return vecs, ws


def hill_estimate(samples, k: int) -> TailFit:
    """Hill estimator on the top-k order statistics of |samples|, with the
    asymptotic normal band alpha_hat (1 +/- 1.96/sqrt(k))."""
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if not (2 <= k < n):
        raise ParameterError(f"k must satisfy 2 <= k < n (got k={k}, n={n})")
    order = np.sort(x)[::-1]
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


def angular_measure(vectors, k: int) -> AngularMeasure:
    """Empirical law of X/|X| over the k largest-by-norm rows, with atoms
    closer than 1e-12 aggregated and mass normalized to 1."""
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    m = x.shape[0]
    if not (1 <= k <= m):
        raise ParameterError(f"k must satisfy 1 <= k <= m (got k={k}, m={m})")
    norms = np.linalg.norm(x, axis=1)
    top = np.argsort(norms)[::-1][:k]
    if norms[top[-1]] <= 0.0:
        raise DegenerateSampleError("zero-norm vector among the top k")
    units = x[top] / norms[top][:, None]
    return merged_measure(units, np.ones(k))


def merged_measure(units, weights) -> AngularMeasure:
    """Law with mass ``weights`` at the unit rows ``units``: rows equal to
    12 decimals are merged in first-seen order, mass normalized to 1."""
    buckets = {}
    for row, w in zip(units, weights):
        key = tuple(np.round(row, 12))
        if key in buckets:
            buckets[key][1] += w
        else:
            buckets[key] = [row, w]
    total = float(np.sum(weights))
    atoms = [(vec, w / total) for vec, w in buckets.values()]
    return AngularMeasure(atoms=atoms)
