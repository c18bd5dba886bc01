"""Nonparametric tail machinery: Hill estimation, normalizing sequences,
the empirical tail process, and empirical angular measures."""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (DegenerateSampleError, InsufficientExceedancesError,
                     ParameterError)
from .randkit import TailLaw, quantile_tail


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
class EmpiricalTailProcess:
    """Conditional forward profiles X_{t+s}/|X_t| averaged over the
    exceedance times t of |X_t| above ``threshold``."""

    horizon: int
    mean_profile: np.ndarray
    se_profile: np.ndarray
    exceedance_count: int
    threshold: float

    def __post_init__(self):
        self.mean_profile = np.atleast_2d(
            np.asarray(self.mean_profile, dtype=float))
        self.se_profile = np.atleast_2d(
            np.asarray(self.se_profile, dtype=float))
        if self.exceedance_count < 1:
            raise ParameterError("exceedance_count must be at least 1")
        if self.mean_profile.shape[0] != self.horizon + 1:
            raise ParameterError("profile must have horizon+1 rows")


@dataclass
class AngularMeasure:
    """Discrete distribution on the unit sphere: list of (atom, weight)."""

    atoms: list
    total: float = 1.0

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
        if not self.total > 0:
            raise ParameterError("total mass must be positive")

    def weight_at(self, direction) -> float:
        """Aggregated weight of atoms within 1e-9 of ``direction``."""
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        return sum(w for v, w in self.atoms
                   if np.linalg.norm(v - d) <= 1e-9)

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


def normalizing_sequence(source, n: int) -> float:
    """a_n with n P(|X| > a_n) ~ 1: analytic inversion for a TailLaw,
    else the empirical (1 - 1/n)-quantile of |samples|."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    if isinstance(source, TailLaw):
        return quantile_tail(source, n)
    x = np.abs(np.asarray(source, dtype=float).ravel())
    if n > x.size:
        raise ParameterError(
            f"n={n} exceeds the sample size {x.size} in empirical mode")
    return float(np.quantile(x, 1.0 - 1.0 / n, method="higher"))


def empirical_tail_process(path, quantile: float,
                           horizon: int) -> EmpiricalTailProcess:
    """Average the forward windows X_{t+s}/|X_t| over times t where |X_t|
    exceeds its empirical ``quantile``; windows truncated at the path end
    are not used."""
    values = np.atleast_2d(np.asarray(
        getattr(path, "values", path), dtype=float))
    n, d = values.shape
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    if n <= horizon:
        raise ParameterError("path length must exceed the horizon")
    if not 0.0 < quantile < 1.0:
        raise ParameterError("quantile must lie in (0, 1)")
    norms = np.linalg.norm(values, axis=1)
    threshold = float(np.quantile(norms, quantile))
    usable = norms[: n - horizon] > threshold
    idx = np.flatnonzero(usable)
    count = idx.size
    if count < 30:
        raise InsufficientExceedancesError(
            f"only {count} exceedances above the {quantile}-quantile; "
            "need at least 30")
    windows = np.stack([values[idx + s] for s in range(horizon + 1)],
                       axis=1)
    windows = windows / norms[idx][:, None, None]
    mean_profile = windows.mean(axis=0)
    se_profile = windows.std(axis=0, ddof=1) / math.sqrt(count)
    return EmpiricalTailProcess(horizon=horizon, mean_profile=mean_profile,
                                se_profile=se_profile,
                                exceedance_count=count,
                                threshold=threshold)


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
    return AngularMeasure(atoms=atoms, total=1.0)
