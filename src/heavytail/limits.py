"""Empirical verification of the three limit theorems: the alpha-stable
CLT for normalized sums, the precise large-deviation ratio scan, and the
Gaussian CLT over regenerative cycles."""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (DegenerateSampleError, InsufficientCyclesError,
                     OutOfRegimeError, ParameterError, UnsupportedCaseError,
                     WidenRError)
from . import cluster, models, randkit, tailstats
from .tailstats import Direction
from .randkit import RngStream

CF_GRID = np.linspace(-3.0, 3.0, 61)

# replicas per path-sum chunk are this many floats over the path length:
# the chunk -> substream map, and so the digests, rest on it; the sums
# hold one cache-sized block of a chunk, not the chunk
_PATH_CHUNK_BUDGET = 1 << 22

# paths and horizon of the first-step b(theta) of a family with no closed
# form: on the bench GARCH law its SE is about 0.0029, and on common paths
# the value at 512 steps differs from that at 256 by -6e-7 +- 1e-5
_B_REPLICAS, _B_HORIZON = 2048, 256


# ---------------------------------------------------------------------------
# stable law parameters and characteristic function


@dataclass
class StableLawParams:
    """The pair (b_plus, b_minus) = (b(theta), b(-theta)) defining the
    stable limit's characteristic function along theta, plus the tail
    constant ``c_alpha`` derived from alpha. For alpha = 1 the pair must
    be symmetric."""

    alpha: float
    b_plus: float
    b_minus: float
    c_alpha: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ParameterError("alpha must lie in (0, 2)")
        self.b_plus, self.b_minus = float(self.b_plus), float(self.b_minus)
        if self.b_plus < 0 or self.b_minus < 0:
            raise ParameterError("b values must be nonnegative")
        if self.alpha == 1.0 and not math.isclose(
                self.b_plus, self.b_minus, rel_tol=1e-6, abs_tol=1e-9):
            raise UnsupportedCaseError(
                "alpha = 1 requires a symmetric pair b(theta) = b(-theta)")
        self.c_alpha = randkit.stable_tail_constant(self.alpha)


def stable_cf(params: StableLawParams, x: float) -> complex:
    """psi(x) = exp{-|x|^alpha C_alpha^{-1} [(b+ + b-)
    - i sign(x) (b+ - b-) tan(pi alpha / 2)]}; for alpha = 1 the pair is
    symmetric and the tangent term vanishes."""
    bp, bm = params.b_plus, params.b_minus
    a = params.alpha
    if x == 0.0:
        return complex(1.0, 0.0)
    inv_c = 1.0 / params.c_alpha
    if a == 1.0:
        return complex(math.exp(-abs(x) * inv_c * (bp + bm)), 0.0)
    skew = math.copysign(1.0, x) * (bp - bm) * math.tan(math.pi * a / 2.0)
    exponent = -abs(x) ** a * inv_c * complex(bp + bm, -skew)
    return complex(np.exp(exponent))


@dataclass
class CfComparison:
    """Empirical vs theoretical characteristic function on a grid."""

    grid: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    sup_abs_gap: float
    mc_band: float
    centering: str

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.empirical = np.asarray(self.empirical, dtype=complex)
        self.theoretical = np.asarray(self.theoretical, dtype=complex)
        if np.any(np.abs(self.empirical) > 1.0 + 1e-9):
            raise ParameterError("empirical CF modulus exceeds 1")


@dataclass
class LdpScanResult:
    """Ratio P(theta'S_n > x) / (n P(|X| > x)) over a grid in the
    large-deviation region (b_n, c_n)."""

    n: int
    theta: Direction
    xs: np.ndarray
    ratios: np.ndarray
    target: float
    sup_dev: float
    counts: np.ndarray
    ratio_ses: np.ndarray
    b_n: float
    c_n: float
    centering: str

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ratios = np.asarray(self.ratios, dtype=float)
        if np.any(np.diff(self.xs) <= 0):
            raise ParameterError("xs must be strictly increasing")
        if np.any(self.ratios < 0):
            raise ParameterError("ratios must be nonnegative")


@dataclass
class GaussianCltReport:
    """Long-run variance of the scalar chain from regenerative blocks vs
    batch means."""

    sigma_hat: float
    batch_sigma: float
    rel_gap: float
    n_cycles: int


# ---------------------------------------------------------------------------
# shared simulation plumbing


def _scalar_sums(spec, n: int, reps: int, stream: RngStream,
                 threads: int) -> np.ndarray:
    """(reps,) draws of S_n for a scalar-observable model after its
    ``default_burn`` warm-up, from ``spec.sums`` in fixed-size chunks on
    disjoint substreams."""
    burn = spec.default_burn
    chunk = max(1, _PATH_CHUNK_BUDGET // max(n + burn, 1))
    return np.concatenate(randkit.map_chunks(
        lambda take, sub: spec.sums(n, burn, take, sub), reps, chunk, stream,
        threads))


def _sum_centering(spec, alpha: float):
    """(per-step mean, label) used to center S_n: the exact stationary
    mean when alpha > 1, none otherwise."""
    if alpha <= 1.0:
        return 0.0, "none"
    mean = spec.stationary_mean()
    if mean is None:
        raise OutOfRegimeError(
            f"alpha = {alpha:.4g} > 1 needs the stationary mean to center "
            f"S_n, and the {type(spec).__name__} mean is infinite")
    return float(np.asarray(mean).ravel()[0]), "analytic"


def draws_pilot(spec) -> bool:
    """Whether a scan draws the pilot: iff no analytic power tail."""
    return spec.tail_constant() is None


def _power_tail(spec, stream: RngStream):
    """(c, scale) with P(|X| > x) ~ c (x / scale)^(-alpha), alpha the tail
    index: the analytic power tail when available, else the (k+1)-th
    largest of the N pilot |X| as scale and c = k/N, k = sqrt(N)."""
    if not draws_pilot(spec):
        return spec.tail_constant()
    x = models.stationary_pilot(spec, stream.master_seed)[:, 0]
    np.abs(x, out=x)
    k = tailstats.default_hill_k(x.size)
    x.partition(x.size - k - 1)
    scale = float(x[x.size - k - 1])
    if not scale > 0.0:
        raise DegenerateSampleError(f"pilot tail scale {scale:g} <= 0")
    return k / x.size, scale


def _b_values(spec, theta: Direction, stream: RngStream, threads, signs):
    """[max(b(s theta), 0) for s in signs]: the draw-free closed form at
    each sign when the family has one, else the first-step estimate on
    ``stream``, which is b(theta) = b(-theta) for every sign."""
    if spec.exact_cluster_index(theta.vector) is None:
        b = cluster.first_step_cluster_index(spec, _B_HORIZON, _B_REPLICAS,
                                             stream, threads)
        return [max(b.value, 0.0)] * len(signs)
    return [max(cluster.closed_form_cluster_index(
        spec, theta if s == 1 else theta.negated(), _B_REPLICAS).value, 0.0)
        for s in signs]


# ---------------------------------------------------------------------------
# the three checks


def stable_check(spec, theta: Direction, n: int, reps: int,
                 stream: RngStream, threads: int = 1) -> CfComparison:
    """Empirical CF of a_n^{-1} theta'S_n against the stable limit CF on
    the fixed grid."""
    if n < 1 or reps < 1:
        raise ParameterError("n and reps must be positive")
    alpha = models.tail_index(spec)
    if not 0 < alpha < 2:
        raise OutOfRegimeError(
            f"stable regime needs alpha in (0, 2); got {alpha:.4g}")
    if not isinstance(theta, Direction):
        theta = Direction(theta)
    if theta.dim != 1:
        raise ParameterError(
            "limit checks run on the scalar observable; the direction "
            "must be +1 or -1")
    params = StableLawParams(alpha, *_b_values(
        spec, theta, stream.substream(0xC0).substream(0xB0), threads,
        (1, -1)))
    sums = _scalar_sums(spec, n, reps, stream.substream(0xD0), threads)
    mu, centering = _sum_centering(spec, alpha)
    c, scale = _power_tail(spec, stream)
    a_n = scale * (n * c) ** (1.0 / alpha)  # n P(|X| > a_n) = 1
    proj = theta.theta[0] * ((sums - n * mu) / a_n)
    emp = np.array([np.exp(1j * (x * proj)).mean() for x in CF_GRID])
    theo = np.array([stable_cf(params, float(x)) for x in CF_GRID])
    return CfComparison(grid=CF_GRID.copy(), empirical=emp,
                        theoretical=theo,
                        sup_abs_gap=float(np.max(np.abs(emp - theo))),
                        mc_band=3.0 * math.sqrt(2.0 / reps),
                        centering=centering)


def ldp_region(alpha: float, n: int, eps: float = 0.1):
    """Default scan region (b_n, c_n = 100 b_n): b_n = n^{1/alpha + eps}
    below the square-integrable regime, n^{0.5 + eps} above it."""
    if not n >= 2:
        raise ParameterError("n must be at least 2")
    if alpha < 2:
        b_n = float(n) ** (1.0 / alpha + eps)
    else:
        b_n = float(n) ** (0.5 + eps)
    return b_n, 100.0 * b_n


def ldp_scan(spec, theta: Direction, n: int, reps: int, stream: RngStream,
             region=None, grid_size: int = 12, eps: float = 0.1,
             threads: int = 1) -> LdpScanResult:
    """Monte Carlo ratios P(theta'S_n > x) / (n P(|X| > x)) over a
    geometric grid in the region, compared against the cluster index."""
    if not isinstance(theta, Direction):
        theta = Direction(theta)
    if theta.dim != 1:
        raise ParameterError(
            "the ratio scan runs on the scalar observable; the direction "
            "must be +1 or -1")
    if grid_size < 1:
        raise ParameterError("grid_size must be at least 1")
    alpha = models.tail_index(spec)
    b_n, c_n = ldp_region(alpha, n, eps) if region is None else \
        (float(region[0]), float(region[1]))
    if not 0 < b_n < c_n:
        raise ParameterError("region must satisfy 0 < b_n < c_n")
    # the target first: a family with no b at this alpha draws no sums
    target = _b_values(spec, theta, stream.substream(0xC9).substream(0xB0),
                       threads, (1,))[0]
    xs = np.geomspace(b_n, c_n, grid_size + 1)[1:]
    c, scale = _power_tail(spec, stream)
    mu, centering = _sum_centering(spec, alpha)
    sums = _scalar_sums(spec, n, reps, stream.substream(0xD1), threads)
    sign = theta.theta[0]
    proj = sign * (sums - n * mu)
    counts = (proj[:, None] > xs[None, :]).sum(axis=0).astype(float)
    short = np.flatnonzero(counts < 50)
    if short.size:
        points = ", ".join(f"x={xs[j]:.6g} ({int(counts[j])})"
                           for j in short)
        raise WidenRError(
            f"fewer than 50 exceedances at {short.size} grid point(s): "
            f"{points}; widen the replica budget")
    denom = n * (c * (xs / scale) ** (-alpha))
    ratios = counts / reps / denom
    p_hat = counts / reps
    ratio_ses = np.sqrt(p_hat * (1.0 - p_hat) / reps) / denom
    sup_dev = float(np.max(np.abs(ratios - target)))
    return LdpScanResult(n=n, theta=theta, xs=xs, ratios=ratios,
                         target=target, sup_dev=sup_dev,
                         counts=counts, ratio_ses=ratio_ses, b_n=b_n,
                         c_n=c_n, centering=centering)


def gaussian_sigma(blocks) -> GaussianCltReport:
    """Long-run variance: second moment of the centred cycle sums
    S_i - mu_hat L_i (mu_hat = sum S / sum L, the regenerative mean) over
    the mean cycle length, cross-checked against non-overlapping batch
    means."""
    sums = blocks.block_sums
    k = sums.size
    if k < 30:
        raise InsufficientCyclesError(
            f"{k} complete cycles; need at least 30")
    starts = blocks.cycle_starts
    # the lengths are integers, so their sum is exact in any order
    steps = float(starts[-1] - starts[0])
    mean_len = steps / k
    resid = np.subtract(starts[1:], starts[:-1], dtype=float)
    resid *= sums.sum() / steps
    np.subtract(sums, resid, out=resid)
    sigma_hat = float(resid @ resid) / k / mean_len
    n = blocks.n
    ell = max(2, int(math.isqrt(n)))
    nb = n // ell
    if nb < 2:
        raise InsufficientCyclesError("path too short for batch means")
    means = blocks.path[: nb * ell].reshape(nb, ell).mean(axis=1)
    centered = means - means.mean()
    batch_sigma = ell * float(centered @ centered) / (nb - 1)
    rel_gap = abs(sigma_hat - batch_sigma) / batch_sigma \
        if batch_sigma > 0 else math.inf
    return GaussianCltReport(sigma_hat=sigma_hat, batch_sigma=batch_sigma,
                             rel_gap=rel_gap, n_cycles=k)
