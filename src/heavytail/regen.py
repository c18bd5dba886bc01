"""Nummelin splitting, regenerative block harvesting, and cycle-level
consistency checks (Kac identity)."""
from __future__ import annotations

from dataclasses import dataclass
import math
from statistics import NormalDist

import numpy as np

from .errors import (InsufficientCyclesError, MinorizationInvalidError,
                     ParameterError, UnsupportedCaseError)
from . import models, randkit
from .randkit import RngStream, TailLaw

_SQRT2 = math.sqrt(2.0)
_BLOCK = 1 << 12  # steps marked, states counted, cycle sums folded
_STD_NORMAL = NormalDist()


def _phibar(t: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(t / _SQRT2)


@dataclass
class MinorizationSpec:
    """Minorization p(x, .) >= epsilon nu(.) for x in the small set
    {|x| <= m_bound}.

    ``nu_sampler`` draws the regeneration law. The densities
    ``transition_density(x, y)`` and ``nu_density(y)`` accept arrays;
    the harvest marks regenerations with probability
    epsilon nu(y) / p(x, y), and needs neither when epsilon is 1 (an
    atom). When ``m_bound`` was chosen by the pilot-quantile heuristic,
    ``heuristic`` is True.
    """

    epsilon: float
    nu_sampler: object
    transition_density: object = None
    nu_density: object = None
    m_bound: float = math.inf
    heuristic: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ParameterError("epsilon must lie in (0, 1]")


@dataclass
class RegenBlocks:
    """Split-chain harvest of the scalar chain: regeneration times,
    complete-cycle sums, and the exact decomposition S_n = sum of blocks
    + tail. The harvest starts at a regeneration, so there is no head.

    ``total`` is S_n accumulated segment-by-segment in chronological
    order; ``reconstruct_total`` refolds the stored pieces in the same
    order, so the identity is exact at the bit level. ``block_sums`` is
    1-d, one sum per complete cycle, and ``path`` 1-d, one state per
    step; any other shape is rejected.
    """

    cycle_starts: np.ndarray
    block_sums: np.ndarray
    tail_sum: float
    total: float
    path: np.ndarray
    n: int

    def __post_init__(self):
        self.cycle_starts = np.asarray(self.cycle_starts, dtype=np.int64)
        self.block_sums = np.asarray(self.block_sums, dtype=float)
        self.tail_sum = float(self.tail_sum)
        self.total = float(self.total)
        self.path = np.asarray(self.path, dtype=float)
        if (self.path.shape != (self.n,)
                or self.block_sums.shape != (self.n_cycles,)):
            raise ParameterError(
                f"path must have shape ({self.n},) for n = {self.n} steps "
                f"and block_sums ({self.n_cycles},) for {self.n_cycles} "
                f"cycles; got {self.path.shape} and "
                f"{self.block_sums.shape}")

    @property
    def n_cycles(self) -> int:
        return max(self.cycle_starts.size - 1, 0)

    def reconstruct_total(self) -> float:
        """Refold blocks + tail in chronological order (a left fold from
        zero)."""
        return _left_fold(self.block_sums) + self.tail_sum


def _left_fold(values: np.ndarray) -> float:
    """((0 + v_0) + v_1) + ..., the last entry of ``np.add.accumulate``
    over [0, values], folded ``_BLOCK`` values at a time."""
    total = 0.0
    for lo in range(0, values.size, _BLOCK):
        chunk = values[lo:lo + _BLOCK].copy()
        chunk[0] += total
        total = float(np.add.accumulate(chunk, out=chunk)[-1])
    return total


@dataclass
class KacReport:
    """Mean cycle length against the Kac prediction 1/pi(atom), plus a
    geometric fit of the cycle-length tail."""

    mean_length: float
    expected_length: float
    z_score: float
    passed: bool
    geometric_rate: float


# ---------------------------------------------------------------------------
# minorization constructors


def make_var1_minorization(spec, m_bound: float = None,
                           stream: RngStream = None) -> MinorizationSpec:
    """Split construction for the scalar linear chain.

    Gaussian innovations (any |a| < 1): over {|x| <= M} the transition
    density is bounded below by g(y) = phi((|y| + |a|M)/s)/s, giving
    epsilon = 2 Phibar(|a|M/s) and an inverse-CDF sampler for nu.

    Pareto innovations (0 <= a < 1, scale s): the bound is
    g(y) = f_Z(y + aM) on {y >= s + aM}, epsilon = ((s + 2aM)/s)^(-alpha),
    nu sampled by shifting a truncated Pareto draw. Without ``m_bound``,
    M is the 0.995 quantile of |X| on the pilot drawn on ``stream``.
    """
    a, law = spec.linear_step()
    scale = law.scale
    heuristic = m_bound is None
    if heuristic:
        if stream is None:
            raise ParameterError("make_var1_minorization needs m_bound "
                                 "or a stream for its pilot (got neither)")
        x = models.stationary_pilot(spec, stream)[:, 0]
        m_bound = np.quantile(np.abs(x, out=x), 0.995, overwrite_input=True)
    m_bound = float(m_bound)
    if not m_bound > 0:
        raise ParameterError("m_bound must be positive")

    if law.family == randkit.GAUSSIAN:
        c = abs(a) * m_bound
        pb = _phibar(c / scale)
        eps = 2.0 * pb

        def nu_sampler(stream):
            # (1 - u) lies in (0, 1], so the quantile is always finite
            u = float(stream.rng.random())
            y = -scale * _STD_NORMAL.inv_cdf((1.0 - u) * pb) - c
            return y if stream.rng.random() < 0.5 else -y

        def transition_density(x, y):
            z = (y - a * x) / scale
            return np.exp(-0.5 * z * z) / (scale * math.sqrt(2 * math.pi))

        def nu_density(y):
            t = (np.abs(y) + c) / scale
            # the two-sided bound integrates to eps; nu = bound / eps
            return np.exp(-0.5 * t * t) / (
                scale * math.sqrt(2 * math.pi)) / eps
    elif law.family == randkit.PARETO:
        if a < 0:
            raise UnsupportedCaseError(
                "one-sided innovations need a nonnegative coefficient")
        alpha = law.alpha
        c = a * m_bound
        lo = scale + 2.0 * c
        eps = (lo / scale) ** (-alpha)

        def nu_sampler(stream):
            u = 1.0 - float(stream.rng.random())
            return lo * u ** (-1.0 / alpha) - c

        def transition_density(x, y):
            z = y - a * x
            return np.where(z < scale, 0.0, alpha / scale * (
                np.maximum(z, scale) / scale) ** (-alpha - 1.0))

        def nu_density(y):
            z = np.maximum(y + c, lo)
            return np.where(y < scale + c, 0.0, alpha / scale * (
                z / scale) ** (-alpha - 1.0) / eps)
    else:
        raise UnsupportedCaseError(
            f"no split construction for {law.family} innovations")
    if not 0.0 < eps <= 1.0:
        raise MinorizationInvalidError(
            f"derived epsilon {eps:.3g} outside (0, 1]")
    return MinorizationSpec(epsilon=eps,
                            nu_sampler=nu_sampler,
                            transition_density=transition_density,
                            nu_density=nu_density, m_bound=m_bound,
                            heuristic=heuristic)


def make_iid_minorization(law: TailLaw) -> MinorizationSpec:
    """Whole-space atom for an iid chain: epsilon = 1, nu = the law
    itself; every step regenerates and cycles have length 1."""
    def nu_sampler(stream):
        return float(randkit.sample_law(stream, law, 1)[0])

    return MinorizationSpec(epsilon=1.0, nu_sampler=nu_sampler)


# ---------------------------------------------------------------------------
# the split chain


def harvest_blocks(spec, minorization: MinorizationSpec, n: int,
                   stream: RngStream) -> RegenBlocks:
    """Simulate the scalar linear chain n steps from a regeneration (the
    first state is a nu draw) and mark regenerations retrospectively
    (Mykland, Tierney & Yu 1995): after a small-set state x_t, time t+1
    regenerates with probability epsilon nu(x_{t+1}) / p(x_t, x_{t+1}).
    The split chain built this way has the law of Nummelin's, so the
    cycles between regenerations are iid. Records the block
    decomposition of S_n.

    The innovations are drawn into the path's own buffer and filtered
    there; the marks are found ``_BLOCK`` steps at a time, each block
    drawing its slice of the regeneration uniforms (one word per step, so
    the stream does not depend on the block), so the harvest holds the
    path, the cycles and one block."""
    a, law = spec.linear_step()
    if n < 1:
        raise ParameterError("n must be at least 1")
    draws = np.empty((1, n))
    draws[0, 0] = minorization.nu_sampler(stream)
    randkit.sample_law(stream, law, n - 1, out=draws[0, 1:])
    path = models._ar1(draws, a)[0]
    eps = minorization.epsilon
    starts = [np.zeros(1, dtype=np.int64)]
    bad, first = 0, None
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        u = stream.rng.random(hi - lo)
        t = lo + np.flatnonzero(np.abs(path[lo:hi]) <= minorization.m_bound)
        ratio = 1.0
        if eps != 1.0:
            x, y = path[t], path[t + 1]
            p = minorization.transition_density(x, y)
            g = eps * minorization.nu_density(y)
            wrong = np.flatnonzero((p <= 0.0) | (g > p * (1.0 + 1e-9)))
            if wrong.size and first is None:
                first = x[wrong[0]], y[wrong[0]]
            bad += wrong.size
            if bad:
                continue
            ratio = g / p
        starts.append(t[u[t - lo] < ratio] + 1)
    if bad:
        raise MinorizationInvalidError(
            f"minorizing bound exceeds the transition density at "
            f"{bad} small-set step(s), first x={first[0]:.6g} -> "
            f"y={first[1]:.6g}; epsilon too large for this small set")
    starts = np.concatenate(starts)
    segments = np.add.reduceat(path, starts)
    # S_n as a chronological left fold of the complete blocks and the tail
    return RegenBlocks(cycle_starts=starts, block_sums=segments[:-1],
                       tail_sum=segments[-1], total=_left_fold(segments),
                       path=path, n=n)


# ---------------------------------------------------------------------------
# cycle diagnostics


def kac_check(blocks: RegenBlocks, pi_a_estimate: float) -> KacReport:
    """Mean cycle length against 1/pi(atom), with a geometric-rate fit of
    the cycle-length tail."""
    if blocks.n_cycles < 30:
        raise InsufficientCyclesError(
            f"{blocks.n_cycles} cycles; need at least 30")
    if not 0.0 < pi_a_estimate <= 1.0:
        raise ParameterError("pi_a_estimate must lie in (0, 1]")
    starts, k = blocks.cycle_starts, blocks.n_cycles
    # cycles of length at most l, l = 0, ..., max L, in one counting pass
    counts = np.cumsum(np.bincount(np.diff(starts)))
    # the lengths are integers, so their sum is exact in any order
    mean_len = float(starts[-1] - starts[0]) / k
    # np.std(ddof=1) of the lengths, in one cycle-sized buffer
    dev = np.subtract(starts[1:], starts[:-1], dtype=float)
    dev -= mean_len
    dev *= dev
    se = math.sqrt(dev.sum() / (k - 1)) / math.sqrt(k)
    expected = 1.0 / pi_a_estimate
    z = (mean_len - expected) / se if se > 0 else \
        (0.0 if mean_len == expected else math.inf)
    ks = np.arange(1, counts.size)
    surv = (k - counts[1:]) / k
    keep = surv > 0
    if keep.sum() >= 2:
        slope = np.polyfit(ks[keep], np.log(surv[keep]), 1)[0]
        rate = float(-slope)
    else:
        rate = math.inf
    return KacReport(mean_length=mean_len, expected_length=expected,
                     z_score=float(z), passed=abs(z) <= 3.0,
                     geometric_rate=rate)


def stationary_small_set_mass(path, m_bound: float) -> float:
    """Empirical stationary mass of {|x| <= M} from a 1-d path of scalar
    states, counted ``_BLOCK`` states at a time (an integer count is exact
    in any block size)."""
    values = np.asarray(path, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError(
            "path must be a 1-d array of at least one state (got shape "
            f"{values.shape})")
    if not m_bound > 0:
        raise ParameterError(f"m_bound must be positive (got {m_bound!r})")
    inside = 0
    for lo in range(0, values.size, _BLOCK):
        block = values[lo:lo + _BLOCK]
        inside += int(np.count_nonzero(np.abs(block) <= m_bound))
    return inside / values.size
