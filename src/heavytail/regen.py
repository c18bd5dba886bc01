"""Nummelin splitting, regenerative block harvesting, and cycle-level
consistency checks (Kac identity, block angular measure)."""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import ndtri

from .errors import (InsufficientCyclesError, MinorizationInvalidError,
                     NoCyclesError, ParameterError, UnsupportedCaseError)
from . import models, randkit, tailstats
from .randkit import RngStream, TailLaw

_POOL = 1 << 20
_REJECT_GUARD = 1_000_000
_SQRT2 = math.sqrt(2.0)


def _phibar(t: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(t / _SQRT2)


@dataclass
class MinorizationSpec:
    """Minorization p(x, .) >= epsilon nu(.) for x in the small set,
    together with the model transition itself (sampler and density) so
    the split chain can be run without further model knowledge.

    ``m_bound`` is the half-width M of the small set {|x| <= M}; when it
    was chosen by the pilot-quantile heuristic, ``heuristic`` is True.
    """

    small_set: object
    epsilon: float
    nu_sampler: object
    transition_sampler: object = None
    transition_density: object = None
    nu_density: object = None
    m_bound: float = math.inf
    heuristic: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ParameterError("epsilon must lie in (0, 1]")


@dataclass
class RegenBlocks:
    """Split-chain harvest: regeneration times, complete-cycle sums, and
    the exact decomposition S_n = head + sum of blocks + tail.

    ``total`` is S_n accumulated segment-by-segment in chronological
    order; ``reconstruct_total`` refolds the stored pieces in the same
    order, so the identity is exact at the bit level.
    """

    cycle_starts: np.ndarray
    block_sums: np.ndarray
    head_sum: np.ndarray
    tail_sum: np.ndarray
    total: np.ndarray
    path: np.ndarray
    n: int

    def __post_init__(self):
        self.cycle_starts = np.asarray(self.cycle_starts, dtype=np.int64)
        self.block_sums = np.atleast_2d(
            np.asarray(self.block_sums, dtype=float))
        self.head_sum = np.atleast_1d(np.asarray(self.head_sum,
                                                 dtype=float))
        self.tail_sum = np.atleast_1d(np.asarray(self.tail_sum,
                                                 dtype=float))
        self.total = np.atleast_1d(np.asarray(self.total, dtype=float))
        self.path = np.atleast_2d(np.asarray(self.path, dtype=float))
        if self.path.shape[0] < self.path.shape[1]:
            self.path = self.path.T

    @property
    def n_cycles(self) -> int:
        return max(self.cycle_starts.size - 1, 0)

    def cycle_lengths(self) -> np.ndarray:
        return np.diff(self.cycle_starts)

    def reconstruct_total(self) -> np.ndarray:
        """Refold head + blocks + tail in chronological order."""
        acc = np.zeros_like(self.head_sum)
        acc = acc + self.head_sum
        for i in range(self.block_sums.shape[0]):
            acc = acc + self.block_sums[i]
        acc = acc + self.tail_sum
        return acc


@dataclass
class KacReport:
    """Mean cycle length against the Kac prediction 1/pi(atom), plus a
    geometric fit of the cycle-length tail."""

    mean_length: float
    expected_length: float
    se: float
    z_score: float
    passed: bool
    geometric_rate: float
    n_cycles: int


# ---------------------------------------------------------------------------
# minorization constructors


def make_var1_minorization(spec: models.Var1Spec, m_bound: float = None,
                           stream: RngStream = None) -> MinorizationSpec:
    """Split construction for the scalar linear chain.

    Gaussian innovations (any |a| < 1): over {|x| <= M} the transition
    density is bounded below by g(y) = phi((|y| + |a|M)/s)/s, giving
    epsilon = 2 Phibar(|a|M/s) and an inverse-CDF sampler for nu.

    Pareto innovations (0 <= a < 1, scale s): the bound is
    g(y) = f_Z(y + aM) on {y >= s + aM}, epsilon = ((s + 2aM)/s)^(-alpha),
    nu sampled by shifting a truncated Pareto draw.
    """
    if not isinstance(spec, models.Var1Spec) or spec.dim != 1:
        raise UnsupportedCaseError(
            "split construction implemented for the scalar linear chain")
    a = float(spec.a_matrix[0, 0])
    law = spec.innovation
    scale = law.scale * float(spec.weights[0])
    if m_bound is None:
        if stream is None:
            stream = randkit.derive_stream(0x511, 0)
        pilot = models.simulate_path(spec, 100_000, 1_000, stream)
        m_bound = float(np.quantile(np.abs(pilot.values[:, 0]), 0.995))
        heuristic = True
    else:
        heuristic = False
    m_bound = float(m_bound)
    if not m_bound > 0:
        raise ParameterError("m_bound must be positive")

    def small_set(x):
        return abs(float(x)) <= m_bound

    if law.family == randkit.GAUSSIAN:
        c = abs(a) * m_bound
        pb = _phibar(c / scale)
        eps = 2.0 * pb

        def nu_sampler(stream):
            u = float(stream.rng.random())
            y = scale * float(ndtri(1.0 - u * pb)) - c
            return y if stream.rng.random() < 0.5 else -y

        def transition_sampler(x, stream):
            return a * float(x) + scale * float(
                stream.rng.standard_normal())

        def transition_density(x, y):
            z = (float(y) - a * float(x)) / scale
            return math.exp(-0.5 * z * z) / (scale * math.sqrt(2 * math.pi))

        def nu_density(y):
            t = (abs(float(y)) + c) / scale
            # the two-sided bound integrates to eps; nu = bound / eps
            return math.exp(-0.5 * t * t) / (
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

        def transition_sampler(x, stream):
            u = 1.0 - float(stream.rng.random())
            return a * float(x) + scale * u ** (-1.0 / alpha)

        def transition_density(x, y):
            z = float(y) - a * float(x)
            if z < scale:
                return 0.0
            return alpha / scale * (z / scale) ** (-alpha - 1.0)

        def nu_density(y):
            z = float(y) + c
            if float(y) < scale + c:
                return 0.0
            return alpha / scale * (z / scale) ** (-alpha - 1.0) / eps
    else:
        raise UnsupportedCaseError(
            f"no split construction for {law.family} innovations")
    if not 0.0 < eps <= 1.0:
        raise MinorizationInvalidError(
            f"derived epsilon {eps:.3g} outside (0, 1]")
    return MinorizationSpec(small_set=small_set, epsilon=eps,
                            nu_sampler=nu_sampler,
                            transition_sampler=transition_sampler,
                            transition_density=transition_density,
                            nu_density=nu_density, m_bound=m_bound,
                            heuristic=heuristic)


def make_iid_minorization(law: TailLaw) -> MinorizationSpec:
    """Whole-space atom for an iid chain: epsilon = 1, nu = the law
    itself; every step regenerates and cycles have length 1."""
    def small_set(x):
        return True

    def nu_sampler(stream):
        return float(randkit.sample_law(stream, law, 1)[0])

    def transition_sampler(x, stream):
        return nu_sampler(stream)

    return MinorizationSpec(small_set=small_set, epsilon=1.0,
                            nu_sampler=nu_sampler,
                            transition_sampler=transition_sampler,
                            transition_density=None, nu_density=None,
                            m_bound=math.inf, heuristic=False)


# ---------------------------------------------------------------------------
# the split chain


def split_step(state, minorization: MinorizationSpec, stream: RngStream):
    """One transition of the split chain: regenerate from nu with
    probability epsilon on the small set, else draw from the residual
    kernel by rejection against the minorizing bound."""
    eps = minorization.epsilon
    if minorization.small_set(state):
        if float(stream.rng.random()) < eps:
            return minorization.nu_sampler(stream), True
        if minorization.transition_density is None \
                or minorization.nu_density is None:
            raise MinorizationInvalidError(
                "residual sampling needs transition and nu densities")
        for _ in range(_REJECT_GUARD):
            y = minorization.transition_sampler(state, stream)
            p = minorization.transition_density(state, y)
            g = eps * minorization.nu_density(y)
            if p <= 0.0 or g > p * (1.0 + 1e-9):
                raise MinorizationInvalidError(
                    "minorizing bound exceeds the transition density; "
                    "epsilon too large for this small set")
            if float(stream.rng.random()) >= g / p:
                return y, False
        raise MinorizationInvalidError(
            f"residual rejection did not accept within {_REJECT_GUARD} "
            "proposals")
    return minorization.transition_sampler(state, stream), False


class _Bookkeeper:
    """Chronological segment bookkeeping shared by the harvest loops."""

    def __init__(self):
        self.starts = []
        self.blocks = []
        self.head = None
        self.seg = 0.0
        self.total = 0.0

    def step(self, t, x, regenerated):
        if regenerated:
            if self.head is None:
                self.head = self.seg
            else:
                self.blocks.append(self.seg)
            self.total += self.seg
            self.starts.append(t)
            self.seg = 0.0
        self.seg += x

    def finish(self, n, path):
        self.total += self.seg
        if not self.starts:
            raise NoCyclesError(
                "no regenerations observed; increase n or epsilon")
        head = 0.0 if self.head is None else self.head
        return RegenBlocks(cycle_starts=np.array(self.starts),
                           block_sums=np.array(self.blocks).reshape(-1, 1),
                           head_sum=np.array([head]),
                           tail_sum=np.array([self.seg]),
                           total=np.array([self.total]),
                           path=path.reshape(-1, 1), n=n)


def harvest_blocks(spec, minorization: MinorizationSpec, n: int,
                   stream: RngStream) -> RegenBlocks:
    """Run the split chain n steps from a regeneration (the first state
    is a nu draw) and record the block decomposition of S_n."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    fast = _fast_var1_loop(spec, minorization)
    if fast is not None:
        return fast(n, stream)
    book = _Bookkeeper()
    path = np.empty(n)
    x = minorization.nu_sampler(stream)
    book.step(0, float(x), True)
    path[0] = x
    for t in range(1, n):
        x, regen = split_step(x, minorization, stream)
        book.step(t, float(x), regen)
        path[t] = x
    return book.finish(n, path)


def _fast_var1_loop(spec, minorization):
    """Specialized harvest loop for the scalar linear chain with Gaussian
    or Pareto innovations (pooled draws, scalar math)."""
    if not (isinstance(spec, models.Var1Spec) and spec.dim == 1):
        return None
    law = spec.innovation
    if law.family not in (randkit.GAUSSIAN, randkit.PARETO):
        return None
    if not math.isfinite(minorization.m_bound):
        return None
    a = float(spec.a_matrix[0, 0])
    scale = law.scale * float(spec.weights[0])
    m_bound = minorization.m_bound
    eps = minorization.epsilon
    nu_sampler = minorization.nu_sampler
    gaussian = law.family == randkit.GAUSSIAN
    if not gaussian and a < 0:
        return None
    c = abs(a) * m_bound
    inv_alpha = 0.0 if gaussian else 1.0 / law.alpha
    neg_ap1 = 0.0 if gaussian else -(law.alpha + 1.0)

    def run(n, stream):
        rng = stream.rng
        pool_u = rng.random(_POOL)
        pool_z = rng.standard_normal(_POOL) if gaussian else \
            (1.0 - rng.random(_POOL)) ** (-inv_alpha)
        iu = iz = 0
        exp_ = math.exp
        path = np.empty(n)
        book = _Bookkeeper()
        x = float(nu_sampler(stream))
        book.step(0, x, True)
        path[0] = x
        for t in range(1, n):
            if -m_bound <= x <= m_bound:
                if iu == _POOL:
                    pool_u = rng.random(_POOL)
                    iu = 0
                if pool_u[iu] < eps:
                    iu += 1
                    x = float(nu_sampler(stream))
                    book.step(t, x, True)
                    path[t] = x
                    continue
                iu += 1
                ax = a * x
                for _ in range(_REJECT_GUARD):
                    if iz == _POOL:
                        pool_z = rng.standard_normal(_POOL) if gaussian \
                            else (1.0 - rng.random(_POOL)) ** (-inv_alpha)
                        iz = 0
                    z = pool_z[iz]
                    iz += 1
                    y = ax + scale * z
                    if gaussian:
                        t2 = (abs(y) + c) / scale
                        ratio = exp_(0.5 * (z * z - t2 * t2))
                    else:
                        ratio = ((y + c) / (scale * z)) ** neg_ap1 \
                            if y >= scale + c else 0.0
                    if iu == _POOL:
                        pool_u = rng.random(_POOL)
                        iu = 0
                    accept = pool_u[iu] >= ratio
                    iu += 1
                    if accept:
                        x = y
                        break
                else:
                    raise MinorizationInvalidError(
                        "residual rejection did not accept within "
                        f"{_REJECT_GUARD} proposals")
            else:
                if iz == _POOL:
                    pool_z = rng.standard_normal(_POOL) if gaussian \
                        else (1.0 - rng.random(_POOL)) ** (-inv_alpha)
                    iz = 0
                x = a * x + scale * pool_z[iz]
                iz += 1
            book.step(t, x, False)
            path[t] = x
        return book.finish(n, path)

    return run


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
    lengths = blocks.cycle_lengths().astype(float)
    mean_len = float(lengths.mean())
    k = lengths.size
    se = float(lengths.std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    expected = 1.0 / pi_a_estimate
    z = (mean_len - expected) / se if se > 0 else \
        (0.0 if mean_len == expected else math.inf)
    ks = np.arange(1, int(lengths.max()) + 1)
    surv = np.array([(lengths > kk).mean() for kk in ks])
    keep = surv > 0
    if keep.sum() >= 2:
        slope = np.polyfit(ks[keep], np.log(surv[keep]), 1)[0]
        rate = float(-slope)
    else:
        rate = math.inf
    return KacReport(mean_length=mean_len, expected_length=expected,
                     se=se, z_score=float(z), passed=abs(z) <= 3.0,
                     geometric_rate=rate, n_cycles=k)


def block_spectral_measure(blocks: RegenBlocks,
                           k: int) -> tailstats.AngularMeasure:
    """Angular measure of the k largest complete-cycle sums."""
    if blocks.n_cycles < 1:
        raise NoCyclesError("no complete cycles")
    return tailstats.angular_measure(blocks.block_sums, k)


def stationary_small_set_mass(path, m_bound: float) -> float:
    """Empirical stationary mass of {|x| <= M} from a path."""
    values = np.atleast_2d(np.asarray(
        getattr(path, "values", path), dtype=float))
    return float((np.linalg.norm(values, axis=1) <= m_bound).mean())
