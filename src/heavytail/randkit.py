"""Reproducible random streams and heavy-tailed samplers.

Streams are SFC64 generators seeded by numpy's SeedSequence over
(master_seed, stream_id): the output sequence is a pure function of that
key and of the number of words drawn, so parallel work can be assigned
distinct stream ids and reduced in any fixed order without affecting
results. Distinct keys give non-overlapping streams with overwhelming
probability (SeedSequence hashes the key into a 192-bit start state), not
by construction as a counter-based generator would.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import contextvars
from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .errors import ParameterError, UnsupportedLawError

_MASK64 = (1 << 64) - 1
_SFC64_SEEDED_COUNT = 13  # SFC64 seeding runs 12 rounds past a count of 1

PARETO = "pareto"
SYMMETRIC_PARETO = "symmetric_pareto"
STABLE = "stable"
LOGNORMAL = "lognormal"
GAUSSIAN = "gaussian"
_FAMILIES = (PARETO, SYMMETRIC_PARETO, STABLE, LOGNORMAL, GAUSSIAN)


def _splitmix64(z: int) -> int:
    """One SplitMix64 step; used to mix child ids into fresh stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """A random stream keyed by (master_seed, stream_id).

    The same key reproduces the identical sequence on every platform;
    distinct keys give independent streams with overwhelming probability.
    ``rng`` is a numpy Generator over an SFC64 bit generator seeded by
    ``SeedSequence([master_seed, stream_id])``.
    """

    master_seed: int
    stream_id: int
    rng: np.random.Generator = field(repr=False)

    @property
    def counter(self) -> int:
        """Number of 64-bit words drawn so far: SFC64's fourth state word
        counts its outputs, and seeding leaves it at 13."""
        word = int(self.rng.bit_generator.state["state"]["state"][3])
        return (word - _SFC64_SEEDED_COUNT) & _MASK64

    def substream(self, child_id: int) -> "RngStream":
        """Derive an independent child stream with a mixed-in id.

        Used for fixed-size replica chunks so that results never depend on
        how chunks are scheduled across workers.
        """
        mixed = _splitmix64((self.stream_id & _MASK64) ^
                            _splitmix64(child_id & _MASK64))
        return derive_stream(self.master_seed, mixed)


def derive_stream(master_seed: int, stream_id: int) -> RngStream:
    """Create the stream keyed by (master_seed, stream_id), counter at 0."""
    key = [master_seed & _MASK64, stream_id & _MASK64]
    bg = np.random.SFC64(np.random.SeedSequence(key))
    return RngStream(key[0], key[1], np.random.Generator(bg))


def map_chunks(fn, total: int, size: int, stream: RngStream, threads: int):
    """fn(take, stream.substream(i)) for each chunk i of ``total`` units
    cut into ``size``-unit chunks (the last takes the rest), in index
    order on any number of threads: a reduction over the results does
    not depend on ``threads``. Each call runs in a copy of the caller's
    context, which carries its numpy floating-point error state."""
    calls = [functools.partial(fn, min(size, total - lo), stream.substream(i))
             for i, lo in enumerate(range(0, total, size))]
    if threads <= 1 or len(calls) <= 1:
        return [call() for call in calls]
    ctx = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda call: ctx.copy().run(call), calls))


@dataclass(frozen=True)
class TailLaw:
    """A univariate innovation law with (for the power families) tail index
    alpha and scale.

    families:
      pareto            P(X > x) = (x/scale)^(-alpha), x >= scale
      symmetric_pareto  |X| as above, sign uniform
      stable            standard alpha-stable (scale multiplies), skew in use
      lognormal         log X ~ N(mu, sigma^2); alpha unused (no power tail)
      gaussian          N(0, scale^2); alpha unused
    """

    family: str
    alpha: float = 1.0
    scale: float = 1.0
    skew: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown law family {self.family!r}")
        if not self.alpha > 0:
            raise ParameterError("alpha must be positive")
        if self.family == STABLE and not self.alpha <= 2:
            raise ParameterError("stable law requires 0 < alpha <= 2")
        if not self.scale > 0:
            raise ParameterError("scale must be positive")
        if not -1.0 <= self.skew <= 1.0:
            raise ParameterError("skew must lie in [-1, 1]")
        if self.family == LOGNORMAL and not self.sigma > 0:
            raise ParameterError("lognormal sigma must be positive")


def sample_pareto(stream: RngStream, alpha: float, n: int,
                  out: np.ndarray = None) -> np.ndarray:
    """n unit-scale Pareto(alpha) draws by exact inversion (into ``out``).

    Uses the closed uniform 1 - U in (0, 1] so the sampler never divides
    by zero; survival of each draw equals 1 - U exactly. One buffer: the
    uniforms become the draws in place. ``**=`` keeps numpy's scalar-power
    fast paths, so the bytes are those of ``(1 - U) ** (-1 / alpha)``.
    A draw past the largest double (alpha below 53/1024) is a quiet inf
    that the path checks name."""
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    u = stream.rng.random(n, out=out)
    np.subtract(1.0, u, out=u)
    with np.errstate(over="ignore"):
        u **= -1.0 / alpha
    return u


def sample_stable(stream: RngStream, alpha: float, beta: float,
                  n: int) -> np.ndarray:
    """n standard alpha-stable draws (1-parameterization) via the
    Chambers-Mallows-Stuck transform of (uniform angle, exponential):
    each draw reads a pair of uniforms (U, V), the angle (U - 1/2) pi and
    the exponential -log(1 - V), so k then n - k draws give n's bytes."""
    if not 0 < alpha <= 2:
        raise ParameterError("stable sampling requires 0 < alpha <= 2")
    if not -1.0 <= beta <= 1.0:
        raise ParameterError("skew must lie in [-1, 1]")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    u = stream.rng.random((n, 2))
    phi = (u[:, 0] - 0.5) * np.pi
    w = -np.log(1.0 - u[:, 1])
    if alpha == 1.0:
        half = np.pi / 2
        return (2 / np.pi) * ((half + beta * phi) * np.tan(phi)
                              - beta * np.log((half * w * np.cos(phi))
                                              / (half + beta * phi)))
    t = beta * math.tan(math.pi * alpha / 2)
    b0 = math.atan(t) / alpha
    s0 = (1 + t * t) ** (1 / (2 * alpha))
    # s0 sin(c) / cos(phi)^(1/a) (cos(phi - c) / w)^((1-a)/a), c = a (phi + b0)
    c = phi + b0
    c *= alpha
    x = np.sin(c)
    np.subtract(phi, c, out=c)
    np.cos(c, out=c)
    c /= w
    c **= (1 - alpha) / alpha
    np.cos(phi, out=phi)
    phi **= 1 / alpha
    x *= s0
    x /= phi
    x *= c
    return x


def sample_law(stream: RngStream, law: TailLaw, n: int,
               out: np.ndarray = None) -> np.ndarray:
    """n draws from an innovation law (dispatch over the family). With
    ``out``, n contiguous floats, the draws fill it with the bytes the
    call without it returns. Every family reads the stream one variate
    at a time: k then n - k draws on one stream give n draws' bytes."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    rng = stream.rng
    # every family but the stable one transforms its variates in place
    if law.family == PARETO:
        x = sample_pareto(stream, law.alpha, n, out)
        x *= law.scale
        return x
    if law.family == SYMMETRIC_PARETO:
        # sign of U - 1/2, survival 1 - frac(2U) in (0, 1]: exact, finite
        u = rng.random(n, out=out)
        sign = u - 0.5
        u *= 2.0
        u -= np.floor(u)
        np.subtract(1.0, u, out=u)
        with np.errstate(over="ignore"):
            u **= -1.0 / law.alpha
        u *= law.scale
        return np.copysign(u, sign, out=u)
    if law.family == STABLE:
        return np.multiply(law.scale, sample_stable(
            stream, law.alpha, law.skew, n), out=out)
    if law.family == LOGNORMAL:
        x = rng.standard_normal(n, out=out)
        x *= law.sigma
        x += law.mu
        return np.exp(x, out=x)
    if law.family == GAUSSIAN:
        x = rng.standard_normal(n, out=out)
        x *= law.scale
        return x
    raise UnsupportedLawError(law.family)


def stable_tail_constant(alpha: float) -> float:
    """C_alpha = (1-alpha)/(Gamma(2-alpha) cos(pi alpha/2)); C_1 = 2/pi.

    For a standard alpha-stable variable, P(|X| > x) ~ C_alpha x^(-alpha).
    """
    if not 0 < alpha < 2:
        raise ParameterError("tail constant defined for 0 < alpha < 2")
    if alpha == 1.0:
        return 2.0 / math.pi
    return (1 - alpha) / (math.gamma(2 - alpha)
                          * math.cos(math.pi * alpha / 2))


def power_tail(law: TailLaw) -> tuple[float, float]:
    """(c, alpha) with P(|X| > x) ~ c (x/scale)^(-alpha): the one table
    of regularly varying families (Pareto: exact with c = 1; stable with
    alpha < 2: c = C_alpha)."""
    if law.family in (PARETO, SYMMETRIC_PARETO):
        return 1.0, law.alpha
    if law.family == STABLE and law.alpha < 2:
        return stable_tail_constant(law.alpha), law.alpha
    raise UnsupportedLawError(
        f"{law.family} (alpha {law.alpha:g}) is not regularly varying: "
        "no power tail")


def tail_balance(law: TailLaw) -> tuple[float, float]:
    """Limit split (P(X>x), P(X<-x)) / P(|X|>x) for a regularly varying
    law."""
    if law.family == PARETO:
        return 1.0, 0.0
    if law.family == SYMMETRIC_PARETO:
        return 0.5, 0.5
    power_tail(law)  # raises unless the law is stable with alpha < 2
    return (1.0 + law.skew) / 2.0, (1.0 - law.skew) / 2.0


def law_mean(law: TailLaw) -> float:
    """Exact mean of the law (where defined and finite)."""
    if law.family in (PARETO, LOGNORMAL):
        mean = law_moment(law, 1.0)
        if mean == math.inf:
            raise ParameterError(f"{law.family} mean is infinite")
        return mean
    if law.family != GAUSSIAN and law.alpha <= 1:
        raise ParameterError(f"{law.family} mean requires alpha > 1")
    # symmetric laws, and stable with location 0 in the parameterization
    # used here
    return 0.0


def law_log_mean(law: TailLaw) -> float:
    """E log X for the positive families (lognormal and Pareto)."""
    if law.family == LOGNORMAL:
        return law.mu
    if law.family == PARETO:
        # log X ~ log scale + Exp(alpha)
        return math.log(law.scale) + 1.0 / law.alpha
    raise UnsupportedLawError(f"{law.family} is not a positive family")


def law_moment(law: TailLaw, kappa):
    """E X^kappa (kappa >= 0) for the positive families: Pareto
    alpha scale^kappa / (alpha - kappa), lognormal
    exp(kappa mu + kappa^2 sigma^2 / 2); +inf where the moment diverges
    or overflows a double. An array of kappa gives the moments entry by
    entry in one numpy call; a float goes through ``math``."""
    if np.ndim(kappa):
        k = np.asarray(kappa, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            if law.family == LOGNORMAL:
                return np.exp(k * law.mu + k ** 2 * law.sigma ** 2 / 2.0)
            if law.family == PARETO:
                return np.where(k < law.alpha, law.alpha * law.scale ** k
                                / (law.alpha - k), np.inf)
        raise UnsupportedLawError(f"{law.family} is not a positive family")
    try:
        if law.family == LOGNORMAL:
            return math.exp(kappa * law.mu + kappa ** 2 * law.sigma ** 2 / 2.0)
        if law.family == PARETO:
            if kappa >= law.alpha:
                return math.inf
            return law.alpha * law.scale ** kappa / (law.alpha - kappa)
    except OverflowError:
        return math.inf
    raise UnsupportedLawError(f"{law.family} is not a positive family")
