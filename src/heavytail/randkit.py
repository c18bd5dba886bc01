"""Reproducible random streams and heavy-tailed samplers.

Streams are counter-based (Philox): the output sequence is a pure function of
(master_seed, stream_id, counter), so parallel work can be assigned disjoint
stream ids and reduced in any fixed order without affecting results.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ParameterError, UnsupportedLawError

_MASK64 = (1 << 64) - 1

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
    """A counter-based random stream keyed by (master_seed, stream_id).

    The same key reproduces the identical sequence on every platform;
    distinct stream ids give independent streams by construction of the
    Philox keying. ``rng`` is a numpy Generator over the keyed Philox
    bit generator.
    """

    master_seed: int
    stream_id: int
    rng: np.random.Generator = field(repr=False)

    @property
    def counter(self) -> int:
        """Current 256-bit block counter of the underlying generator."""
        words = self.rng.bit_generator.state["state"]["counter"]
        return sum(int(w) << (64 * i) for i, w in enumerate(words))

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
    key = np.array([master_seed & _MASK64, stream_id & _MASK64],
                   dtype=np.uint64)
    bg = np.random.Philox(key=key)
    return RngStream(master_seed & _MASK64, stream_id & _MASK64,
                     np.random.Generator(bg))


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


def pareto_from_uniform(u, alpha: float):
    """Exact inversion X = u^(-1/alpha): survival(X) = u."""
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    return np.asarray(u, dtype=float) ** (-1.0 / alpha)


def sample_pareto(stream: RngStream, alpha: float, n: int) -> np.ndarray:
    """n unit-scale Pareto(alpha) draws by exact inversion.

    Uses the closed uniform 1 - U in (0, 1] so the sampler never divides
    by zero; survival of each draw equals 1 - U exactly.
    """
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    u = 1.0 - stream.rng.random(n)
    return pareto_from_uniform(u, alpha)


def sample_stable(stream: RngStream, alpha: float, beta: float,
                  n: int) -> np.ndarray:
    """n standard alpha-stable draws (1-parameterization) via the
    Chambers-Mallows-Stuck transform of (uniform angle, exponential)."""
    if not 0 < alpha <= 2:
        raise ParameterError("stable sampling requires 0 < alpha <= 2")
    if not -1.0 <= beta <= 1.0:
        raise ParameterError("skew must lie in [-1, 1]")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    rng = stream.rng
    phi = (rng.random(n) - 0.5) * np.pi
    w = rng.exponential(1.0, n)
    if alpha == 1.0:
        half = np.pi / 2
        return (2 / np.pi) * ((half + beta * phi) * np.tan(phi)
                              - beta * np.log((half * w * np.cos(phi))
                                              / (half + beta * phi)))
    t = beta * math.tan(math.pi * alpha / 2)
    b0 = math.atan(t) / alpha
    s0 = (1 + t * t) ** (1 / (2 * alpha))
    return (s0 * np.sin(alpha * (phi + b0)) / np.cos(phi) ** (1 / alpha)
            * (np.cos(phi - alpha * (phi + b0)) / w) ** ((1 - alpha) / alpha))


def sample_law(stream: RngStream, law: TailLaw, n: int) -> np.ndarray:
    """n draws from an innovation law (dispatch over the family)."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    rng = stream.rng
    if law.family == PARETO:
        return law.scale * sample_pareto(stream, law.alpha, n)
    if law.family == SYMMETRIC_PARETO:
        mag = law.scale * sample_pareto(stream, law.alpha, n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag
    if law.family == STABLE:
        return law.scale * sample_stable(stream, law.alpha, law.skew, n)
    if law.family == LOGNORMAL:
        x = rng.standard_normal(n)  # one buffer: scale, shift, exp in place
        x *= law.sigma
        x += law.mu
        return np.exp(x, out=x)
    if law.family == GAUSSIAN:
        return law.scale * rng.standard_normal(n)
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


def law_survival(law: TailLaw, x) -> np.ndarray:
    """P(|X| > x) from the power tail: exact for the Pareto families, the
    regular-variation equivalent for stable with alpha < 2."""
    c, alpha = power_tail(law)
    x = np.asarray(x, dtype=float)
    return np.minimum(1.0, c * (x / law.scale) ** (-alpha))


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


def law_moment(law: TailLaw, kappa: float) -> float:
    """E X^kappa (kappa >= 0) for the positive families: Pareto
    alpha scale^kappa / (alpha - kappa), lognormal
    exp(kappa mu + kappa^2 sigma^2 / 2); +inf where the moment diverges
    or overflows a double."""
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
