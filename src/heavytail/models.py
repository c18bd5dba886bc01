"""Model families: linear autoregression, scalar stochastic recurrence
(Kesten), GARCH(1,1); their path simulators, spectral-tail-process
samplers, moment-equation tail indices, and drift-condition diagnostics.

Each family is a spec class that answers, for itself, the questions every
route asks of a model (``ModelSpec``). The module-level functions keep the
shared argument checks and delegate to the spec.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import (DivergenceError, NoRootError, OutOfRegimeError,
                     ParameterError, SingularDrawError, UnsupportedCaseError,
                     UnsupportedLawError)
from . import randkit
from .randkit import RngStream, TailLaw, sample_law

# child-stream tags: tail-process angles and the stationary pilot
_ANGLE_CHILD = 0x7A17
_PILOT_CHILD = 0x7A19

_BLOWUP = 1e280
_RESTART = 60  # Krylov vectors of the lattice solve: 0.9 MB on the bench law
_SOLVE_TOL = 1e-10  # the lattice solve's first stop, relative to E g
# path sums and tail processes draw and reduce in blocks that stay in a
# core's L2 cache
_SUM_BLOCK = 1 << 16  # floats of draws per block: linear-chain sums
_RECURSION_BLOCK = 256  # recurrence replicas per block
_STEP_BLOCK = 64  # volatility-recursion steps drawn per block
_TAIL_BLOCK = 512  # tail-process replicas per block

_POSITIVE_FAMILIES = (randkit.PARETO, randkit.LOGNORMAL)
_SYMMETRIC_FAMILIES = (randkit.SYMMETRIC_PARETO, randkit.GAUSSIAN)


# ---------------------------------------------------------------------------
# model specifications


class ModelSpec:
    """What every route needs from a model family.

    A family provides ``dim`` (the dimension of the observable X_t) and
    the methods ``tail_index()`` (solved once a spec, into ``alpha``),
    ``theta0_law()`` (the (k, d) unit atoms of Theta_0 and their k
    masses), ``paths(n, burn_in, replicas, stream)`` returning
    (replicas, n, dim) stationary-regime paths, ``sums`` (the (replicas,)
    partial sums S_n of a scalar observable on the same draws),
    ``tail_process(horizon, replicas, stream, tv)``, ``stationary_mean()``
    (the exact mean vector, asked only at alpha > 1),
    ``conditional_states(y, reps, stream)`` for the one-step drift fit, and
    ``default_burn``, the warm-up of the pilot and the limit-theorem
    scans, derived from the family's own contraction rate. The defaults
    below cover the common case.

    ``tail_process`` yields the spectral tail process (Theta_0, ...,
    Theta_T) of ``replicas`` paths in blocks of at most ``_TAIL_BLOCK``
    consecutive replicas, in replica order. It draws Theta_0 for all
    replicas first and the rest block by block, with the bytes of one
    draw over all of them. For a block of m replicas it yields one array:
    the (m, horizon+1) projection theta'Theta_t on the direction vector
    ``tv``, with the bits of the matrix product of the block's
    (m, horizon+1, d) angles with theta, or for None those angles
    themselves. No array spans more than one block, apart from Theta_0.
    The tail process is that of X itself, so d is ``dim``.
    """

    @functools.cached_property
    def alpha(self) -> float:
        """The chain's tail index, ``tail_index()`` solved on first use:
        every route and hook reads it here."""
        return self.tail_index()

    @functools.cached_property
    def _theta0_atoms(self):
        """``theta0_law``, built on first use: the law depends on the spec
        alone, and the routes draw Theta_0 once per chunk."""
        return self.theta0_law()

    def theta0(self, replicas: int, stream: RngStream) -> np.ndarray:
        """(replicas, d) draws of Theta_0 from ``theta0_law``: one uniform
        per replica inverts the CDF over the atoms in the law's order; a
        one-atom law takes no draws."""
        atoms, weights = self._theta0_atoms
        if weights.size == 1:
            return np.repeat(atoms, replicas, axis=0)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        idx = np.searchsorted(cdf, stream.rng.random(replicas), side="right")
        return atoms[np.minimum(idx, weights.size - 1)]

    def exact_cluster_index(self, tv: np.ndarray):
        """(b(theta), error bound) at the direction vector ``tv`` when the
        family computes it with no draws; None otherwise."""
        return None

    def exact_extremal_index(self, tv: np.ndarray):
        """The sup functional at ``tv`` as ``exact_cluster_index`` gives b."""
        return None

    def tail_moments(self, tv: np.ndarray, s: float, horizon: int):
        """E sum_{t=1}^{horizon} (tv'Theta_t)_+^s, when the family knows
        it exactly; None otherwise."""
        return None

    def first_step_values(self, horizon, replicas, stream):
        """(replicas,) per-path values whose mean is b(1) = b(-1) of a
        scalar observable with no closed form, from its first step."""
        raise UnsupportedCaseError(
            f"no first-step cluster index for {type(self).__name__}")

    def tail_constant(self):
        """(c, scale) with P(|X| > x) ~ c (x/scale)^(-alpha) when the
        stationary tail follows analytically; None otherwise."""
        return None

    def linear_step(self):
        """(a, innovation) of the scalar linear chain X_t = a X_{t-1} + Z_t
        with Z_t from ``innovation``."""
        raise UnsupportedCaseError(
            f"{type(self).__name__} of dimension {self.dim} is not the "
            "scalar linear chain")

    def drift_setup(self, alpha):
        """(p, grid) for the drift check given the tail index ``alpha``
        (None when unknown): p stays strictly below it so the fitted
        moments exist."""
        p = min(0.8 * (alpha or 1.25), 1.0)
        return p, [np.full(self.dim, x) for x in np.geomspace(0.5, 32.0, 7)]


@dataclass(eq=False)
class Var1Spec(ModelSpec):
    """Linear recursion X_t = A X_{t-1} + Z_t with a fixed d x d
    coefficient matrix A, which sets ``dim`` = d.

    ``innovation`` applies per coordinate. The default burn-in is the
    smallest b with ||A^b||_2 <= 2^-53: a path started at zero has then
    forgotten its start to double precision.
    """

    innovation: TailLaw
    a_matrix: np.ndarray | float

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise ParameterError(
                f"a_matrix must be a non-empty square matrix, got shape "
                f"{a.shape}")
        self.a_matrix, self.dim = a, len(a)
        if _spectral_radius(a) >= 1.0:
            raise ParameterError(
                "spectral radius of a_matrix must be below 1")
        self.default_burn = _contraction_burn(a)

    def tail_index(self) -> float:
        return randkit.power_tail(self.innovation)[1]

    def paths(self, n, burn_in, replicas, stream):
        d = self.dim
        total = n + burn_in
        if d == 1:
            a = float(self.a_matrix[0, 0])
            z = sample_law(stream, self.innovation, replicas * total)
            # one in-place scan; rows then move down over their burn-in
            x = _ar1(z.reshape(replicas, total), a)[:, burn_in:]
            if replicas > 1 and burn_in:
                for i in range(replicas):
                    z[i * n:(i + 1) * n] = x[i]
                x = z[:replicas * n].reshape(replicas, n)
            _check_finite(x, "spectral radius below 1")
            return x[..., None]
        z = sample_law(stream, self.innovation,
                       replicas * total * d).reshape(replicas, total, d)
        out = np.empty((replicas, n, d))
        x = np.zeros((replicas, d, 1))
        for t in range(total):
            # a matrix-vector product per replica: bits fixed per replica
            x = np.matmul(self.a_matrix, x) + z[:, t, :, None]
            if t >= burn_in:
                out[:, t - burn_in] = x[..., 0]
        _check_finite(out, "spectral radius below 1")
        return out

    def sums(self, n, burn_in, replicas, stream):
        """Scalar chain: S_n as one weighted sum of the innovations, on the
        draws of ``paths``. Z_s enters every observed X_t with t >= s as
        a^(t-s) Z_s, so its weight is a geometric sum: a^(burn-s)
        (1-a^n)/(1-a) for a burn-in step, (1-a^(n+burn-s))/(1-a) for an
        observed one. Each ``_block_bounds`` block of about ``_SUM_BLOCK``
        floats of innovations is one ``sample_law`` call, with the bytes
        of one draw over the batch, reduced at once: the sums hold one
        cache-sized block. ``einsum`` keeps each row's bits independent of
        a batch of two rows or more (a BLAS matrix-vector product does
        not), so a block holds two rows at least."""
        if self.dim != 1:
            raise ParameterError("path sums are scalar-only")
        a = float(self.a_matrix[0, 0])
        total = n + burn_in
        head = a ** np.arange(burn_in, 0, -1) * (1.0 - a ** n)
        tail = 1.0 - a ** np.arange(n, 0, -1)
        w = np.concatenate([head, tail]) * (1.0 / (1.0 - a))
        sums = np.empty(replicas)
        rows = max(2, _SUM_BLOCK // max(total, 1))
        for lo, hi in _block_bounds(replicas, rows):
            z = sample_law(stream, self.innovation, (hi - lo) * total)
            np.einsum("ij,j->i", z.reshape(hi - lo, total), w,
                      out=sums[lo:hi])
        # a finite sum of finite weights proves every term finite
        _check_finite(sums, "spectral radius below 1")
        return sums

    def theta0_law(self):
        """Exact: one big innovation at lag j in coordinate i puts Theta_0
        at +-A^j e_i / |A^j e_i| with weight p+- |A^j e_i|^alpha
        (Davis & Resnick 1985). Terms below 1e-17 of the largest weight are
        dropped. The series stops before the first lag J with
        ||A^J||_2^alpha <= 1e-17: a lag j >= J weighs at most
        1e-17 ||A^(j-J)||_2^alpha of the largest weight, so none passes
        when ||A^k||_2 <= 1 for every k. Below alpha = 0.055 that bound
        underflows, and the least subnormal takes its place: past it A^j
        is zero to double precision."""
        alpha = self.alpha
        p_up, p_dn = randkit.tail_balance(self.innovation)
        cut = _contraction_burn(self.a_matrix,
                                max(10.0 ** (-17.0 / alpha), 5e-324))
        powers = [np.eye(self.dim)]
        for _ in range(1, cut):
            powers.append(self.a_matrix @ powers[-1])
        # rows in (j, i, sign) order: A^j e_i is column i of A^j
        cols = np.stack(powers).transpose(0, 2, 1).reshape(-1, self.dim)
        vecs = np.stack([cols, -cols], axis=1).reshape(-1, self.dim)
        balance = np.tile([p_up, p_dn], cols.shape[0])
        # divide by the largest entry before the norm: the square of an
        # entry below 1e-154 underflows, and the atom would leave the sphere
        big = np.abs(vecs).max(axis=1)
        live = big > 0
        units = vecs[live] / big[live, None]
        norms = np.linalg.norm(units, axis=1)
        weights = balance[live] * (big[live] * norms) ** alpha
        keep = weights >= 1e-17 * weights.max()
        weights = weights[keep]
        # atoms equal to 12 decimals merge, in first-seen order
        merged = {}
        for row, w in zip(units[keep] / norms[keep, None], weights):
            key = tuple(np.round(row, 12))
            if key in merged:
                merged[key][1] += w
            else:
                merged[key] = [row, w]
        atoms = np.array([row for row, _ in merged.values()])
        mass = np.array([w for _, w in merged.values()])
        return atoms, mass / np.sum(weights)

    def tail_process(self, horizon, replicas, stream, tv):
        """Theta_t = A^t Theta_0, one matrix product a step on each
        block's rows. A product of two rows or more has the bits of the
        whole chunk's (a lone row is never a block of its own)."""
        starts = self.theta0(replicas, stream)
        for lo, hi in _block_bounds(replicas):
            cur = starts[lo:hi]
            theta = np.empty((hi - lo, horizon + 1, self.dim))
            theta[:, 0] = cur
            for t in range(1, horizon + 1):
                cur = cur @ self.a_matrix.T
                theta[:, t] = cur
            yield theta if tv is None else theta @ tv

    def exact_cluster_index(self, tv):
        """sum_k w_k [(theta'(I-A)^{-1} a_k)_+^alpha
        - (theta'A(I-A)^{-1} a_k)_+^alpha] over the Theta_0 atoms a_k and
        their weights w_k: Theta_t = A^t Theta_0 sums to (I-A)^{-1} Theta_0.
        No draws, so the bound is 0 (SingularDrawError for an
        ill-conditioned I - A)."""
        if tv.size != self.dim:
            raise ParameterError("direction dimension mismatch")
        m = np.eye(self.dim) - self.a_matrix
        cond = np.linalg.cond(m)
        if cond > 1e12:
            raise SingularDrawError(
                f"(I - A) has condition number {cond:.3g}, above 1e12")
        lead = np.linalg.solve(m.T, tv)
        (atoms, weights), alpha = self._theta0_atoms, self.alpha
        terms = np.maximum(atoms @ lead, 0.0) ** alpha \
            - np.maximum(atoms @ (self.a_matrix.T @ lead), 0.0) ** alpha
        # over the weights' own sum, as ``theta0`` divides its CDF
        return float(weights @ terms / weights.sum()), 0.0

    def exact_extremal_index(self, tv):
        """``exact_cluster_index``'s sum with the sups over t >= 0 and
        t >= 1 of theta'A^t a_k for its two sums, run along each orbit
        until no later term can move: once ||A^t||_2 <= 1, every later
        |theta'A^u a_k| <= ||A^t||_2 max_{v<=t} ||A^v||_2, and an orbit is
        done when theta'a_k is at most its running sup (or 0) or that
        bound is at most the running sup or 2^(-53/alpha) theta'a_k."""
        if tv.size != self.dim:
            raise ParameterError("direction dimension mismatch")
        (atoms, weights), alpha = self._theta0_atoms, self.alpha
        head, power, most = atoms @ tv, np.eye(self.dim), 1.0
        sup = np.full(head.shape, -np.inf)
        floor = np.maximum(head, 0.0) * 2.0 ** (-53.0 / alpha)
        while True:
            atoms, power = atoms @ self.a_matrix.T, self.a_matrix @ power
            sup, norm = np.maximum(sup, atoms @ tv), np.linalg.norm(power, 2)
            most = max(most, norm)
            if norm <= 1.0 and np.all((head <= np.maximum(sup, 0.0)) | (
                    norm * most <= np.maximum(sup, floor))):
                break
        terms = np.maximum(head, sup).clip(0.0) ** alpha \
            - sup.clip(0.0) ** alpha
        return float(weights @ terms / weights.sum()), 0.0

    def stationary_mean(self):
        """(I - A)^{-1} E Z, asked only at alpha > 1: the innovation's
        power tail then has a finite mean."""
        return np.linalg.solve(np.eye(self.dim) - self.a_matrix, np.full(
            self.dim, randkit.law_mean(self.innovation)))

    def tail_constant(self):
        if self.dim != 1:
            return None
        try:
            base, alpha = randkit.power_tail(self.innovation)
        except UnsupportedLawError:
            return None
        a = abs(float(self.a_matrix[0, 0]))
        return base / (1.0 - a ** alpha), self.innovation.scale

    def linear_step(self):
        if self.dim != 1:
            return super().linear_step()
        return float(self.a_matrix[0, 0]), self.innovation

    def conditional_states(self, y, reps, stream):
        d = self.dim
        z = sample_law(stream, self.innovation, reps * d).reshape(reps, d)
        return np.tile(y, (reps, 1)) @ self.a_matrix.T + z


@dataclass(eq=False)
class KestenSpec(ModelSpec):
    """Scalar stochastic recurrence X_t = A_t X_{t-1} + B_t with iid
    multipliers from ``a_law`` (Pareto or lognormal, so the moment
    equation E A^kappa = 1 is exact) and additive terms from ``b_law``."""

    a_law: TailLaw
    b_law: TailLaw

    dim = 1

    def __post_init__(self):
        if self.a_law.family not in _POSITIVE_FAMILIES:
            raise ParameterError(
                f"multiplier law must be pareto or lognormal, got "
                f"{self.a_law.family}")
        if randkit.law_log_mean(self.a_law) >= 0.0:
            raise ParameterError(
                "multiplier law must have negative log-mean "
                "(contraction on average)")

    def tail_index(self) -> float:
        """The moment-equation root. An additive law with a power tail of
        index at or below it would set X's index (Grey 1994):
        ParameterError, naming both."""
        alpha = _solve_moment_equation(lambda k: self._a_moment(k) - 1.0)
        try:
            b_alpha = randkit.power_tail(self.b_law)[1]
        except UnsupportedLawError:
            return alpha
        if b_alpha <= alpha:
            raise ParameterError(f"additive tail index {b_alpha:g} is at or "
                                 f"below the chain's index {alpha:g}")
        return alpha

    def _a_moment(self, s):
        return randkit.law_moment(self.a_law, s)

    @functools.cached_property
    def default_burn(self) -> int:
        """Warm-up, set on first use: the moment horizon over s in
        (0, min(1, alpha)], where E|X|^s is finite. A path started at 0
        differs from the stationary one on the same draws by
        A_1 ... A_T X_0, whose s-th moment is (E A^s)^T E|X_0|^s."""
        return _moment_horizon(self._a_moment, 0.0, min(self.alpha, 1.0))

    def _blocks(self, n, burn_in, replicas, stream):
        """Yield (lo, x): the (m, n) observed steps of replicas lo .. lo+m-1,
        ``_RECURSION_BLOCK`` replicas at a time, in one buffer that the
        next block overwrites. Each block draws its multipliers, then its
        additive terms, so no more than one block's draws are held."""
        total = n + burn_in
        out = np.empty((min(replicas, _RECURSION_BLOCK), n))
        for lo in range(0, replicas, _RECURSION_BLOCK):
            m = min(_RECURSION_BLOCK, replicas - lo)
            a = sample_law(stream, self.a_law, m * total).reshape(m, total)
            b = sample_law(stream, self.b_law, m * total).reshape(m, total)
            _recurse(a, b, out[:m])
            del a, b  # free this block's draws before the next is drawn
            _check_finite(out[:m], "negative log-mean of the multiplier law")
            yield lo, out[:m]

    def paths(self, n, burn_in, replicas, stream):
        out = np.empty((replicas, n))
        for lo, x in self._blocks(n, burn_in, replicas, stream):
            out[lo:lo + len(x)] = x
        return out[..., None]

    def sums(self, n, burn_in, replicas, stream):
        """S_n on the draws of ``paths``, each block's rows summed as
        ``paths(...).sum(axis=1)`` sums them, so the bytes are the same."""
        sums = np.empty(replicas)
        for lo, x in self._blocks(n, burn_in, replicas, stream):
            x.sum(axis=1, out=sums[lo:lo + len(x)])
        return sums

    def theta0_law(self):
        """The sign law of the additive term."""
        fam = self.b_law.family
        if fam in _POSITIVE_FAMILIES:
            return np.ones((1, 1)), np.ones(1)
        if fam in _SYMMETRIC_FAMILIES or (
                fam == randkit.STABLE and self.b_law.skew == 0.0):
            return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
        raise UnsupportedLawError(
            "no exact exceedance-angle law for this additive family")

    def tail_process(self, horizon, replicas, stream, tv):
        """Theta_t = A_1 ... A_t Theta_0: each block's multipliers (a law
        whose draws split) run their cumulative product in the block's
        output. A projection is one product with theta, the bits of the
        one-term matrix product."""
        starts = self.theta0(replicas, stream)[:, 0]
        for lo, hi in _block_bounds(replicas):
            start = starts[lo:hi]
            m = hi - lo
            theta = np.empty((m, horizon + 1))
            theta[:, 0] = start
            mults = sample_law(stream, self.a_law, m * horizon)
            np.cumprod(mults.reshape(m, horizon), axis=1, out=theta[:, 1:])
            theta[:, 1:] *= start[:, None]
            yield theta[..., None] if tv is None else np.multiply(
                theta, tv[0], out=theta)

    def _up_mass(self, tv) -> float:
        """P(theta Theta_0 > 0), the sign of every theta Theta_t."""
        atoms, weights = self._theta0_atoms
        return float(np.sum(weights[atoms[:, 0] * tv[0] > 0.0]))

    def tail_moments(self, tv, s, horizon):
        """P(theta Theta_0 > 0) |theta|^s sum_{t=1}^T (E A^s)^t, the mean
        of sum_t (theta Theta_t)_+^s: |Theta_t| = A_1 ... A_t, with iid
        multipliers."""
        m, term, total = self._a_moment(s), 1.0, 0.0
        for _ in range(horizon):  # a float product overflows to inf
            term *= m
            total += term
        return self._up_mass(tv) * abs(float(tv[0])) ** s * total

    @functools.cached_property
    def _perpetuity(self):
        """``_log_lattice``'s G = E[(W+1)^alpha - W^alpha] for the
        perpetuity W = sum_{t>=1} A_1 ... A_t =_d A (1 + W) (Vervaat 1979):
        Y = log W, f = softplus, g grows like W^s, where E A^s < 1 by
        convexity (E A^0 = E A^alpha = 1). A = 1/2 keeps W = 1 on the
        lattice; past alpha y = 1400 g spans more than a double's range,
        out of regime."""
        alpha = self.alpha
        s = max(alpha - 1.0, 0.0)

        def cells(j, h):
            if alpha * j[-1] * h > 1400.0:
                raise OutOfRegimeError(
                    f"(1 + W)^{alpha:g} up to log W = {j[-1] * h:.4g} spans "
                    f"more than a double's exponent range")
            y = j * h
            pos = np.logaddexp(0.0, y) / h
            # g = (1 + W)^alpha (1 - (W / (1 + W))^alpha) over e^shift:
            # its top cell below e^700, its bottom one (about 1) above e^-700
            shift = max(0.0, alpha * pos[-1] * h - 700.0)
            return pos, -np.exp(alpha * np.logaddexp(0.0, y) - shift) \
                * np.expm1(-alpha * np.logaddexp(0.0, -y)), shift
        return _log_lattice(self.a_law, s, cells)

    @functools.cached_property
    def _lindley(self):
        """``_log_lattice``'s E[(1 - e^(alpha M))_+] for the Lindley
        equation M = sup_{t>=1} log(A_1 ... A_t) =_d log A + max(0, M')
        (de Haan, Resnick, Rootzen & de Vries 1989); g <= 1, so s = 0."""
        alpha = self.alpha
        return _log_lattice(self.a_law, 0.0, lambda j, h: (
            np.maximum(j, 0), -np.expm1(alpha * np.minimum(j * h, 0.0)), 0.0))

    def _signed(self, tv, pair):
        """(value, bound) times |theta|^alpha P(theta Theta_0 > 0)."""
        if tv.size != 1:
            raise ParameterError("direction dimension mismatch")
        weight = self._up_mass(tv) * abs(float(tv[0])) ** self.alpha
        return tuple(weight * x for x in pair)

    def exact_cluster_index(self, tv):
        return self._signed(tv, self._perpetuity)

    def exact_extremal_index(self, tv):
        return self._signed(tv, self._lindley)

    def stationary_mean(self):
        """E B / (1 - E A), asked only at alpha > 1: there E A < 1, as
        s -> E A^s is convex and 1 at s = 0 and at alpha, and B's tail
        index, above alpha, leaves E B finite."""
        return np.array([randkit.law_mean(self.b_law)
                         / (1.0 - randkit.law_moment(self.a_law, 1.0))])

    def conditional_states(self, y, reps, stream):
        a = sample_law(stream, self.a_law, reps)
        b = sample_law(stream, self.b_law, reps)
        return (a * float(y[0]) + b)[:, None]


@dataclass(eq=False)
class Garch11Spec(ModelSpec):
    """Volatility recursion sigma_t^2 = alpha0 + sigma_{t-1}^2
    (alpha1 Z_{t-1}^2 + beta1), observable X_t = sigma_t Z_t.

    The innovations Z_t are standard Gaussian. The observable and its
    tail process are scalar (``dim`` 1); the drift state is (X, sigma).
    """

    alpha0: float
    alpha1: float
    beta1: float

    dim = 1

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "beta1"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        if _garch_log_moment(self.alpha1, self.beta1) >= 0.0:
            raise ParameterError(
                "E log(alpha1 Z^2 + beta1) must be negative (stationarity)")

    def tail_index(self) -> float:
        return _solve_moment_equation(
            lambda k: _garch_power_moment(self.alpha1, self.beta1, k) - 1.0)

    @functools.cached_property
    def default_burn(self) -> int:
        """Warm-up, set on first use: sigma_t^2 moves by the product of
        A = alpha1 Z^2 + beta1, so X_t moves by its square root; the
        moment horizon of E A^(s/2) over s in (0, min(1, kappa)], where
        E|X|^s is finite."""
        return _moment_horizon(
            lambda s: _garch_power_moment(self.alpha1, self.beta1, s),
            0.0, min(self.alpha, 1.0))

    def _observed(self, n, burn_in, replicas, stream):
        """Yield the observables X_t of the n steps after ``burn_in`` as
        (m, replicas) blocks of consecutive steps, in buffers that the next
        block overwrites. The draws are those of a time-major
        (n + burn_in, replicas) matrix of normals, taken ``_STEP_BLOCK``
        rows per call. A block forms its multipliers a1 z^2 + b1 at once;
        the recursion s2 <- s2 (a1 z^2 + b1) + a0 then costs two numpy
        calls a step, with the bits of the step-by-step form, and the
        square root and the product with z run once a block."""
        a0, a1, b1 = self.alpha0, self.alpha1, self.beta1
        rows = max(1, min(_STEP_BLOCK, n + burn_in))
        z = np.empty((rows, replicas))
        mult = np.empty((rows, replicas))
        # s2[j] is sigma^2 at step j of the block, s2[rows] the carry
        s2 = np.empty((rows + 1, replicas))
        s2[0] = a0 / (1.0 - a1 - b1) if a1 + b1 < 1.0 else a0
        # row views built once: a step indexes two lists, not two arrays
        s2_rows, mult_rows = list(s2), list(mult)
        for t0 in range(0, n + burn_in, rows):
            k = min(rows, n + burn_in - t0)
            stream.rng.standard_normal(out=z[:k])
            np.square(z[:k], out=mult[:k])
            mult[:k] *= a1
            mult[:k] += b1
            for prev, m, nxt in zip(s2_rows[:k], mult_rows[:k],
                                    s2_rows[1:k + 1]):
                np.multiply(prev, m, out=nxt)
                np.add(nxt, a0, out=nxt)
            skip = max(0, burn_in - t0)
            if skip < k:
                # the multipliers are spent: their rows take X_t
                x = mult[skip:k]
                np.sqrt(s2[skip:k], out=x)
                x *= z[skip:k]
                yield x
            s2[0] = s2[k]

    def paths(self, n, burn_in, replicas, stream):
        out = np.empty((replicas, n))  # by replica: a pilot stacks a view
        t = 0
        for x in self._observed(n, burn_in, replicas, stream):
            out[:, t:t + len(x)] = x.T
            t += len(x)
        _check_finite(out, "negative log-mean of the volatility multiplier")
        return out[..., None]

    def sums(self, n, burn_in, replicas, stream):
        """S_n accumulated step by step on the draws of ``paths``, with no
        path array. Rows are added one at a time, in step order: a column
        sum of a one-replica block would take numpy's pairwise route, with
        other bits."""
        sums = np.zeros(replicas)
        for x in self._observed(n, burn_in, replicas, stream):
            for row in x:
                sums += row
        # a non-finite step leaves its row's sum non-finite
        _check_finite(sums, "negative log-mean of the volatility multiplier")
        return sums

    def theta0_law(self):
        """Theta_0 = sign(Z_0), Z_0 symmetric: +-1 with mass 1/2 each."""
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])

    def tail_process(self, horizon, replicas, stream, tv):
        """Theta_t = X_t / |X_0| as |X_0| -> inf: Z_0 is size-biased by
        |z|^alpha, so Z_0^2 = 2G with G ~ Gamma((alpha + 1)/2), and
        Theta_t = Theta_0 prod_{s<t} sqrt(a1 Z_s^2 + b1) Z_t / |Z_0| with
        Theta_0 = sign(Z_0) (Z_t, t >= 1, is symmetric). Each block runs
        the product in place in its output rows (``_walks``)."""
        starts = self.theta0(replicas, stream)[:, 0]
        z0sq = 2.0 * stream.rng.standard_gamma((self.alpha + 1.0) / 2.0,
                                               replicas)
        lead = starts / np.sqrt(z0sq)
        z0sq *= self.alpha1  # the walk's head, a1 Z_0^2 + b1
        z0sq += self.beta1
        # one buffer that each block overwrites
        thetas = np.empty((min(replicas, _TAIL_BLOCK + 1), horizon + 1))
        for lo, hi, walk in self._walks(stream.rng, z0sq, thetas[:, 1:]):
            theta = thetas[:hi - lo]
            theta[:, 0] = starts[lo:hi]
            walk *= lead[lo:hi, None]
            yield theta[..., None] if tv is None else np.multiply(
                theta, tv[0], out=theta)

    def first_step_values(self, horizon, replicas, stream):
        """(replicas,) per-path values f(U) whose mean is b(1) = b(-1)
        along X. On X's own norm Z_0 enters the tail process only through
        its |z|^alpha size bias, which cancels the 1/|Z_0|^alpha factor,
        so for Z ~ N(0, 1) and A = a1 Z^2 + b1
        f(u) = E_Z[|Z + sqrt(A) u|^alpha - |sqrt(A) u|^alpha] / (2 E|Z|^alpha)
        (half the sum over both signs, equal by the symmetry of Z), with
        U = sum_{t=1}^{horizon} Z_t prod_{1<=s<t} sqrt(A_s) the rest of
        the path: the tail process's walk with head 1, on the stream's
        angle child, each block going to ``_first_step``."""
        walks = np.empty((min(replicas, _TAIL_BLOCK + 1), horizon))
        out = np.empty(replicas)
        for lo, hi, walk in self._walks(stream.substream(_ANGLE_CHILD).rng,
                                        np.ones(replicas), walks):
            out[lo:hi] = self._first_step(walk.sum(axis=1))
        return out

    def _walks(self, rng, head, out):
        """(lo, hi, w) for each ``_block_bounds`` block of ``head``'s
        replicas: w, rows of ``out``, is sqrt(cumprod(m)) z in place over
        normals z from ``rng``, m_0 = head, m_t = a1 z_{t-1}^2 + b1."""
        normals = np.empty(out.shape)
        for lo, hi in _block_bounds(head.size):
            z = rng.standard_normal(out=normals[:hi - lo])
            w = out[:hi - lo]
            w[:, :1] = head[lo:hi, None]  # no column when the horizon is 0
            np.square(z[:, :-1], out=w[:, 1:])
            w[:, 1:] *= self.alpha1
            w[:, 1:] += self.beta1
            np.cumprod(w, axis=1, out=w)
            np.sqrt(w, out=w)
            w *= z
            yield lo, hi, w

    def _first_step(self, u):
        """f(u) of ``first_step_values`` at each entry of ``u`` (which it
        overwrites), Z integrated by the 128-node Gauss-Hermite rule. The
        second term is the rule's own E A^(alpha/2), 1 at the tail index,
        times |u|^alpha."""
        z, w = _gh_nodes()
        alpha = self.alpha
        g = np.multiply.outer(u, np.sqrt(self.alpha1 * z ** 2 + self.beta1))
        g += z
        np.abs(g, out=g)
        g **= alpha
        vals = g @ w
        np.abs(u, out=u)
        u **= alpha
        u *= _garch_power_moment(self.alpha1, self.beta1, alpha)
        vals -= u
        vals /= 2.0 ** (alpha / 2.0 + 1.0) * math.gamma(
            (alpha + 1.0) / 2.0) / math.sqrt(math.pi)
        return vals

    def stationary_mean(self):
        return np.zeros(1)

    def drift_setup(self, alpha):
        p = 0.4 * (alpha or 2.0)
        return p, [np.array([x, x]) for x in np.geomspace(0.5, 32.0, 7)]

    def conditional_states(self, y, reps, stream):
        # state (X_t, sigma_t); sigma'^2 = alpha0 + alpha1 x^2 + beta1 s^2
        if y.shape != (2,):
            raise ParameterError("recursion state is (x, sigma)")
        x = np.full(reps, float(y[0]))
        s2 = self.alpha0 + self.alpha1 * x ** 2 + self.beta1 * float(y[1]) ** 2
        x = np.sqrt(s2) * stream.rng.standard_normal(reps)
        return np.column_stack([x, np.sqrt(s2)])


@dataclass
class DriftReport:
    """Fitted one-step drift inequality
    E(V(next) | state) <= beta V(state) + b with V = |.|^p."""

    p: float
    beta_hat: float
    beta_se: float
    intercept: float
    passed: bool
    grid_v: np.ndarray
    response_v: np.ndarray


# ---------------------------------------------------------------------------
# internal helpers


def _block_bounds(replicas: int, rows: int = _TAIL_BLOCK):
    """(lo, hi) of consecutive blocks of ``rows`` replicas, a lone last
    replica joining the block before it: numpy takes another route for a
    one-row operand (``einsum`` past its 8,192-element buffer, ``matmul``
    through BLAS), with other bits."""
    bounds = list(range(0, replicas, rows))
    if len(bounds) > 1 and replicas - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [replicas]))


def _recurse(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Run x_t = a_t x_{t-1} + b_t from x = 0 along the rows of the
    (replicas, total) draws a and b, writing the last n steps of each row
    into the (replicas, n) ``out``."""
    burn_in = a.shape[1] - out.shape[1]
    x = np.zeros(len(out))
    for t in range(a.shape[1]):
        x *= a[:, t]
        x += b[:, t]
        if t >= burn_in:
            out[:, t - burn_in] = x


def _spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _contraction_burn(a: np.ndarray, tol: float = 2.0 ** -53) -> int:
    """Smallest b >= 1 with ||A^b||_2 <= tol (spectral radius below 1).
    ||A^b||_2 >= rho(A)^b, so no b below log(tol) / log(rho) qualifies:
    start one step short of that bound and step up."""
    rho = _spectral_radius(a)
    b = 1 if rho == 0.0 else max(
        1, math.ceil(math.log(tol) / math.log(rho)) - 1)
    power = np.linalg.matrix_power(a, b)
    while np.linalg.norm(power, 2) > tol:
        power = a @ power
        b += 1
    return b


def _moment_horizon(moment, lo: float, hi: float) -> int:
    """Smallest K >= 1 with rho^K <= 2^-53, rho the least of ``moment``
    on a 1,025-point grid of [lo, hi], evaluated in one call on the grid
    array: the s-th moment of the factor by which one step shrinks the
    gap between two paths on the same draws. A grid minimum with both
    ends can only overstate rho and lengthen K."""
    rho = float(np.min(moment(np.linspace(lo, hi, 1025))))
    if not rho < 1.0:
        raise ParameterError(f"no s in [{lo:g}, {hi:g}] with E A^s < 1")
    k = max(1, math.ceil(53 * math.log(2.0) / -math.log(rho)) - 1)
    while rho ** k > 2.0 ** -53:
        k += 1
    return k


def _log_lattice(law: TailLaw, s: float, cells):
    """(E g(Y), bound) at the fixed point of Y' = log A + f(Y), with no
    draws: ``_log_fixed_point`` at steps h <= 0.04, the centre of log A a
    cell, and h/2 (started from the solution at h), up to where g times
    the density of Y, about exp(-(kappa - s) y) with E A^kappa = 1, is
    e^-36, Richardson-extrapolated (an O(h^2) error). The bound is
    |v_h - v_{h/2}| / 3 plus each solve's own bound, in the same
    combination."""
    if law.family == randkit.LOGNORMAL:
        kappa, centre = -2.0 * law.mu / law.sigma ** 2, law.mu
    else:
        kappa = _solve_moment_equation(
            lambda k: randkit.law_moment(law, k) - 1.0)
        centre = math.log(law.scale)
    h = -centre / math.ceil(-centre / 0.04)  # centre < 0
    top = math.ceil(36.0 / min(1.0, kappa - s) / h)
    coarse, x, err_c = _log_fixed_point(law, kappa, s, h, top, None, cells)
    fine, _, err_f = _log_fixed_point(law, kappa, s, h / 2.0, 2 * top, x,
                                      cells)
    return ((4.0 * fine - coarse) / 3.0,
            (abs(fine - coarse) + 4.0 * err_f + err_c) / 3.0)


def _log_fixed_point(law: TailLaw, kappa: float, s: float, h: float,
                     top: int, start, cells):
    """(E g(Y'), x, error) at the fixed point of Y' = log A + f(Y),
    f >= 0, on the cells j h, j <= ``top`` (the top one keeps the mass
    beyond), with (f(j h) / h, g(j h) / e^shift, shift) = ``cells(j, h)``
    on the cells j of Y', and log A on the lattice as far as A^s leaves
    above e^-40 (lognormal cells of width h around mu, or the linear
    split of the exponential log A - log scale, Pareto). The law x of
    f(Y) solves x = Tx (``_lattice_step``), mass 1, by restarted GMRES
    (``_gmres``; Saad & Schultz 1986, Stewart 1994 ch. 4) from f(Y) = 0
    or ``start`` (the x at step 2h), in residuals weighted by
    w = max(G, G_0), where E g = G'x: unweighted, the far cells' errors
    (g grows like e^(s y)) would move E g unseen. The value's error is
    linear in the residual: the solve stops at ||w (Tx - x)||_2 <=
    ``_SOLVE_TOL`` E g and again at 100 times less, and the move between
    the two, the first value's error, bounds the second's; ``error``
    adds n u E g for the sum. Past n = top + 1 applications of T, where
    exact GMRES has ended, OutOfRegimeError."""
    if law.family == randkit.LOGNORMAL:
        sd = law.sigma
        wing = max(1, math.ceil((9.0 + s * sd) * sd / h))
        z = [(k + 0.5) * h / (sd * math.sqrt(2.0)) for k in range(wing + 1)]
        side = [0.5 * (math.erfc(a) - math.erfc(b)) for a, b in zip(z, z[1:])]
        q = np.array(side[::-1] + [math.erf(z[0])] + side)
        lo = round(law.mu / h) - wing
    else:
        lam = law.alpha * h
        q = np.exp(-lam * np.arange(math.ceil(42.0 / (lam - s * h)) + 1))
        q *= 4.0 * math.sinh(lam / 2.0) ** 2 / lam
        q[0] = 1.0 + math.expm1(-lam) / lam
        lo = round(math.log(law.scale) / h)
    # zeros up to cell 0 keep the convolution as long as the lattice
    q = np.pad(q / q.sum(), (0, max(0, 1 - lo - q.size)))
    n = top + 1
    pos, g, shift = cells(np.arange(lo, n), h)
    cell = np.floor(pos).astype(np.intp)
    dest, frac = np.minimum(np.concatenate([cell, cell + 1]), top), pos - cell
    # G is T's convolution transposed on g, the top cell standing for beyond
    worth = np.correlate(np.pad(g, (0, q.size - 1 + lo), mode="edge"), q)
    w = np.maximum(worth, worth[0])
    x = np.zeros(n)
    x[0] = 1.0
    if start is not None:
        x[::2] = start
    basis, used, values = np.empty((min(_RESTART, n) + 1, n)), 1, []
    tx = _lattice_step(x, q, dest, frac)
    for tol in (_SOLVE_TOL, _SOLVE_TOL / 100.0):
        while True:
            r, value = (tx - x) * w, float(np.einsum("i,i", worth, x))
            if math.sqrt(np.einsum("i,i", r, r)) <= tol * value:
                break
            if n - used < 2:
                raise OutOfRegimeError(
                    f"the lattice fixed point (kappa = {kappa:.4g}, s = "
                    f"{s:.4g}, h = {h:.4g}, {n} cells) has not settled "
                    f"within {n} map applications, one per cell")
            d, steps = _gmres(
                lambda v: v - w * _lattice_step(v / w, q, dest, frac),
                r, tol * value, basis[:n - used])
            x = x + d / w
            x /= x.sum()
            tx, used = _lattice_step(x, q, dest, frac), used + steps + 1
        values.append(value)
    return (math.exp(shift) * value, x, math.exp(shift) * (
        abs(value - values[0]) + n * 2.0 ** -53 * value))


def _lattice_step(x, q, dest, frac):
    """T: convolve the law x of f(Y) directly with the cells q of log A
    (an FFT loses the far cells' relative accuracy), fold the mass beyond
    into the top cell, and split each cell's mass at f over ``dest``
    (``frac`` going up, which keeps its mean): the law of f(Y')."""
    p = np.convolve(x, q)
    p[frac.size - 1] += p[frac.size:].sum()
    p = p[:frac.size]
    return np.bincount(dest, np.concatenate([p * (1.0 - frac), p * frac]),
                       minlength=x.size)


def _gmres(apply, r: np.ndarray, bound: float, basis: np.ndarray):
    """(d, steps): the d in the Krylov space of ``apply`` on r that
    minimises ||r - apply(d)||_2, over at most len(basis) - 1 Arnoldi
    steps (Gram-Schmidt twice), stopping once that norm, which Givens
    rotations track, is at most ``bound``; back substitution gives d.
    Inner products are ``einsum``, so no bit depends on BLAS threads."""
    rhs, turns, cols = [math.sqrt(np.einsum("i,i", r, r))], [], []
    basis[0] = r / rhs[0]
    for k in range(len(basis) - 1):
        u, col = apply(basis[k]), np.zeros(k + 1)
        for _ in range(2):
            c = np.einsum("ij,j->i", basis[:k + 1], u)
            u -= np.einsum("ij,i->j", basis[:k + 1], c)
            col += c
        col = col.tolist() + [math.sqrt(np.einsum("i,i", u, u))]
        for i, (c, sn) in enumerate(turns):
            col[i:i + 2] = (c * col[i] + sn * col[i + 1],
                            c * col[i + 1] - sn * col[i])
        rad = math.hypot(col[k], col[k + 1])
        if not rad:
            break
        c, sn = col[k] / rad, col[k + 1] / rad
        turns.append((c, sn))
        rhs[k:] = c * rhs[k], -sn * rhs[k]
        cols.append(col[:k] + [rad])
        if abs(rhs[k + 1]) <= bound or not col[k + 1]:
            break
        basis[k + 1] = u / col[k + 1]
    y = []
    for i in reversed(range(len(cols))):
        y.insert(0, (rhs[i] - sum(cols[i + 1 + j][i] * v
                                  for j, v in enumerate(y))) / cols[i][i])
    return np.einsum("ij,i->j", basis[:len(y)], np.array(y)), len(y)


def _ar1(z: np.ndarray, a: float) -> np.ndarray:
    """x_t = a x_{t-1} + z_t along the last axis of a C-contiguous 2-d
    array, from x_{-1} = 0, in place: returns ``z``, which then holds the
    path. The T steps are cut into blocks of about T^(1/3): the recursion
    runs along every full block at once, through a reshaped view of z,
    and along the partial last block, each from a zero start. The true
    block ends follow the same recursion with coefficient a^width, so one
    recursive call on a copy of the local ends finds them, and a^(j+1)
    times the previous block's end completes offset j, for a range of
    blocks at a time. A range's product, and numpy's copy of a strided
    range of several rows, stay within ``_SUM_BLOCK`` floats, an eighth
    of z and two of its rows."""
    rows, t = z.shape
    width = max(1, round(t ** (1.0 / 3.0)))
    full, blocks = t // width, -(-t // width)
    y = z[:, :full * width].reshape(rows, full, width, copy=False)
    part = z[:, full * width:]
    for j in range(1, width):
        y[:, :, j] += a * y[:, :, j - 1]
    for j in range(1, part.shape[1]):
        part[:, j] += a * part[:, j - 1]
    if blocks > 1:
        ends = _ar1(y[:, :blocks - 1, -1].copy(), a ** width)
        powers = a ** np.arange(1, width + 1)
        budget = min(_SUM_BLOCK, z.size // 8, 2 * t)
        step = max(1, budget // max(1, rows * width))
        for lo in range(0, full - 1, step):
            hi = min(lo + step, full - 1)
            y[:, lo + 1:hi + 1] += ends[:, lo:hi, None] * powers
        part += ends[:, -1:] * powers[:part.shape[1]]
    return z


@functools.cache
def _gh_nodes():
    """Read-only nodes and weights of the 128-point Gauss-Hermite rule for
    standard Gaussian Z, built on first use: only GARCH specs read them."""
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    table = math.sqrt(2.0) * nodes, weights / math.sqrt(math.pi)
    for column in table:
        column.flags.writeable = False
    return table


def _garch_log_moment(a1: float, b1: float) -> float:
    """E log(a1 Z^2 + b1) for standard Gaussian Z (Gauss-Hermite)."""
    z, w = _gh_nodes()
    return float(np.sum(w * np.log(a1 * z ** 2 + b1)))


def _garch_power_moment(a1: float, b1: float, kappa):
    """E (a1 Z^2 + b1)^(kappa/2) for standard Gaussian Z. An array of
    kappa gives one moment per entry, the row sums of one (kappa, node)
    table; a float keeps numpy's scalar-power fast paths."""
    z, w = _gh_nodes()
    base = a1 * z ** 2 + b1
    if np.ndim(kappa):
        return np.sum(w * base ** (np.asarray(kappa)[:, None] / 2.0),
                      axis=1)
    return float(np.sum(w * base ** (kappa / 2.0)))


def _check_finite(x: np.ndarray, invariant: str) -> None:
    """Name the first entry of ``x`` that is nan or beyond ``_BLOWUP`` in
    magnitude: a draw that large, or a recursion that breaks the
    invariant. A nan fails both comparisons; neither allocates."""
    if x.size and not (-_BLOWUP <= x.min() and x.max() <= _BLOWUP):
        at = np.unravel_index(np.argmin(np.abs(x) <= _BLOWUP), x.shape)
        raise DivergenceError(
            f"simulated value {x[at]:.6g} at index {tuple(map(int, at))} is "
            f"not within +-{_BLOWUP:g}: a draw that large, or a failed "
            f"invariant ({invariant})")


def _solve_moment_equation(fn) -> float:
    """Positive root of fn (a moment minus 1, below 0 near 0): double the
    bracket end from 1 until fn >= 0, then bisect to a width of 2e-12.
    A diverging moment (+inf) counts as above 1; an undefined one (nan)
    raises."""
    lo = 1e-6
    flo = fn(lo)
    if math.isnan(flo):
        raise NoRootError("moment undefined at the lower bracket end")
    if flo >= 0.0:
        raise NoRootError(
            "moment function not below 1 near zero; no admissible root")
    hi = 1.0
    for _ in range(12):
        fhi = fn(hi)
        if math.isnan(fhi):
            raise NoRootError(f"moment undefined at bracket end kappa={hi}")
        if fhi >= 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NoRootError("no sign change on the expanded bracket (kappa "
                          f"<= {hi / 2})")
    if fhi == 0.0:
        return hi
    for _ in range(256):
        if hi - lo < 2e-12:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if math.isnan(fmid):
            raise NoRootError("moment undefined inside the bracket")
        if fmid == 0.0:
            return mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# path simulation


def stationary_pilot(spec, stream: RngStream) -> np.ndarray:
    """(200_000, dim) stationary sample behind every pilot estimate: 100
    independent paths of 2,000 steps after the spec's default burn-in,
    stacked, drawn on ``stream``'s pilot child. Each call draws it afresh
    into an array the caller owns."""
    return spec.paths(2_000, spec.default_burn, 100,
                      stream.substream(_PILOT_CHILD)).reshape(-1, spec.dim)


def simulate_path(spec, n: int, burn_in: int,
                  stream: RngStream) -> np.ndarray:
    """(n, dim) stationary-regime sample after discarding burn_in."""
    if n < 0 or burn_in < 0:
        raise ParameterError("n and burn_in must be nonnegative")
    return spec.paths(n, burn_in, 1, stream)[0]


def simulate_paths_batch(spec, n: int, burn_in: int, replicas: int,
                         stream: RngStream) -> np.ndarray:
    """(replicas, n) observable paths for scalar models; rows are
    independent paths. No route of the package calls it: it is the name
    the benchmark tracer wraps to count the path steps of a batch."""
    if replicas < 0:
        raise ParameterError("replicas must be nonnegative")
    if spec.dim != 1:
        raise ParameterError("batch path simulation is scalar-only")
    return spec.paths(n, burn_in, replicas, stream)[..., 0]


# ---------------------------------------------------------------------------
# spectral tail process


def tail_index(spec) -> float:
    """Tail index of the stationary law: the spec's ``alpha``.

    Linear model: inherited from the innovation law. Scalar recurrence
    (as for GARCH): the unique positive root of the multiplier moment
    equation, found by bracketing bisection (absolute tolerance well below
    1e-8).
    """
    return spec.alpha


def sample_tail_process_batch(spec, horizon: int, replicas: int,
                              stream: RngStream, tv=None, reducers=None):
    """Spectral-tail-process angles (Theta_0, ..., Theta_T) of
    ``replicas`` paths, drawn on the stream's angle child in blocks of
    ``_TAIL_BLOCK`` replicas (``ModelSpec``).

    Each block yields its (m, horizon+1) projection tv'Theta_t, or for no
    ``tv`` its (m, horizon+1, d) angles. Without ``reducers``, these
    blocks stacked: the whole batch. With a list of reducers, each block
    goes to every one, which returns the block's (m,) per-path values
    and may not write to it; the result is one (replicas,) value array
    per reducer, and no array of the whole batch is held."""
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    if replicas < 1:
        raise ParameterError("replicas must be at least 1")
    if tv is not None and tv.size != spec.dim:
        raise ParameterError("direction dimension mismatch")
    outs, lo = None, 0
    for rows in spec.tail_process(horizon, replicas,
                                  stream.substream(_ANGLE_CHILD), tv):
        vals = [rows] if reducers is None else [r(rows) for r in reducers]
        if outs is None:  # shapes from the first block
            outs = [np.empty((replicas, *v.shape[1:])) for v in vals]
        for out, v in zip(outs, vals):
            out[lo:lo + len(v)] = v
        lo += len(rows)
        del rows, vals  # free this block's projection before the next
    return outs[0] if reducers is None else outs


# ---------------------------------------------------------------------------
# drift diagnostics


def drift_margin(spec, p: float, grid, stream: RngStream) -> DriftReport:
    """Fit E(|next state|^p | state) <= beta |state|^p + b over the grid by
    one-step conditional Monte Carlo on 2000 draws per state and least
    squares (intercept clamped at 0)."""
    if not p > 0:
        raise ParameterError("p must be positive")
    grid = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grid]
    if not grid:
        raise ParameterError("grid must be non-empty")
    v_state = np.array([np.linalg.norm(g) ** p for g in grid])
    v_next = np.empty(len(grid))
    for i, y in enumerate(grid):
        nxt = spec.conditional_states(y, 2000, stream)
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(
                "conditional simulation diverged from grid state "
                f"{y.tolist()}")
        v_next[i] = float(np.mean(np.linalg.norm(
            np.atleast_2d(nxt), axis=1) ** p))
    design = np.column_stack([v_state, np.ones_like(v_state)])
    coef, *_ = np.linalg.lstsq(design, v_next, rcond=None)
    beta_hat, intercept = float(coef[0]), float(coef[1])
    if intercept < 0.0:
        intercept = 0.0
        beta_hat = float(np.dot(v_state, v_next) / np.dot(v_state, v_state))
    resid = v_next - (beta_hat * v_state + intercept)
    dof = max(len(grid) - 2, 1)
    sxx = float(np.sum((v_state - v_state.mean()) ** 2))
    beta_se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) \
        if sxx > 0 else math.inf
    passed = beta_hat < 1.0 and beta_hat + 1.96 * beta_se < 1.0
    return DriftReport(p=p, beta_hat=beta_hat, beta_se=beta_se,
                       intercept=intercept, passed=passed,
                       grid_v=v_state, response_v=v_next)
