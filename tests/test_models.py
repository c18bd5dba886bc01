"""Model-family oracles: tail indices, tail processes, drift fits.

Tail-index targets come from closed forms (quadratic log-moment roots,
exact unit moments) or an independent quadrature/Brent root.
"""
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.signal import lfilter

from heavytail import cluster, models, randkit
from heavytail.errors import (DivergenceError, HeavytailError, NoRootError,
                              ParameterError, SingularDrawError,
                              UnsupportedLawError)
from heavytail.randkit import TailLaw, derive_stream
from heavytail.tailstats import Direction


def mass_at(law, direction):
    # total weight of the atoms within 1e-9 of the direction
    atoms, weights = law
    near = np.linalg.norm(atoms - np.asarray(direction), axis=1) <= 1e-9
    return weights[near].sum()


def lognormal_root(mu, sigma2):
    # E A^k = exp(k mu + k^2 sigma2 / 2) = 1 at k = -2 mu / sigma2
    return -2.0 * mu / sigma2


class TestTailIndex:
    def test_garch_unit_persistence_is_two(self):
        # a1 + b1 = 1 makes E(a1 Z^2 + b1) = 1 exactly, so kappa = 2
        spec = models.Garch11Spec(1.0, 0.15, 0.85)
        assert abs(models.tail_index(spec) - 2.0) < 1e-12

    def test_garch_matches_independent_quadrature(self, garch_benchmark):
        def unit_moment(kappa):
            f = lambda z: ((0.1 * z * z + 0.85) ** (kappa / 2.0)
                           * math.exp(-z * z / 2.0)
                           / math.sqrt(2.0 * math.pi))
            return quad(f, -np.inf, np.inf, limit=200)[0] - 1.0

        oracle = brentq(unit_moment, 0.5, 30.0, xtol=1e-10)
        assert abs(models.tail_index(garch_benchmark) - oracle) < 1e-3

    def test_kesten_lognormal_closed_form(self, kesten_lognormal):
        target = lognormal_root(-0.5, 0.5)
        assert abs(models.tail_index(kesten_lognormal) - target) < 1e-6

    def test_kesten_lognormal_other_variance(self):
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=0.5),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        assert abs(models.tail_index(spec)
                   - lognormal_root(-0.5, 0.25)) < 1e-6

    def test_pareto_multiplier_root_is_exact(self):
        # Pareto multiplier, scale sqrt(0.8), index 10:
        # E A^2 = 0.8 * 10/8 = 1 exactly, so the root is 2
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.PARETO, alpha=10.0,
                          scale=math.sqrt(0.8)),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        assert abs(models.tail_index(spec) - 2.0) < 1e-9

    def test_overflowing_lognormal_moment_counts_as_above_one(self):
        # log-variance 0.0009: the bracket reaches kappa = 2048, where
        # E A^kappa = exp(863) overflows a double; the root is 1/0.0009
        # (Gaussian additive terms: a power tail would cap the index)
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=0.03),
            b_law=TailLaw(randkit.GAUSSIAN))
        assert abs(models.tail_index(spec) - lognormal_root(-0.5, 0.0009)) \
            < 1e-6

    def test_degenerate_multiplier_has_no_root(self):
        # A concentrated at 0.5: E A^k = 0.5^k never reaches 1
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=math.log(0.5),
                          sigma=1e-9),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        with pytest.raises(NoRootError):
            models.tail_index(spec)

    @pytest.mark.parametrize("b_law, root", [
        # lognormal A with sigma 1 and mu = -root / 2, whose moment root
        # is ``root``: the bench multiplier (root 1.5) for None
        (TailLaw(randkit.PARETO, alpha=0.8), None),
        (TailLaw(randkit.STABLE, alpha=1.4), None),
        (TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.1), 1.2)])
    def test_kesten_rejects_a_heavier_additive_law(self, b_law, root):
        # X's index would be the additive law's (Grey 1994)
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-(root or 1.5) / 2.0,
                          sigma=1.0),
            b_law=b_law)
        with pytest.raises(ParameterError, match=(
                rf"additive tail index {b_law.alpha:g} .* "
                rf"index {root or 1.5:g}")):
            models.tail_index(spec)

    def test_kesten_rejects_an_additive_law_at_its_index(self):
        # the bench multiplier's root is 1.5 to the last bit: bisection
        # from [1, 2] meets E A^1.5 = 1 at its first midpoint
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5))
        with pytest.raises(ParameterError,
                           match=r"additive tail index 1.5 .* index 1.5"):
            models.tail_index(spec)

    def test_var1_tail_index_is_innovation_index(self, ar_pareto15):
        assert models.tail_index(ar_pareto15) == 1.5


class TestSpecValidation:
    def test_var1_requires_contraction(self):
        with pytest.raises(ParameterError):
            models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                            a_matrix=np.array([[1.01]]))

    def test_var1_requires_a_matrix(self):
        with pytest.raises(TypeError, match="a_matrix"):
            models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5))

    @pytest.mark.parametrize("a_matrix, shape", [
        (np.zeros((2, 3)), "(2, 3)"), (np.zeros((0, 0)), "(0, 0)"),
        (np.zeros((2, 2, 2)), "(2, 2, 2)")])
    def test_var1_a_matrix_must_be_square(self, a_matrix, shape):
        # the matrix alone sets the dimension, so a shape that is not
        # d x d for some d >= 1 is named as it was given
        with pytest.raises(ParameterError, match=re.escape(
                f"non-empty square matrix, got shape {shape}")):
            models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5), a_matrix)

    def test_var1_dimension_is_the_matrix_order(self):
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5), 0.5)
        assert (spec.dim, spec.a_matrix.shape) == (1, (1, 1))
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               np.eye(3) * 0.5)
        assert spec.dim == 3

    def test_garch_requires_negative_log_moment(self):
        with pytest.raises(HeavytailError):
            models.Garch11Spec(0.1, 0.9, 0.9)

    def test_garch_requires_positive_parameters(self):
        with pytest.raises(ParameterError):
            models.Garch11Spec(0.0, 0.1, 0.8)

    def test_kesten_requires_both_laws(self):
        with pytest.raises(TypeError, match="b_law"):
            models.KestenSpec(a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5,
                                            sigma=0.5))

    @pytest.mark.parametrize("a_law", [
        TailLaw(randkit.STABLE, alpha=0.7, skew=1.0),
        TailLaw(randkit.GAUSSIAN)])
    def test_kesten_multiplier_must_be_pareto_or_lognormal(self, a_law):
        with pytest.raises(ParameterError, match="pareto or lognormal"):
            models.KestenSpec(a_law=a_law,
                              b_law=TailLaw(randkit.PARETO, alpha=10.0))

    def test_kesten_requires_negative_lyapunov(self):
        with pytest.raises(HeavytailError):
            models.KestenSpec(
                a_law=TailLaw(randkit.LOGNORMAL, mu=0.5, sigma=0.5),
                b_law=TailLaw(randkit.PARETO, alpha=10.0))


class TestSimulatePath:
    def test_shape_and_determinism(self, ar_pareto15):
        p1 = models.simulate_path(ar_pareto15, 500, 100,
                                  derive_stream(1, 1))
        p2 = models.simulate_path(ar_pareto15, 500, 100,
                                  derive_stream(1, 1))
        assert p1.shape == (500, 1)
        assert np.array_equal(p1, p2)

    def test_burn_in_changes_start(self, ar_pareto15):
        p1 = models.simulate_path(ar_pareto15, 50, 0, derive_stream(1, 1))
        p2 = models.simulate_path(ar_pareto15, 50, 10, derive_stream(1, 1))
        assert not np.array_equal(p1, p2)

    def test_gaussian_stationary_variance(self, ar_gauss):
        # stationary variance of the a=0.5 Gaussian chain is 1/(1-a^2)
        path = models.simulate_path(ar_gauss, 200_000, 1000,
                                    derive_stream(4, 1))
        assert abs(path.var() - 4.0 / 3.0) < 0.05

    def test_kesten_stationary_mean(self, kesten_lognormal):
        # E X = E B / (1 - E A)
        ea = math.exp(-0.5 + 0.25)
        eb = 10.0 / 9.0
        path = models.simulate_path(kesten_lognormal, 400_000, 1000,
                                    derive_stream(4, 2))
        target = eb / (1.0 - ea)
        assert abs(path.mean() - target) / target < 0.05
        assert abs(kesten_lognormal.stationary_mean()[0]
                   - target) < 1e-12

    def test_garch_paths_are_finite_and_volatile(self, garch_benchmark):
        path = models.simulate_path(garch_benchmark, 20_000, 500,
                                    derive_stream(4, 3))
        x = path[:, 0]
        assert np.isfinite(x).all()
        # unconditional variance alpha0/(1 - a1 - b1)
        assert abs(x.var() - 0.05 / 0.05) < 0.25

    def test_batch_matches_requested_replicas(self, ar_pareto15):
        batch = models.simulate_paths_batch(ar_pareto15, 64, 16, 5,
                                            derive_stream(4, 4))
        assert batch.shape == (5, 64)

    def test_replica_rows_match_single_paths(self):
        # Pareto innovations take one uniform per draw, so row 0 of a
        # 3-replica batch consumes exactly the draws of a single path
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]))
        rows = spec.paths(300, 50, 3, derive_stream(4, 7))
        single = models.simulate_path(spec, 300, 50, derive_stream(4, 7))
        assert rows.shape == (3, 300, 2)
        assert np.array_equal(rows[0], single)

    def test_stationary_pilot_is_drawn_afresh(self, ar_pareto15):
        # each call draws the same bytes into an array its caller owns,
        # on the stream's pilot child: the stream itself draws no word
        stream = derive_stream(11, 6)
        first = models.stationary_pilot(ar_pareto15, stream)
        second = models.stationary_pilot(ar_pareto15, stream)
        assert stream.counter == 0
        assert first.shape == (200_000, 1)
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable

    def test_linear_pilot_holds_one_array(self, ar_gauss):
        # the rows are scanned in small blocks, then move down over their
        # burn-in in the draws' own buffer, so the stack is a view: about
        # 1.12 pilot-sized arrays, where a reshape copy of the strided
        # rows took 2.07 (numpy's lazy imports are done before tracing)
        derive_stream(12, 0).rng.standard_normal(1)
        stream = derive_stream(12, 6)
        tracemalloc.start()
        try:
            models.stationary_pilot(ar_gauss, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * 200_000
        assert stream.counter == 0

    def test_scalar_only_kernels_reject_two_dimensional_chain(self):
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.eye(2) * 0.5)
        with pytest.raises(ParameterError):
            models.simulate_paths_batch(spec, 64, 16, 5, derive_stream(4, 5))

    def test_divergence_names_the_first_value_beyond_the_bound(self):
        # a = 0.5 contracts, but a Pareto(0.01) draw passes 1e280 with
        # probability 10^-2.8, so 2000 steps almost surely hold one
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=0.01),
                               a_matrix=np.array([[0.5]]))
        with np.errstate(over="ignore"):
            z = randkit.sample_law(derive_stream(4, 8), spec.innovation,
                                   2000)
        x = models._ar1(z[None], 0.5)[0]
        t = int(np.flatnonzero(~(np.abs(x) <= models._BLOWUP))[0])
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError,
                match=re.escape(f"{x[t]:.6g} at index (0, {t})")):
            models.simulate_path(spec, 2000, 0, derive_stream(4, 8))

    def test_pareto_overflow_raises_no_warning_first(self):
        # below alpha = 53/1024 a draw can overflow to inf; the sampler
        # lets it do so quietly, and the path check names it
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=0.01),
                               a_matrix=np.array([[0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="inf at index"):
                models.simulate_path(spec, 2000, 0, derive_stream(1, 0))

    def test_ill_conditioned_closed_form_names_the_condition_number(self):
        # A is nilpotent (spectral radius 0), yet (I - A) has condition
        # number about 1e26
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.array([[0.0, 1e13],
                                                  [0.0, 0.0]]))
        cond = np.linalg.cond(np.eye(2) - spec.a_matrix)
        with pytest.raises(SingularDrawError,
                           match=re.escape(f"condition number {cond:.3g}")):
            cluster.closed_form_cluster_index(spec, Direction([1.0, 0.0]),
                                              100)


class TestAr1Kernel:
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.95, 0.999])
    @pytest.mark.parametrize("steps, rows", [
        (1, 1), (1, 100), (7, 1), (7, 100), (2512, 1), (2512, 100),
        (500_000, 1)])
    def test_matches_lfilter(self, a, steps, rows):
        # the blocked scan reorders the additions: compare within a few
        # ulps of the largest value, never bit for bit
        law = TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5)
        z = randkit.sample_law(derive_stream(4, 8), law,
                               rows * steps).reshape(rows, steps)
        ref = lfilter([1.0], [1.0, -a], z, axis=1)
        got = models._ar1(z, a)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_input(self, shape):
        # simulate_paths_batch accepts zero replicas; paths may be empty
        assert models._ar1(np.zeros(shape), 0.5).shape == shape

    # 500,000 steps are 6,330 blocks of 79, the last of 9, corrected 829
    # blocks at a time; 2,512 x 100 are 180 blocks of 14, 46 at a time;
    # 1 step is one block and 2 steps two, of width 1; 7 steps are four
    # blocks of 2 and 1,001 steps 101 blocks of 10, the last of 1 each
    @pytest.mark.parametrize("a", [0.5, -0.7, -0.95, 0.999])
    @pytest.mark.parametrize("steps, rows", [
        (500_000, 1), (2512, 100), (1, 5), (2, 3), (7, 4), (1001, 2)])
    def test_blocked_end_correction_keeps_the_one_shot_bytes(self, a, steps,
                                                             rows):
        law = TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5)
        z = randkit.sample_law(derive_stream(4, 20), law,
                               rows * steps).reshape(rows, steps)
        want = one_shot_ar1(z, a)
        got = models._ar1(z, a)
        assert got is z
        assert got.tobytes() == want.tobytes()


def one_shot_ar1(z, a):
    """The blocked scan as ``models._ar1`` ran before it worked in place:
    the draws copied into a zero-padded (rows, blocks, width) buffer and
    every block scanned at once, the last one over its padding too, then
    every block end corrected by one broadcast product over the path."""
    rows, t = z.shape
    width = max(1, round(t ** (1.0 / 3.0)))
    blocks = -(-t // width)
    y = np.zeros((rows, blocks, width))
    flat = y.reshape(rows, blocks * width)
    flat[:, :t] = z
    for j in range(1, width):
        y[:, :, j] += a * y[:, :, j - 1]
    if blocks > 1:
        ends = one_shot_ar1(y[:, :-1, -1], a ** width)
        y[:, 1:] += ends[:, :, None] * a ** np.arange(1, width + 1)
    return flat[:, :t]


def one_shot_var1_sums(spec, n, burn_in, replicas, stream):
    """The scalar linear chain's S_n from one draw of every innovation
    and one einsum over all replicas."""
    a = float(spec.a_matrix[0, 0])
    total = n + burn_in
    z = randkit.sample_law(stream, spec.innovation,
                           replicas * total).reshape(replicas, total)
    head = a ** np.arange(burn_in, 0, -1) * (1.0 - a ** n)
    tail = 1.0 - a ** np.arange(n, 0, -1)
    w = np.concatenate([head, tail]) * (1.0 / (1.0 - a))
    return np.einsum("ij,j->i", z, w)


def stepwise_garch_paths(spec, n, burn_in, replicas, stream):
    """(n, replicas) GARCH(1,1) observables drawn and updated one step at
    a time: one row of normals per step, X_t = sqrt(s2) z, then
    s2 <- s2 (z^2 a1 + b1) + a0."""
    a0, a1, b1 = spec.alpha0, spec.alpha1, spec.beta1
    start = a0 / (1.0 - a1 - b1) if a1 + b1 < 1.0 else a0
    s2 = np.full(replicas, start)
    out = np.empty((n, replicas))
    for t in range(n + burn_in):
        z = stream.rng.standard_normal(replicas)
        if t >= burn_in:
            out[t - burn_in] = np.sqrt(s2) * z
        s2 = s2 * (z ** 2 * a1 + b1) + a0
    return out


def garch_z0_squared(spec, replicas, stream, alpha):
    """(Theta_0, Z_0^2) as a GARCH(1,1) tail-process batch draws them:
    the signs, then Z_0^2 = 2G with G ~ Gamma((alpha + 1)/2)."""
    theta0 = spec.theta0(replicas, stream)[:, 0]
    return theta0, 2.0 * stream.rng.standard_gamma((alpha + 1.0) / 2.0,
                                                   replicas)


def expression_garch_tail_process(spec, horizon, replicas, stream, alpha):
    """GARCH(1,1) tail-process batch from whole-array expressions, with
    the running product of the volatility multipliers as its own array."""
    theta0, z0sq = garch_z0_squared(spec, replicas, stream, alpha)
    z = stream.rng.standard_normal((replicas, horizon))
    squares = np.concatenate([z0sq[:, None], z[:, :-1] ** 2], axis=1)
    pi = np.cumprod(spec.alpha1 * squares[:, :horizon] + spec.beta1, axis=1)
    theta = np.empty((replicas, horizon + 1, 1))
    theta[:, 0, 0] = theta0
    theta[:, 1:, 0] = np.sqrt(pi) * z * (theta0 / np.sqrt(z0sq))[:, None]
    return theta


def cumprod_kesten_tail_process(spec, horizon, replicas, stream):
    """Scalar-recurrence tail-process batch assembled whole: Theta_0, then
    cumprod of every multiplier at once, times Theta_0."""
    theta0 = spec.theta0(replicas, stream)
    mults = randkit.sample_law(stream, spec.a_law, replicas * horizon)
    theta = np.empty((replicas, horizon + 1, 1))
    theta[:, 0] = theta0
    theta[:, 1:, 0] = np.cumprod(mults.reshape(replicas, horizon),
                                 axis=1) * theta0
    return theta


def matmul_var1_tail_process(spec, horizon, replicas, stream):
    """Linear-chain tail-process batch: one matrix product a step on the
    rows of the whole batch."""
    theta = np.empty((replicas, horizon + 1, spec.dim))
    cur = theta[:, 0] = spec.theta0(replicas, stream)
    for t in range(1, horizon + 1):
        cur = cur @ spec.a_matrix.T
        theta[:, t] = cur
    return theta


def angle_stream(master_seed, stream_id, chunk=None):
    """The stream a tail-process batch draws on: the angle child of
    ``derive_stream(master_seed, stream_id)``, or of its substream
    ``chunk``."""
    stream = derive_stream(master_seed, stream_id)
    if chunk is not None:
        stream = stream.substream(chunk)
    return stream.substream(models._ANGLE_CHILD)


class TestPathFreeSums:
    @pytest.mark.parametrize("a, family", [
        (0.5, randkit.PARETO), (0.0, randkit.PARETO),
        (-0.9, randkit.SYMMETRIC_PARETO), (0.999, randkit.PARETO)])
    def test_weighted_sum_matches_path_sum(self, a, family):
        spec = models.Var1Spec(TailLaw(family, alpha=1.5, scale=2.0),
                               a_matrix=np.array([[a]]))
        got = spec.sums(400, 60, 50, derive_stream(4, 9))
        paths = spec.paths(400, 60, 50, derive_stream(4, 9))[..., 0]
        # relative to the sum of |X_t|, the scale of the rounding of either
        # order of summation (signed terms can cancel to near zero)
        scale = np.abs(paths).sum(axis=1)
        assert got.shape == (50,)
        assert np.max(np.abs(got - paths.sum(axis=1)) / scale) <= 1e-13

    def test_rows_do_not_depend_on_the_batch(self, ar_pareto15):
        three = ar_pareto15.sums(1000, 53, 3, derive_stream(4, 10))
        one = ar_pareto15.sums(1000, 53, 1, derive_stream(4, 10))
        assert three[:1].tobytes() == one.tobytes()

    # scalar linear chain, 1,000 observed steps after its 53-step burn-in:
    # 62 replicas per block; a 9,053-step row (longer than numpy's
    # 8,192-element buffer) gives 7 per block and 8 ends on a lone replica
    @pytest.mark.parametrize("family", [randkit.PARETO,
                                        randkit.SYMMETRIC_PARETO])
    @pytest.mark.parametrize("n, replicas", [
        (1000, 0), (1000, 1), (1000, 61), (1000, 63), (1000, 3983),
        (9000, 8)])
    def test_blocked_sums_keep_the_one_shot_bytes(self, family, n,
                                                  replicas):
        spec = models.Var1Spec(TailLaw(family, alpha=1.5),
                               a_matrix=np.array([[0.5]]))
        got = spec.sums(n, 53, replicas, derive_stream(4, 14))
        want = one_shot_var1_sums(spec, n, 53, replicas,
                                  derive_stream(4, 14))
        assert got.tobytes() == want.tobytes()

    def test_blocked_sums_hold_one_block(self, ar_pareto15):
        # one 3,983 x 1,053 scan chunk is 33.5 MB of innovations
        tracemalloc.start()
        try:
            ar_pareto15.sums(1000, 53, 3983, derive_stream(4, 15))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_recurrence_keeps_the_path_sum(self, kesten_lognormal):
        # positive (Pareto) and signed (symmetric Pareto) additive terms;
        # 256 replicas per block, so 513 ends on a lone replica and 600
        # crosses two block edges
        signed = models.KestenSpec(
            a_law=kesten_lognormal.a_law,
            b_law=TailLaw(randkit.SYMMETRIC_PARETO, alpha=10.0))
        for spec in (kesten_lognormal, signed):
            for n, burn_in, replicas in [(200, 30, 4), (40, 10, 513),
                                         (40, 10, 600)]:
                got = spec.sums(n, burn_in, replicas, derive_stream(4, 11))
                ref = spec.paths(n, burn_in, replicas, derive_stream(4, 11))
                assert got.tobytes() == ref[..., 0].sum(axis=1).tobytes()

    def test_recurrence_blocks_draw_multipliers_then_additive_terms(
            self, kesten_lognormal):
        # 300 replicas: a block of 256, then one of 44; each block reads
        # its multipliers, then its additive terms, off the one stream
        spec = kesten_lognormal
        n, burn_in = 30, 20
        got = spec.paths(n, burn_in, 300, derive_stream(4, 16))[..., 0]
        twin = derive_stream(4, 16)
        for lo, m in [(0, 256), (256, 44)]:
            a, b = (randkit.sample_law(twin, law, m * (n + burn_in)).reshape(
                m, n + burn_in) for law in (spec.a_law, spec.b_law))
            want = np.empty((m, n))
            models._recurse(a, b, want)
            assert got[lo:lo + m].tobytes() == want.tobytes()

    def test_recurrence_sums_hold_one_block(self):
        # one 1,036 x 4,048 scan chunk on the bench law is 33.5 MB of
        # multipliers and as much of additive terms
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        tracemalloc.start()
        try:
            spec.sums(2000, 2048, 1036, derive_stream(4, 17))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    @pytest.mark.parametrize("params", [(0.05, 0.5, 0.55), (0.05, 0.1, 0.85)])
    def test_volatility_sums_keep_the_path_sum(self, params):
        spec = models.Garch11Spec(*params)
        got = spec.sums(400, 60, 50, derive_stream(4, 13))
        paths = spec.paths(400, 60, 50, derive_stream(4, 13))[..., 0]
        # a step-by-step sum against numpy's pairwise one, relative to the
        # sum of |X_t|
        scale = np.abs(paths).sum(axis=1)
        assert got.shape == (50,)
        assert np.max(np.abs(got - paths.sum(axis=1)) / scale) <= 1e-12

    # 64 steps a block: 137 steps end mid-block, burn-in 37 ends inside
    # the first block, 69 inside the second, 64 on its edge
    @pytest.mark.parametrize("replicas", [1, 2, 3, 100, 1033])
    @pytest.mark.parametrize("n, burn_in", [
        (100, 37), (100, 0), (68, 69), (130, 64), (5, 0)])
    def test_volatility_blocks_keep_the_stepwise_bytes(self, replicas, n,
                                                       burn_in):
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        want = stepwise_garch_paths(spec, n, burn_in, replicas,
                                    derive_stream(4, 18))
        got = spec.paths(n, burn_in, replicas, derive_stream(4, 18))
        assert got.shape == (replicas, n, 1)
        assert got[..., 0].T.tobytes() == want.tobytes()
        # the sums add the rows of the same path in step order
        total = np.zeros(replicas)
        for row in want:
            total += row
        sums = spec.sums(n, burn_in, replicas, derive_stream(4, 18))
        assert sums.tobytes() == total.tobytes()

    def test_volatility_sums_hold_one_block(self):
        # one 1,033 x 4,057 scan chunk of the bench GARCH law is 33.5 MB
        # of normals; the sums hold three 64-step blocks
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        tracemalloc.start()
        try:
            spec.sums(2000, 2057, 1033, derive_stream(4, 19))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_sums_are_scalar_only(self):
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.eye(2) * 0.5)
        with pytest.raises(ParameterError):
            spec.sums(64, 16, 5, derive_stream(4, 12))

    @pytest.mark.parametrize("a_matrix, burn", [
        ([[0.5]], 53), ([[0.0]], 1), ([[-0.9]], 349),
        ([[0.5, 0.0], [0.0, 0.3]], 53),
        # non-normal: ||A^b|| stays above rho^b, so the scan steps past
        # the spectral-radius bound (349)
        ([[0.9, 1.0], [0.0, 0.9]], 407)])
    def test_default_burn_from_the_contraction_rate(self, a_matrix, burn):
        a = np.array(a_matrix)
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=a)
        assert spec.default_burn == burn
        norm = np.linalg.norm(np.linalg.matrix_power(a, burn), 2)
        assert norm <= 2.0 ** -53
        if burn > 1:
            assert np.linalg.norm(np.linalg.matrix_power(a, burn - 1),
                                  2) > 2.0 ** -53


BENCH_KESTEN = dict(a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
                    b_law=TailLaw(randkit.PARETO, alpha=10.0))


class TestWarmUp:
    """Every family's default burn-in is the smallest K with
    rho^K <= 2^-53, rho the least moment of its multiplier where the
    stationary law has that moment."""

    def test_model_spec_sets_no_shared_burn_in(self):
        assert not hasattr(models.ModelSpec, "default_burn")

    @pytest.mark.parametrize("a_law, burn", [
        # rho = E A^0.75 = exp(-9/32) on the bench law (alpha 1.5)
        (BENCH_KESTEN["a_law"], 131),
        # alpha = 2: rho = E A = exp(-1/4) at s = 1
        (TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)), 147)])
    def test_recurrence_burn_in(self, a_law, burn):
        spec = models.KestenSpec(a_law=a_law,
                                 b_law=TailLaw(randkit.PARETO, alpha=10.0))
        assert spec.default_burn == burn

    @pytest.mark.parametrize("params, burn", [
        # rho = min_s E A^(s/2) = 0.98229 near s = 0.72 (kappa 1.40)
        ((0.05, 0.5, 0.55), 2057),
        # the golden GARCH law (kappa 9.07): the least moment on (0, 1]
        ((0.05, 0.1, 0.85), 1312)])
    def test_volatility_burn_in(self, params, burn):
        assert models.Garch11Spec(*params).default_burn == burn

    @pytest.mark.parametrize("moment, lo, hi", [
        (lambda s: 0.5, 0.0, 1.0),
        (lambda s: 2.0 ** -53, 0.0, 1.0),
        (lambda s: np.exp(-0.75 * s + s * s / 2.0), 0.0, 1.0),
        (lambda s: np.exp(-0.5 * s + s * s / 4.0), 0.0, 1.0),
        (lambda s: models._garch_power_moment(0.5, 0.55, s), 0.0, 1.0),
        (lambda s: 1.0 - 1e-3 * s, 0.25, 0.5)])
    def test_horizon_is_the_least_that_contracts(self, moment, lo, hi):
        k = models._moment_horizon(moment, lo, hi)
        rho = float(np.min(moment(np.linspace(lo, hi, 1025))))
        assert k >= 1
        assert rho ** k <= 2.0 ** -53 < rho ** (k - 1)

    @pytest.mark.parametrize("moment, lo, hi", [
        # the bench and golden GARCH laws, and the Kesten laws over the
        # ranges of their warm-up and of their auxiliary chain
        (lambda s: models._garch_power_moment(0.5, 0.55, s), 0.0, 1.0),
        (lambda s: models._garch_power_moment(0.1, 0.85, s), 0.0, 1.0),
        (lambda s: randkit.law_moment(BENCH_KESTEN["a_law"], s), 0.0, 0.75),
        (lambda s: randkit.law_moment(BENCH_KESTEN["a_law"], s), 0.5, 1.0),
        (lambda s: randkit.law_moment(
            TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)), s),
         0.0, 1.0),
        (lambda s: randkit.law_moment(
            TailLaw(randkit.PARETO, alpha=2.0, scale=0.2), s), 0.0, 1.0)])
    def test_grid_minimum_is_the_pointwise_minimum(self, moment, lo, hi):
        # one array call over the grid against one call per point; numpy's
        # array exp and power may round an entry differently, and the
        # horizon reads the minimum alone
        grid = np.linspace(lo, hi, 1025)
        pointwise = min(moment(s) for s in grid)
        assert float(np.min(moment(grid))) == pointwise

    def test_no_contraction_is_rejected(self):
        with pytest.raises(ParameterError, match="E A"):
            models._moment_horizon(lambda s: 1.0 + s, 0.0, 1.0)

    def test_recurrence_pilot_runs_the_burn_in(self, monkeypatch):
        # Pareto multipliers and additive terms take one word per draw
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.PARETO, alpha=2.0, scale=0.2),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        children = []
        substream = randkit.RngStream.substream

        def recorded(stream, child_id):
            children.append(substream(stream, child_id))
            return children[-1]

        monkeypatch.setattr(randkit.RngStream, "substream", recorded)
        stream = derive_stream(5, 6)
        pilot = models.stationary_pilot(spec, stream)
        assert pilot.shape == (200_000, 1)
        assert spec.default_burn == 41
        assert stream.counter == 0
        assert [child.counter for child in children] == [
            2 * 100 * (2000 + spec.default_burn)]


class TestTailProcess:
    def test_var1_rows_are_exact_powers(self, ar_pareto15):
        theta = models.sample_tail_process_batch(
            ar_pareto15, 12, 256, derive_stream(6, 1))
        expect = 0.5 ** np.arange(13)
        for row in theta[:, :, 0]:
            assert np.array_equal(row, expect)

    def test_symmetric_innovation_mixes_signs(self, ar_sympareto15):
        theta = models.sample_tail_process_batch(
            ar_sympareto15, 4, 4000, derive_stream(6, 2))
        first = theta[:, 0, 0]
        assert set(np.unique(first)) == {-1.0, 1.0}
        assert abs(first.mean()) < 0.06

    def test_unit_modulus_at_time_zero(self, garch_benchmark):
        theta = models.sample_tail_process_batch(
            garch_benchmark, 8, 2000, derive_stream(6, 3))
        assert theta.shape == (2000, 9, 1)
        assert set(np.unique(theta[:, 0, 0])) == {-1.0, 1.0}

    def test_garch_tilted_angle_moment(self):
        # E|Theta_1| = E|Z| E sqrt(a1 Z_0^2 + b1) / |Z_0| under the
        # size-biased density |z|^alpha phi(z) / E|Z|^alpha of Z_0, by
        # direct quadrature; |Theta_1| has a finite variance for alpha > 1
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        alpha = spec.tail_index()

        def tilted(f):
            return 2.0 * quad(lambda z: f(z) * z ** alpha
                              * math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
                              0.0, 40.0, limit=200)[0]

        target = math.sqrt(2.0 / math.pi) * tilted(
            lambda z: math.sqrt(spec.alpha1 * z * z + spec.beta1) / z) \
            / tilted(lambda z: 1.0)
        theta = models.sample_tail_process_batch(
            spec, 1, 400_000, derive_stream(6, 5))
        size = np.abs(theta[:, 1, 0])
        assert abs(size.mean() - target) <= 4.0 * size.std() / math.sqrt(
            size.size)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_garch_size_biased_innovation_moment(self, p):
        # |Z_0| = sqrt(2G), G ~ Gamma((alpha + 1)/2), has the density
        # |z|^alpha phi(z) / E|Z|^alpha on both signs together, so
        # E|Z_0|^p = 2^(p/2) Gamma((alpha + p + 1)/2) / Gamma((alpha + 1)/2)
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        alpha = spec.tail_index()
        _, z0sq = garch_z0_squared(spec, 400_000, derive_stream(6, 4),
                                   alpha)
        exact = 2.0 ** (p / 2.0) * math.exp(
            math.lgamma((alpha + p + 1.0) / 2.0)
            - math.lgamma((alpha + 1.0) / 2.0))
        moment = z0sq ** (p / 2.0)
        assert abs(moment.mean() - exact) <= 4.0 * moment.std() / math.sqrt(
            moment.size)

    def test_garch_time_change_formula(self):
        # Basrak & Segers (2009): E|Theta_t|^alpha = 1 for every t >= 0 when
        # P(|Theta_{-t}| = 0) = 0, as here; alpha 0.687 < 1 keeps the
        # variance of |Theta_t|^alpha finite
        spec = models.Garch11Spec(0.05, 1.5, 0.1)
        alpha = spec.tail_index()
        theta = models.sample_tail_process_batch(
            spec, 8, 400_000, derive_stream(6, 9))
        powers = np.abs(theta[:, :, 0]) ** alpha
        assert np.all(powers[:, 0] == 1.0)
        se = powers[:, 1:].std(axis=0) / math.sqrt(len(powers))
        assert np.all(np.abs(powers[:, 1:].mean(axis=0) - 1.0) <= 4.0 * se)

    @pytest.mark.parametrize("horizon", [0, 1, 64])
    def test_garch_batch_matches_expression_form(self, horizon):
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        alpha = spec.tail_index()
        got = models.sample_tail_process_batch(spec, horizon, 3000,
                                               derive_stream(6, 7))
        want = expression_garch_tail_process(spec, horizon, 3000,
                                             angle_stream(6, 7), alpha)
        assert got.tobytes() == want.tobytes()

    def test_index_set_on_the_instance_drives_every_reader(self):
        # index 2.0 in place of the law's 1.40: the size bias of Z_0 and
        # the first-step values both read it. At alpha 2 the first-step
        # identity is 1/2 for every u, and the values keep the bytes of
        # an explicit alpha = 2.0 (the pin)
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        spec.alpha = 2.0
        assert models.tail_index(spec) == 2.0
        got = models.sample_tail_process_batch(spec, 16, 1000,
                                               derive_stream(6, 30))
        want = expression_garch_tail_process(spec, 16, 1000,
                                             angle_stream(6, 30), 2.0)
        assert got.tobytes() == want.tobytes()
        vals = spec.first_step_values(16, 1000, derive_stream(6, 30))
        assert np.all(np.abs(vals - 0.5) < 1e-12)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == (
            "b2131fc8e07bb5d6c39122ede39540ac"
            "698e4aa907a1eb501959ab674700c57f")

    def test_garch_batch_is_built_in_its_output(self, garch_benchmark):
        # the 8,192 x 65 output is 4.3 MB; the time-zero draws and one
        # 512-replica block (normals, angles and the cumulative product's
        # copy of its operand) add about 1.6 MB
        tracemalloc.start()
        try:
            models.sample_tail_process_batch(garch_benchmark, 64, 8192,
                                             derive_stream(6, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6

    @pytest.mark.parametrize("b_law", [
        TailLaw(randkit.PARETO, alpha=10.0),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=10.0)])
    @pytest.mark.parametrize("horizon", [0, 12])
    def test_kesten_batch_matches_cumprod_assembly(self, b_law, horizon):
        # one-atom and two-atom Theta_0 laws: the in-place cumulative
        # product gives the bytes of cumprod(A) * Theta_0 on one stream
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=0.5),
            b_law=b_law)
        replicas = 3000
        got = models.sample_tail_process_batch(spec, horizon, replicas,
                                               derive_stream(6, 6))
        want = cumprod_kesten_tail_process(spec, horizon, replicas,
                                           angle_stream(6, 6))
        assert got.tobytes() == want.tobytes()


def _sum_values(proj, alpha=1.4):
    return cluster._sum_difference(proj, alpha)


def _sup_values(proj, alpha=1.4):
    return cluster._sup_difference(proj, alpha)


# each family with its whole-batch reference and a direction
BLOCKED_FAMILIES = {
    "var1_1d": (lambda: models.Var1Spec(
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
        a_matrix=np.array([[-0.7]])), matmul_var1_tail_process, [1.0]),
    "var1_2d": (lambda: models.Var1Spec(
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
        a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]])),
        matmul_var1_tail_process, [0.6, -0.8]),
    "kesten": (lambda: models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
        b_law=TailLaw(randkit.SYMMETRIC_PARETO, alpha=10.0)),
        cumprod_kesten_tail_process, [1.0]),
    "garch": (lambda: models.Garch11Spec(0.05, 0.5, 0.55),
              lambda spec, horizon, replicas, stream:
              expression_garch_tail_process(spec, horizon, replicas, stream,
                                            spec.tail_index()),
              [1.0]),
    # the law of persistent sigma (beta1 = 0.85) and tail index 9.07: the
    # gamma shape of Z_0 and the power of the functional move with it
    "garch_sigma": (lambda: models.Garch11Spec(0.05, 0.1, 0.85),
                    lambda spec, horizon, replicas, stream:
                    expression_garch_tail_process(
                        spec, horizon, replicas, stream, spec.tail_index()),
                    [-1.0]),
}


class TestBlockedTailProcess:
    """Routes draw and reduce each chunk in blocks of ``_TAIL_BLOCK``
    replicas; every value keeps the bytes of the whole-chunk batch
    projected on theta by a matrix product."""

    BLOCK = models._TAIL_BLOCK

    @pytest.mark.parametrize("family", sorted(BLOCKED_FAMILIES))
    @pytest.mark.parametrize("horizon", [0, 1, 64])
    @pytest.mark.parametrize("replicas", [100, BLOCK - 1, BLOCK + 1,
                                          8192, 8193])
    def test_values_and_angles_match_the_whole_chunk(self, family, horizon,
                                                     replicas):
        make, whole, tv = BLOCKED_FAMILIES[family]
        spec, tv = make(), np.array(tv)
        ref = whole(spec, horizon, replicas, angle_stream(6, 20))
        for d in (tv, -tv):  # one batch per direction
            got = models.sample_tail_process_batch(
                spec, horizon, replicas, derive_stream(6, 20), d,
                [_sum_values, _sup_values])
            want = [_sum_values(ref @ d), _sup_values(ref @ d)]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        angles = models.sample_tail_process_batch(
            spec, horizon, replicas, derive_stream(6, 20))
        assert angles.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("family", ["kesten", "garch", "garch_sigma"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_projection_in_place_is_the_product(self, family, sign):
        # the scalar families scale each block's own buffer by theta: the
        # bits of a separate product theta * Theta_t, on blocks that the
        # next one overwrites (GARCH) or that are fresh (Kesten)
        make, _, _ = BLOCKED_FAMILIES[family]
        spec = make()
        replicas = 2 * self.BLOCK + 7
        angles = models.sample_tail_process_batch(
            spec, 16, replicas, derive_stream(6, 23))
        proj = models.sample_tail_process_batch(
            spec, 16, replicas, derive_stream(6, 23), np.array([sign]))
        assert np.array_equal(proj, angles[..., 0] * sign)

    @pytest.mark.parametrize("family", sorted(BLOCKED_FAMILIES))
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("horizon", [0, 1, 64])
    def test_signed_route_matches_whole_chunk_moments(self, family,
                                                      threads, horizon):
        # the route at each sign, on three chunks, the last partial: each
        # chunk's moments from the whole-chunk values (and, where the family knows the control's
        # mean, the whole-chunk control) at the spec's own tail index,
        # merged in chunk order
        make, whole, tv = BLOCKED_FAMILIES[family]
        spec = make()
        theta = Direction(tv)
        alpha = spec.tail_index()
        replicas = 2 * cluster._CHUNK + self.BLOCK + 1
        s = cluster._control_power(alpha)
        for sign in (1, -1):
            (est,) = cluster._mc_functional(
                spec, theta if sign == 1 else theta.negated(),
                [(cluster._sum_difference, cluster.ROUTE_TAIL_PROCESS,
                  horizon)], replicas, derive_stream(6, 21), threads)
            ec = spec.tail_moments(sign * theta.vector, s, horizon)
            parts = []
            for i, lo in enumerate(range(0, replicas, cluster._CHUNK)):
                take = min(cluster._CHUNK, replicas - lo)
                ref = whole(spec, horizon, take, angle_stream(6, 21, i))
                proj = ref @ (sign * theta.vector)
                parts.append(cluster._moments(
                    cluster._sum_difference(proj, alpha),
                    None if ec is None else cluster._control(proj, s)))
            _, mean, m2, *co = cluster._merge_moments(parts)
            ddof = 1
            if horizon and ec is not None:
                mean_c, m2_c, c_fc = co
                mean -= c_fc / m2_c * (mean_c - ec)
                m2 = max(m2 - c_fc * c_fc / m2_c, 0.0)
                ddof = 2
            assert (est.value, est.std_error, est.plug_in_se) == (
                mean, math.sqrt(m2 / (replicas - ddof) / replicas),
                math.sqrt(m2) / replicas)

    def test_garch_route_chunk_holds_blocks(self, garch_benchmark):
        # one 8,192-replica, 64-step tail-process chunk reduced by two
        # functionals, as a shared batch of ``cluster._mc_functional``
        # reduces it: the whole batch would be 8.5 MB and its projection
        # 4.3 MB
        tracemalloc.start()
        try:
            models.sample_tail_process_batch(
                garch_benchmark, 64, 8192, derive_stream(6, 22),
                np.array([1.0]), [_sum_values, _sup_values])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_garch_first_step_chunk_holds_blocks(self, garch_benchmark):
        # one 8,192-path, 256-step first-step chunk: its normals and
        # products would be 16.8 MB each if drawn whole, its quadrature
        # grid 8.4 MB
        tracemalloc.start()
        try:
            garch_benchmark.first_step_values(256, 8192,
                                              derive_stream(6, 24))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6

    def test_direction_of_the_wrong_dimension_is_rejected(
            self, garch_benchmark):
        with pytest.raises(ParameterError, match="dimension"):
            models.sample_tail_process_batch(
                garch_benchmark, 4, 100, derive_stream(6, 23),
                np.array([0.0, 1.0]), [_sum_values])


class TestExceedanceAngles:
    def test_pareto_innovation_is_plus_one(self, ar_pareto15):
        ang = ar_pareto15.theta0(500, derive_stream(7, 1))
        assert np.array_equal(ang, np.ones((500, 1)))

    def test_symmetric_innovation_is_half_half(self, ar_sympareto15):
        ang = ar_sympareto15.theta0(20_000, derive_stream(7, 2))
        frac = (ang[:, 0] > 0).mean()
        assert abs(frac - 0.5) < 0.02

    @pytest.mark.parametrize("a", [0.5, -0.5])
    @pytest.mark.parametrize("family", [randkit.PARETO,
                                        randkit.SYMMETRIC_PARETO])
    def test_scalar_linear_chain_two_point_law(self, a, family):
        # one big innovation at lag j lands on sign(a^j) times its own
        # sign, with weight |a|^(j alpha)
        spec = models.Var1Spec(TailLaw(family, alpha=1.5),
                               a_matrix=np.array([[a]]))
        p_pos = 1.0 if family == randkit.PARETO else 0.5
        r = abs(a) ** 1.5
        even = p_pos if a > 0 else (p_pos + (1.0 - p_pos) * r) / (1.0 + r)
        law = spec.theta0_law()
        assert abs(mass_at(law, [1.0]) - even) < 1e-12
        assert abs(mass_at(law, [-1.0]) - (1.0 - even)) < 1e-12

    def test_heavy_tail_with_fast_decay_stays_on_sphere(self):
        # alpha = 0.1 keeps terms with |a^j| near 1e-160, whose squares
        # underflow
        for a in (np.array([[0.1]]), np.diag([0.5, 0.1])):
            spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=0.1),
                                   a_matrix=a)
            vecs, weights = spec.theta0_law()
            assert np.array_equal(vecs, np.eye(a.shape[0]))
            assert abs(weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("diag, alpha", [
        # the series needs about 2,600 lags before its terms fall below
        # 1e-17 of the largest
        ((0.99, 0.5), 1.5),
        # 10^(-17 / alpha) underflows: the cut falls where 0.5^j does
        ((0.5, 0.1), 0.05)])
    def test_diagonal_chain_keeps_the_whole_series(self, diag, alpha):
        # diagonal A: coordinate i carries S_i = sum_j a_i^(j alpha)
        # = 1 / (1 - a_i^alpha)
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=alpha),
                               a_matrix=np.diag(diag))
        s1, s2 = (1.0 / (1.0 - a ** alpha) for a in diag)
        law = spec.theta0_law()
        assert abs(mass_at(law, [1.0, 0.0]) - s1 / (s1 + s2)) < 1e-12
        assert abs(mass_at(law, [0.0, 1.0]) - s2 / (s1 + s2)) < 1e-12

    @pytest.mark.parametrize("family, p_up", [(randkit.PARETO, 1.0),
                                              (randkit.GAUSSIAN, 0.5)])
    def test_scalar_recurrence_sign_law(self, family, p_up):
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=0.5),
            b_law=TailLaw(family, alpha=10.0))
        law = spec.theta0_law()
        assert mass_at(law, [1.0]) == p_up
        assert mass_at(law, [-1.0]) == 1.0 - p_up

    def test_scalar_recurrence_stable_sign_law(self):
        # a symmetric stable B splits Theta_0 evenly; a skewed one has no
        # exact angle law here
        a_law = TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0)
        spec = models.KestenSpec(a_law=a_law,
                                 b_law=TailLaw(randkit.STABLE, alpha=1.8))
        law = spec.theta0_law()
        assert mass_at(law, [1.0]) == mass_at(law, [-1.0]) == 0.5
        skewed = models.KestenSpec(
            a_law=a_law, b_law=TailLaw(randkit.STABLE, alpha=1.8, skew=0.5))
        with pytest.raises(UnsupportedLawError, match="additive family"):
            skewed.theta0_law()

    def test_scalar_draws_keep_u_below_p_up(self):
        # the CDF inversion keeps the draws u < P(Theta_0 = +1)
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.array([[-0.5]]))
        p_up = mass_at(spec.theta0_law(), [1.0])
        ang = spec.theta0(5000, derive_stream(7, 3))
        u = derive_stream(7, 3).rng.random(5000)
        assert np.array_equal(ang[:, 0], np.where(u < p_up, 1.0, -1.0))

    def test_volatility_recursion_sign_law(self, garch_benchmark):
        # Theta_0 = sign(Z_0) for the symmetric Gaussian Z_0
        law = garch_benchmark.theta0_law()
        assert mass_at(law, [1.0]) == mass_at(law, [-1.0]) == 0.5


class TestDrift:
    def test_var1_margin_matches_coefficient(self, ar_pareto15):
        grid = [np.array([x]) for x in np.geomspace(0.5, 32.0, 7)]
        rep = models.drift_margin(ar_pareto15, 1.0, grid,
                                  derive_stream(8, 1))
        assert rep.passed
        assert abs(rep.beta_hat - 0.5) < 0.05

    def test_recurrence_margin_matches_multiplier_mean(self,
                                                        kesten_lognormal):
        # p = 1 and A, B > 0: E|A y + B| = E A y + E B exactly, so the
        # fitted slope is E A = exp(-1/2 + 1/4)
        grid = [np.array([x]) for x in np.geomspace(0.5, 32.0, 7)]
        rep = models.drift_margin(kesten_lognormal, 1.0, grid,
                                  derive_stream(8, 2))
        assert abs(rep.beta_hat - math.exp(-0.25)) < 0.05
        assert rep.passed


class TestStationaryTail:
    def test_linear_chain_tail_constant(self, ar_pareto15):
        c, scale = ar_pareto15.tail_constant()
        assert scale == 1.0
        assert abs(c - 1.0 / (1.0 - 0.5 ** 1.5)) < 1e-14

    def test_constant_matches_long_path_tail(self, ar_pareto15):
        # clustered exceedances inflate the sampling error well beyond
        # the iid binomial rate, so the band is generous; a wrong
        # constant (e.g. dropping the geometric factor, a 55% shift)
        # still fails it decisively
        (c, scale), alpha = ar_pareto15.tail_constant(), 1.5
        path = models.simulate_path(ar_pareto15, 1_000_000, 1000,
                                    derive_stream(8, 2))
        x = np.abs(path[:, 0])
        for q in (100.0, 250.0):
            emp = (x > q).mean()
            theo = c * (q / scale) ** -alpha
            assert abs(emp - theo) / theo < 0.20
