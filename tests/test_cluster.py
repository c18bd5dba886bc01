"""Cluster-index routes against closed-form targets.

For the scalar linear chain with coefficient a and all-positive
innovations the index along +1 is (1/(1-a))^alpha - (a/(1-a))^alpha,
which is 2^alpha - 1 at a = 1/2; the sup functional gives 1 - a^alpha.
Symmetric innovations halve the one-sided values. These targets anchor
every route.
"""
import functools
import math

import numpy as np
import pytest
from scipy import integrate

from heavytail import cluster, limits, models, randkit
from heavytail.cluster import (ClusterIndexEstimate, Direction,
                               LimitMeasureEvaluator,
                               closed_form_cluster_index,
                               cluster_index_tail_process, extremal_index,
                               nu_alpha, telescoping_difference)
from heavytail.errors import (OutOfRegimeError, ParameterError,
                              UnsupportedCaseError)
from heavytail.randkit import TailLaw, derive_stream

B_TARGET = 2.0 ** 1.5 - 1.0


@pytest.fixture
def small_b_route(monkeypatch):
    """The b(theta) route of ``limits`` on two full chunks and a partial
    one of a short horizon, in place of its one 2,048 x 256 chunk."""
    monkeypatch.setattr(limits, "_B_REPLICAS", 2 * cluster._CHUNK + 500)
    monkeypatch.setattr(limits, "_B_HORIZON", 8)


@pytest.fixture
def bench_garch():
    """The bench GARCH law, alpha 1.40: the first-step b has a finite
    variance below alpha 2."""
    return models.Garch11Spec(0.05, 0.5, 0.55)


def _mc_sup(spec, th, horizon, replicas, stream, threads=1):
    """The Monte Carlo sup functional, which ``extremal_index`` skips for
    a family with an exact one: a one-element list."""
    return cluster._mc_functional(
        spec, th,
        [(cluster._sup_difference, cluster.ROUTE_TAIL_PROCESS, horizon)],
        replicas, stream, threads)


def with_index(spec, alpha):
    """``spec`` with its tail index set to ``alpha`` on the instance, a
    stand-in for a law whose moment root is ``alpha``."""
    spec.tail_index = lambda: alpha
    return spec


def near_degenerate_half_spec(alpha=1.5):
    """Scalar recurrence whose multiplier is concentrated at 1/2 (the
    moment equation then has no root, so the index is set on the
    instance)."""
    return with_index(models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=math.log(0.5), sigma=1e-9),
        b_law=TailLaw(randkit.PARETO, alpha=10.0)), alpha)


class TestDirection:
    def test_normalizes(self):
        d = Direction([3.0, 4.0])
        assert np.allclose(d.vector, [0.6, 0.8])
        assert d.dim == 2

    def test_hashable_and_negated(self):
        d = Direction([1.0])
        assert d.negated().vector[0] == -1.0
        assert len({d, Direction([1.0])}) == 1

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            Direction([0.0, 0.0])


class TestClosedForm:
    def test_linear_chain_positive_direction(self, ar_pareto15):
        est = closed_form_cluster_index(ar_pareto15, Direction([1.0]), 1000)
        assert abs(est.value - B_TARGET) < 1e-12
        assert est.route == cluster.ROUTE_CLOSED_FORM

    def test_linear_chain_negative_direction_vanishes(self, ar_pareto15):
        # all innovations positive: the sum never lands in the negative
        # half-line, so b(-1) = 0
        est = closed_form_cluster_index(ar_pareto15, Direction([-1.0]),
                                        1000)
        assert est.value == 0.0

    def test_symmetric_innovations_split_mass(self, ar_sympareto15):
        # Theta_0 = +-1 with mass 1/2 each: the exact sum halves the
        # one-sided value in both directions
        for sign in (1.0, -1.0):
            est = closed_form_cluster_index(ar_sympareto15,
                                            Direction([sign]), 200_000)
            assert abs(est.value - B_TARGET / 2.0) < 1e-12

    def test_diagonal_linear_chain_matches_exact_index(self):
        # A = diag(a1, a2), Pareto innovations: Theta_0 = e_i with
        # probability c_i / (c1 + c2), c_i = 1 / (1 - a_i^alpha), and
        # only e1 contributes along e1
        alpha, a1, a2 = 1.5, 0.5, 0.3
        spec = models.Var1Spec(2, TailLaw(randkit.PARETO, alpha=alpha),
                               a_matrix=np.diag([a1, a2]))
        c1, c2 = 1.0 / (1.0 - a1 ** alpha), 1.0 / (1.0 - a2 ** alpha)
        exact = c1 / (c1 + c2) * ((1.0 - a1) ** -alpha
                                  - (a1 / (1.0 - a1)) ** alpha)
        est = closed_form_cluster_index(spec, Direction([1.0, 0.0]), 200_000)
        assert abs(est.value - exact) < 1e-12
        assert (est.std_error, est.replicas, est.horizon) == (0.0, 0, 0)

    @pytest.mark.parametrize("name", ["var1_dim2", "kesten_lognormal"])
    def test_exact_theta0_law_reads_no_pilot(self, request, monkeypatch,
                                             name):
        # the 2-d linear chain and the scalar recurrence: both Theta_0
        # laws are exact, so neither cluster route draws the pilot
        if name == "var1_dim2":
            spec = models.Var1Spec(
                2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
                a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]))
        else:
            spec = request.getfixturevalue(name)
        theta = Direction(np.ones(spec.dim))

        def no_pilot(*args):
            raise AssertionError("a cluster route drew the pilot")

        monkeypatch.setattr(models, "stationary_pilot", no_pilot)
        closed_form_cluster_index(spec, theta, 1000)
        cluster_index_tail_process(spec, theta, 10, 1000,
                                   derive_stream(41, 6))

    def test_recurrence_with_half_multiplier(self):
        # A = 1/2 exactly reproduces the linear-chain target through the
        # perpetuity fixed point: W = 1 sits on the lattice
        spec = near_degenerate_half_spec()
        est = closed_form_cluster_index(spec, Direction([1.0]), 4000)
        assert abs(est.value - B_TARGET) < 1e-8

    def test_volatility_recursion_has_no_closed_form(self,
                                                     garch_benchmark):
        assert garch_benchmark.exact_cluster_index(np.ones(2)) is None
        with pytest.raises(UnsupportedCaseError):
            closed_form_cluster_index(garch_benchmark, Direction([0.0, 1.0]),
                                      1000)


_KESTEN_SPECS = {
    "bench_lognormal": lambda: models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
        b_law=TailLaw(randkit.PARETO, alpha=10.0)),
    "kesten_lognormal": lambda: models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)),
        b_law=TailLaw(randkit.PARETO, alpha=10.0)),
    "near_degenerate_half": near_degenerate_half_spec,
    "pareto_multiplier": lambda: models.KestenSpec(
        a_law=TailLaw(randkit.PARETO, alpha=2.0, scale=0.2),
        b_law=TailLaw(randkit.PARETO, alpha=10.0)),
}


def _moment_recursion(moment, k):
    """E[(W+1)^k - W^k] = sum_{j<k} C(k, j) E W^j for the perpetuity
    W =_d A (1 + W), with E W^j = E A^j sum_{i<j} C(j, i) E W^i
    / (1 - E A^j) from the binomial expansion; ``moment(j)`` is E A^j."""
    m = [1.0]
    for j in range(1, k):
        m.append(moment(j) * sum(math.comb(j, i) * m[i] for i in range(j))
                 / (1.0 - moment(j)))
    return sum(math.comb(k, j) * m[j] for j in range(k))


class TestKestenFixedPoint:
    """The Kesten closed form is the deterministic fixed point of the law
    of log W: it takes no draws, and its error bound covers the exact
    value wherever one is known."""

    @pytest.mark.parametrize("alpha, sigma2", [(2, 0.5), (4, 0.25),
                                               (9, 0.125)])
    def test_integer_index_matches_moment_recursion(self, alpha, sigma2):
        # lognormal A with E A^alpha = 1: mu = -alpha sigma^2 / 2
        mu = -alpha * sigma2 / 2.0
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=mu, sigma=math.sqrt(sigma2)),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        exact = _moment_recursion(
            lambda j: math.exp(j * mu + j * j * sigma2 / 2.0), alpha)
        est = closed_form_cluster_index(spec, Direction([1.0]), 2)
        assert abs(est.value - exact) <= est.std_error
        assert est.std_error == est.plug_in_se
        assert est.std_error <= 0.02 * exact  # a bound, not a blanket
        assert (est.replicas, est.horizon) == (0, 0)

    @pytest.mark.parametrize("a_alpha, scale, alpha", [(3.0, 0.2, 2),
                                                       (6.0, 0.3, 4)])
    def test_pareto_multiplier_matches_moment_recursion(self, a_alpha,
                                                        scale, alpha):
        # an integer index below the moment root, set on the instance;
        # E A^j from the Pareto law, alpha_A scale^j / (alpha_A - j)
        law = TailLaw(randkit.PARETO, alpha=a_alpha, scale=scale)
        spec = with_index(models.KestenSpec(
            a_law=law, b_law=TailLaw(randkit.PARETO, alpha=10.0)), alpha)
        exact = _moment_recursion(
            lambda j: randkit.law_moment(law, float(j)), alpha)
        est = closed_form_cluster_index(spec, Direction([1.0]), 2)
        assert abs(est.value - exact) <= est.std_error <= 1e-3 * exact

    def test_bound_covers_where_the_iteration_stops(self):
        # A = 1/2 puts W at 1 on the lattice: the grid adds no error, and
        # what is left is the part of the series the iteration stopped
        # before
        est = closed_form_cluster_index(near_degenerate_half_spec(),
                                        Direction([1.0]), 2)
        assert 0.0 < abs(est.value - B_TARGET) <= est.std_error < 1e-11

    def test_bench_law_value_and_bound(self):
        spec = _KESTEN_SPECS["bench_lognormal"]()
        est = closed_form_cluster_index(spec, Direction([1.0]), 100_000)
        assert abs(est.value - 2.408963) <= 2e-5
        assert 0.0 < est.std_error <= 1e-4

    @pytest.mark.parametrize("name", ["bench_lognormal", "pareto_multiplier"])
    def test_monte_carlo_routes_agree(self, name):
        # at the moment root (alpha 1.5 on the bench law, 1.907 for the
        # Pareto multiplier) the tail-process and telescoping routes sit
        # within 4 standard errors of the fixed point on every seed
        spec, th = _KESTEN_SPECS[name](), Direction([1.0])
        exact = closed_form_cluster_index(spec, th, 2)
        for seed in range(4):
            for route in (cluster_index_tail_process, telescoping_difference):
                est = route(spec, th, 40, 20_000, derive_stream(49, seed))
                gap = abs(est.value - exact.value)
                assert gap <= 4.0 * math.hypot(est.std_error,
                                               exact.std_error)

    def test_signs_split_by_the_additive_law(self):
        # positive B puts no mass on theta Theta_0 < 0; a symmetric B puts
        # half of it on each side, with no draws either way
        a_law = TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0)
        positive, symmetric = (
            models.KestenSpec(a_law=a_law, b_law=TailLaw(fam, alpha=10.0))
            for fam in (randkit.PARETO, randkit.GAUSSIAN))
        up, down = (closed_form_cluster_index(positive, Direction([s]), 2)
                    for s in (1.0, -1.0))
        assert down.value == 0.0 and down.std_error == 0.0
        for s in (1.0, -1.0):
            half = closed_form_cluster_index(symmetric, Direction([s]), 2)
            assert half.value == 0.5 * up.value
            assert half.std_error == 0.5 * up.std_error

    @pytest.mark.parametrize("index", [None, 25])
    def test_large_index_stays_finite(self, index):
        # mu = -0.5, sigma^2 = 0.04: moment root 25, where (1 + W)^alpha
        # passes the largest double on the lattice's top cells; None
        # runs at the solved root, 25 at the exact index on the instance
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=0.2),
            b_law=TailLaw(randkit.PARETO, alpha=30.0))
        if index is not None:
            spec = with_index(spec, float(index))
        est = closed_form_cluster_index(spec, Direction([1.0]), 2)
        exact = _moment_recursion(lambda j: math.exp(-0.5 * j + 0.02 * j * j),
                                  25)
        assert abs(est.value - exact) <= est.std_error < exact

    def test_lattice_beyond_double_range_is_out_of_regime(self):
        # bench law at index kappa + 0.95: kappa - (alpha - 1) = 0.05
        # puts the lattice top at log W = 720, past e^(1400 / alpha)
        spec = with_index(models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.PARETO, alpha=10.0)), 2.45)
        with pytest.raises(OutOfRegimeError, match="exponent range"):
            closed_form_cluster_index(spec, Direction([1.0]), 10)

    def test_unsettled_fixed_point_is_out_of_regime(self, monkeypatch):
        monkeypatch.setattr(models, "_FIXED_POINT_STEPS", 3)
        with pytest.raises(OutOfRegimeError, match="still moves after 3"):
            closed_form_cluster_index(_KESTEN_SPECS["bench_lognormal"](),
                                      Direction([1.0]), 10)


class TestTailProcessRoute:
    def test_matches_closed_form(self, ar_pareto15):
        est = cluster_index_tail_process(ar_pareto15, Direction([1.0]),
                                         40, 100_000,
                                         derive_stream(42, 1))
        assert abs(est.value - B_TARGET) < 1e-8
        assert est.horizon == 40
        assert est.replicas == 100_000

    def test_callable_sampler_iid_gives_one(self, iid_pareto08):
        # tail process of an iid sequence: Theta_0 = 1, zero afterwards
        est = cluster_index_tail_process(iid_pareto08, Direction([1.0]), 10,
                                         1000, derive_stream(42, 2))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_replica_floor(self, ar_pareto15):
        with pytest.raises(ParameterError):
            cluster_index_tail_process(ar_pareto15, Direction([1.0]), 10, 50,
                                       derive_stream(42, 3))


def _first_step_quad(spec, alpha, u):
    """f(u) of ``Garch11Spec.first_step_values`` by adaptive quadrature
    over Z, split where z + sqrt(a1 z^2 + b1) u changes sign."""
    a1, b1 = spec.alpha1, spec.beta1

    def integrand(z):
        root = math.sqrt(a1 * z * z + b1)
        return math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi) * (
            abs(z + root * u) ** alpha - abs(root * u) ** alpha)

    kinks = []
    if a1 * u * u < 1.0:
        kink = abs(u) * math.sqrt(b1 / (1.0 - a1 * u * u))
        kinks = [-kink, kink]
    value = integrate.quad(integrand, -40.0, 40.0, points=kinks, limit=200,
                           epsabs=1e-10, epsrel=1e-10)[0]
    moment = 2.0 ** (alpha / 2.0) * math.gamma((alpha + 1.0) / 2.0) \
        / math.sqrt(math.pi)
    return value / (2.0 * moment)


def _rest_of_path(spec, paths, horizon, seed):
    """U = sum_{t=1}^T Z_t prod_{1<=s<t} sqrt(a1 Z_s^2 + b1) by its
    definition, on a generator of its own."""
    z = np.random.default_rng(seed).standard_normal((paths, horizon))
    mult = np.ones_like(z)
    mult[:, 1:] = spec.alpha1 * z[:, :-1] ** 2 + spec.beta1
    return (np.sqrt(np.cumprod(mult, axis=1)) * z).sum(axis=1)


class TestFirstStepRoute:
    """The GARCH b(1) = b(-1) of ``limits`` from the first-step identity,
    against adaptive quadrature and the tail-process route."""

    def test_quadrature_matches_adaptive_quadrature(self, bench_garch):
        # a1 u^2 = 1 at |u| = sqrt(2): both sides and both signs, and the
        # kink near z = 0 for small |u|
        spec = bench_garch
        alpha = spec.tail_index()
        us = np.array([-50.0, -3.0, -1.5, -1.2, -0.5, -0.25, -0.1, 0.0,
                       0.05, 0.187, 0.25, 1.0, 2.0, 10.0, 300.0])
        got = spec._first_step(us.copy(), alpha)
        want = [_first_step_quad(spec, alpha, u) for u in us]
        assert np.all(np.abs(got - want) < 1e-3)

    def test_quadrature_mean_over_sampled_rest(self, bench_garch):
        # per-path errors of up to 7e-4 near the kink cancel in the mean
        spec = bench_garch
        alpha = spec.tail_index()
        us = _rest_of_path(spec, 2000, 256, 5)
        got = spec._first_step(us.copy(), alpha)
        want = [_first_step_quad(spec, alpha, u) for u in us]
        assert abs(np.mean(got - want)) < 1e-5

    def test_estimate_merges_the_chunk_values(self, bench_garch):
        spec = bench_garch
        alpha = spec.tail_index()
        replicas = 2 * cluster._CHUNK + 500
        est = cluster.first_step_cluster_index(spec, 4, replicas,
                                               derive_stream(42, 30), 2)
        stream = derive_stream(42, 30)
        parts = [cluster._moments(spec.first_step_values(
            4, min(cluster._CHUNK, replicas - lo), stream.substream(i),
            alpha)) for i, lo in enumerate(range(0, replicas,
                                                 cluster._CHUNK))]
        _, mean, m2 = cluster._merge_moments(parts)
        assert (est.value, est.std_error, est.plug_in_se) == (
            mean, math.sqrt(m2 / (replicas - 1) / replicas),
            math.sqrt(m2) / replicas)
        assert (est.route, est.horizon, est.replicas) == (
            cluster.ROUTE_FIRST_STEP, 4, replicas)

    def test_identical_on_one_and_two_threads(self, bench_garch):
        one, two = (cluster.first_step_cluster_index(
            bench_garch, 8, 2 * cluster._CHUNK + 500, derive_stream(42, 31),
            t) for t in (1, 2))
        assert one.std_error > 0
        assert one == two

    @pytest.mark.parametrize("params", [(0.05, 0.5, 0.55),
                                        (0.05, 0.8, 0.3)])
    def test_agrees_with_the_tail_process_route(self, params):
        # alpha 1.40 (the bench law) and 1.49, both cut at 64 steps
        spec = models.Garch11Spec(*params)
        first = cluster.first_step_cluster_index(spec, 64, 8192,
                                                 derive_stream(42, 32), 2)
        tail = cluster_index_tail_process(spec, Direction([1.0]), 64,
                                          40_000, derive_stream(42, 33))
        assert abs(first.value - tail.value) <= 4.0 * math.hypot(
            first.std_error, tail.std_error)

    def test_horizon_and_twice_agree(self, bench_garch):
        h = limits._B_HORIZON
        short, long = (cluster.first_step_cluster_index(
            bench_garch, k, 16_384, derive_stream(42, 34 + k // h), 2)
            for k in (h, 2 * h))
        assert abs(short.value - long.value) <= 4.0 * math.hypot(
            short.std_error, long.std_error)

    def test_sizes_and_family_are_checked(self, bench_garch,
                                          kesten_lognormal):
        for horizon, replicas in ((0, 1000), (4, 99)):
            with pytest.raises(ParameterError):
                cluster.first_step_cluster_index(
                    bench_garch, horizon, replicas, derive_stream(42, 35), 1)
        with pytest.raises(UnsupportedCaseError, match="first-step"):
            cluster.first_step_cluster_index(
                kesten_lognormal, 4, 1000, derive_stream(42, 35), 1)


    def test_no_estimate_at_alpha_two_or_more(self, garch_benchmark):
        # alpha 9.07: f(U) ~ |U|^(alpha - 1) has no finite variance
        with pytest.raises(OutOfRegimeError, match=r"alpha = 9\.0"):
            cluster.first_step_cluster_index(
                garch_benchmark, 4, 1000, derive_stream(42, 36), 1)


class TestThreads:
    """Every route reduces fixed-size chunks in index order, so its
    estimate has the same bits on any number of threads."""

    # several full chunks and a partial one, for every chunked stage
    REPLICAS = 2 * cluster._CHUNK + 500

    @pytest.mark.parametrize("route", ["tail_process", "telescoping",
                                       "extremal"])
    def test_routes_identical_on_one_and_two_threads(self, route):
        # the bench law (alpha 1.5): at alpha 2 the control makes the
        # summed routes exact, with no standard error to compare. The
        # summed routes run threaded only as the shared batch
        spec, th = _KESTEN_SPECS["bench_lognormal"](), Direction([1.0])
        calls = {
            "tail_process": lambda s, t: cluster.tail_process_routes(
                spec, th, 8, 6, self.REPLICAS, s, t)[0],
            "telescoping": lambda s, t: cluster.tail_process_routes(
                spec, th, 8, 6, self.REPLICAS, s, t)[1],
            "extremal": lambda s, t: _mc_sup(spec, th, 8, self.REPLICAS, s,
                                             t)[0],
        }
        one, two = (calls[route](derive_stream(42, 4), t) for t in (1, 2))
        assert one.std_error > 0
        for name in ("value", "std_error", "plug_in_se"):
            assert getattr(one, name) == getattr(two, name)

    @pytest.mark.parametrize("fixture", ["kesten_lognormal",
                                         "bench_garch"])
    def test_b_at_identical_on_one_and_two_threads(self, request, fixture,
                                                   small_b_route):
        spec = request.getfixturevalue(fixture)
        one, two = (limits._b_values(spec, Direction([1.0]),
                                     derive_stream(42, 5), t, (1,))
                    for t in (1, 2))
        assert one == two

    @pytest.mark.parametrize("fixture", ["kesten_lognormal",
                                         "bench_garch"])
    def test_b_pair_identical_on_one_and_two_threads(self, request,
                                                     fixture, small_b_route):
        spec = request.getfixturevalue(fixture)
        one, two = (limits._b_values(spec, Direction([1.0]),
                                     derive_stream(42, 5), t, (1, -1))
                    for t in (1, 2))
        assert one == two

    def test_workers_keep_the_callers_error_state(self):
        def overflow(take, stream):
            return np.float64(1e308) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                randkit.map_chunks(overflow, 2, 1, derive_stream(42, 9), 2)


class TestSharedBatch:
    """One tail-process batch serves several functionals; each estimate
    keeps the bits of its route run alone on the same stream."""

    REPLICAS = 2 * cluster._CHUNK + 500

    def test_each_functional_keeps_its_route_bytes(self, kesten_lognormal):
        spec, th = kesten_lognormal, Direction([1.0])
        shared = cluster._mc_functional(
            spec, th,
            [(cluster._sum_difference, cluster.ROUTE_TAIL_PROCESS, 8),
             (cluster._sup_difference, cluster.ROUTE_TAIL_PROCESS, 8)],
            self.REPLICAS, derive_stream(42, 6), 1)
        # the recurrence's extremal_index is exact: the sup functional
        # alone is the Monte Carlo route it keeps for other families
        alone = [cluster_index_tail_process(spec, th, 8, self.REPLICAS,
                                            derive_stream(42, 6)),
                 *_mc_sup(spec, th, 8, self.REPLICAS, derive_stream(42, 6))]
        assert shared == alone

    @pytest.mark.parametrize("fixture", ["bench_garch",
                                         "kesten_lognormal",
                                         "ar_sympareto15"])
    def test_signed_estimates_are_the_calls_at_each_sign(self, request,
                                                         fixture,
                                                         small_b_route):
        # the pair keeps the bits of the call at each sign alone: the
        # first-step estimate (GARCH) on the same stream, the closed form
        # (the others) with no draws
        spec = request.getfixturevalue(fixture)
        th = Direction([1.0])
        stream = derive_stream(42, 7).substream(0xB0)
        pair = limits._b_values(spec, th, stream, 1, (1, -1))
        alone = [b for d in (th, th.negated())
                 for b in limits._b_values(spec, d, stream, 1, (1,))]
        assert pair == alone

    def test_garch_pair_is_symmetric(self):
        # Z_t is symmetric, so b(+1) = b(-1) on the bench GARCH law: the
        # pair is the one first-step estimate at both signs
        spec, th = models.Garch11Spec(0.05, 0.5, 0.55), Direction([1.0])
        plus, minus = limits._b_values(spec, th, derive_stream(42, 8), 2,
                                       (1, -1))
        assert plus == minus > 0.0
        assert plus == cluster.first_step_cluster_index(
            spec, limits._B_HORIZON, limits._B_REPLICAS,
            derive_stream(42, 8), 1).value

    def test_theta0_law_is_built_once_per_spec(self, ar_sympareto15,
                                               monkeypatch):
        spec = ar_sympareto15
        builds = []
        law = spec.theta0_law
        monkeypatch.setattr(spec, "theta0_law",
                            lambda: builds.append(1) or law())
        # three chunks of tail-process draws, then the closed form
        cluster_index_tail_process(spec, Direction([1.0]), 4,
                                   self.REPLICAS, derive_stream(42, 8))
        closed_form_cluster_index(spec, Direction([1.0]), 500)
        assert len(builds) == 1


# the shared batch's families: (spec, direction vector); the two Kesten
# laws know their control's mean, GARCH and Var1 keep the plain mean
_SHARED_SPECS = {
    "kesten_lognormal": (_KESTEN_SPECS["kesten_lognormal"], [1.0]),
    "pareto_multiplier": (_KESTEN_SPECS["pareto_multiplier"], [1.0]),
    "garch": (lambda: models.Garch11Spec(0.05, 0.5, 0.55), [1.0]),
    "var1_dim2": (lambda: models.Var1Spec(
        2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
        a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]),
        weights=np.array([1.0, 2.0])), [1.0, 1.0]),
}


def _prefix_estimate(spec, th, drawn, lag, replicas, stream):
    """(value, std_error) of the summed functional at ``lag`` over the
    first lag + 1 columns of one chunk of ``replicas`` paths drawn to
    ``drawn`` steps: the regression mean on the control when the spec
    knows its mean, else the plain mean."""
    alpha = models.tail_index(spec)
    s = cluster._control_power(alpha)
    proj = models.sample_tail_process_batch(
        spec, drawn, replicas, stream.substream(0), alpha,
        th.vector)[:, :lag + 1]
    f = cluster._sum_difference(proj, alpha)
    mean = float(np.mean(f))
    dev = f - mean
    m2, ddof = float(dev @ dev), 1
    ec = spec.tail_moments(th.vector, s, lag)
    if ec is not None and math.isfinite(ec):
        c = cluster._control(proj, s)
        mean_c = float(np.mean(c))
        dev_c = c - mean_c
        m2_c, c_fc = float(dev_c @ dev_c), float(dev @ dev_c)
        mean -= c_fc / m2_c * (mean_c - ec)
        m2 = max(m2 - c_fc * c_fc / m2_c, 0.0)
        ddof = 2
    return mean, math.sqrt(m2 / (replicas - ddof) / replicas)


@pytest.mark.parametrize("family", sorted(_SHARED_SPECS))
class TestTailProcessRoutes:
    """``cluster-index``'s one batch: the summed route, telescoping and
    the Monte Carlo sup read prefixes of the same tail-process draws."""

    REPLICAS = 2 * cluster._CHUNK + 500
    ONE_CHUNK = cluster._CHUNK - 100

    @staticmethod
    def _spec(family):
        make, tv = _SHARED_SPECS[family]
        return make(), Direction(tv)

    def test_tail_and_sup_are_the_routes_alone(self, family):
        spec, th = self._spec(family)
        tail, tele, sup = cluster.tail_process_routes(
            spec, th, 8, 5, self.REPLICAS, derive_stream(48, 1), 1)
        assert tail == cluster_index_tail_process(
            spec, th, 8, self.REPLICAS, derive_stream(48, 1))
        assert (tele.route, tele.horizon) == (cluster.ROUTE_TELESCOPING, 5)
        # the recurrence's sup is exact; the others' is the Monte Carlo sup
        # on the same draws
        assert sup == extremal_index(spec, th, 8, self.REPLICAS,
                                     derive_stream(48, 1))

    def test_telescoping_reads_the_prefix_of_the_batch(self, family):
        spec, th = self._spec(family)
        _, tele, _ = cluster.tail_process_routes(
            spec, th, 8, 5, self.ONE_CHUNK, derive_stream(48, 2), 1)
        assert (tele.value, tele.std_error) == _prefix_estimate(
            spec, th, 8, 5, self.ONE_CHUNK, derive_stream(48, 2))

    def test_telescoping_at_the_horizon_is_the_tail_estimate(self, family):
        spec, th = self._spec(family)
        tail, tele, _ = cluster.tail_process_routes(
            spec, th, 8, 8, self.REPLICAS, derive_stream(48, 3), 1)
        fields = ("value", "std_error", "plug_in_se", "horizon", "replicas")
        assert [getattr(tele, f) for f in fields] == [
            getattr(tail, f) for f in fields]

    def test_identical_on_one_and_two_threads(self, family):
        spec, th = self._spec(family)
        one, two = (cluster.tail_process_routes(
            spec, th, 8, 5, self.REPLICAS, derive_stream(48, 4), t)
            for t in (1, 2))
        assert one == two

    def test_tail_estimate_reads_the_horizon_prefix(self, family):
        # k_trunc > horizon draws the batch to k_trunc: telescoping is then
        # the route alone, and the summed route reads the horizon's prefix
        spec, th = self._spec(family)
        tail, tele, _ = cluster.tail_process_routes(
            spec, th, 8, 12, self.ONE_CHUNK, derive_stream(48, 5), 1)
        assert (tail.value, tail.std_error) == _prefix_estimate(
            spec, th, 12, 8, self.ONE_CHUNK, derive_stream(48, 5))
        assert tail.horizon == 8
        assert tele == telescoping_difference(spec, th, 12, self.ONE_CHUNK,
                                              derive_stream(48, 5))


class TestMergedMoments:
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_merge_matches_numpy_over_all_values(self, offset):
        # at offset 1e8, sum(x^2) - n mean^2 cancels every significant
        # digit of the unit variance; the pairwise merge keeps them
        rng = np.random.default_rng(3)
        sizes = [8192, 8192, 1, 500, 3000]
        chunks = [offset + rng.standard_normal(k) for k in sizes]
        n, mean, m2 = cluster._merge_moments(
            [cluster._moments(c) for c in chunks])
        every = np.concatenate(chunks)
        assert n == every.size
        assert mean == pytest.approx(np.mean(every), rel=1e-15)
        assert m2 / (n - 1) == pytest.approx(np.var(every, ddof=1),
                                             rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_co_moment_merge_matches_numpy_over_all_values(self, offset):
        # the control's mean, M2 and co-moment with f take the same
        # pairwise update; at offset 1e8 both variables sit far from 0
        rng = np.random.default_rng(4)
        sizes = [8192, 8192, 1, 500, 3000]
        fs, cs = [], []
        for k in sizes:
            c = rng.standard_normal(k)
            fs.append(offset + 0.8 * c + 0.6 * rng.standard_normal(k))
            cs.append(offset + c)
        n, mean, m2, mean_c, m2_c, c_fc = cluster._merge_moments(
            [cluster._moments(f, c) for f, c in zip(fs, cs)])
        f, c = np.concatenate(fs), np.concatenate(cs)
        assert n == f.size
        assert mean == pytest.approx(np.mean(f), rel=1e-15)
        assert mean_c == pytest.approx(np.mean(c), rel=1e-15)
        assert m2 / (n - 1) == pytest.approx(np.var(f, ddof=1), rel=1e-9)
        assert m2_c / (n - 1) == pytest.approx(np.var(c, ddof=1), rel=1e-9)
        assert c_fc / (n - 1) == pytest.approx(np.cov(f, c)[0, 1],
                                               rel=1e-9)

    def test_single_chunk_is_its_own_moments(self):
        vals = np.arange(10.0)
        assert cluster._merge_moments([cluster._moments(vals)]) \
            == (10, 4.5, 82.5)


class TestControlVariate:
    """Kesten's summed routes subtract the regression control
    c = sum_{t>=1} (theta'Theta_t)_+^s, whose mean the spec knows
    exactly; the sup functional and the other families keep the plain
    mean, bit for bit."""

    @pytest.mark.parametrize("name", ["kesten_lognormal", "bench_lognormal",
                                      "pareto_multiplier"])
    def test_control_mean_matches_tail_moments(self, name):
        spec = _KESTEN_SPECS[name]()
        alpha, tv = spec.tail_index(), np.array([1.0])
        s = cluster._control_power(alpha)
        ctrl, = models.sample_tail_process_batch(
            spec, 40, 20_000, derive_stream(47, 1), alpha, tv,
            [functools.partial(cluster._control, s=s)])
        se = np.std(ctrl, ddof=1) / math.sqrt(ctrl.size)
        assert abs(np.mean(ctrl) - spec.tail_moments(tv, s, 40)) <= 4 * se

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_control_mean_is_sign_aware(self, sign):
        # Gaussian B: theta Theta_t > 0 on half the paths, and the mean
        # of the positive parts is half of sum_t (E A^s)^t
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.GAUSSIAN))
        alpha, tv = spec.tail_index(), np.array([sign])
        s = cluster._control_power(alpha)
        mean = spec.tail_moments(tv, s, 40)
        m = randkit.law_moment(spec.a_law, s)
        assert mean == pytest.approx(
            0.5 * sum(m ** t for t in range(1, 41)), rel=1e-12)
        ctrl, = models.sample_tail_process_batch(
            spec, 40, 20_000, derive_stream(47, 5), alpha, tv,
            [functools.partial(cluster._control, s=s)])
        se = np.std(ctrl, ddof=1) / math.sqrt(ctrl.size)
        assert abs(np.mean(ctrl) - mean) <= 4 * se

    def test_sign_aware_control_cuts_the_variance_on_symmetric_b(
            self, monkeypatch):
        # the control moves with the summed functional on the paths where
        # theta Theta_0 > 0 alone; |theta'Theta_t| would follow both
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.GAUSSIAN))
        th = Direction([1.0])
        run = functools.partial(cluster_index_tail_process, spec, th,
                                30, 20_000, derive_stream(47, 6))
        controlled = run()
        monkeypatch.setattr(spec, "tail_moments", lambda *args: None)
        plain = run()
        assert (plain.std_error / controlled.std_error) ** 2 > 8.0

    def test_sup_functional_takes_no_control(self, monkeypatch):
        spec, th = _KESTEN_SPECS["bench_lognormal"](), Direction([1.0])
        run = functools.partial(_mc_sup, spec, th, 8, 2000,
                                derive_stream(47, 7))
        before = run()
        monkeypatch.setattr(spec, "tail_moments", lambda *args: None)
        assert run() == before

    def test_families_without_moments(self, ar_sympareto15,
                                      garch_benchmark):
        for spec in (ar_sympareto15, garch_benchmark):
            tv = np.ones(spec.dim)
            assert spec.tail_moments(tv, 0.5, 10) is None

    def test_alpha_two_route_is_exact(self, kesten_lognormal):
        # at alpha 2, (W+1)^2 - W^2 = 2W + 1 is affine in the control
        # W = sum_{t>=1} Theta_t (s = alpha - 1 = 1), so the regression
        # recovers 1 + 2 sum_t (E A)^t with no error
        spec, horizon = kesten_lognormal, 8
        est = cluster_index_tail_process(spec, Direction([1.0]), horizon,
                                         2000, derive_stream(47, 2))
        mean_a = math.exp(-0.25)
        exact = 1.0 + 2.0 * sum(mean_a ** t for t in range(1, horizon + 1))
        assert abs(est.value - exact) < 1e-9
        assert est.std_error < 1e-9

    def test_control_cuts_the_variance_per_draw(self, monkeypatch):
        # the bench law on one stream, with and without the control's mean
        spec, th = _KESTEN_SPECS["bench_lognormal"](), Direction([1.0])
        run = functools.partial(cluster_index_tail_process, spec, th,
                                40, 20_000, derive_stream(47, 3))
        controlled = run()
        monkeypatch.setattr(spec, "tail_moments", lambda *args: None)
        plain = run()
        assert (plain.std_error / controlled.std_error) ** 2 > 8.0
        assert abs(plain.value - controlled.value) \
            <= 4 * plain.std_error

    def test_z_scores_have_unit_spread(self):
        # 300 seeds of 2,000 replicas against a 2e6-replica reference on
        # the bench law: a standard error that is right gives z an SD
        # near 1 (the reference's own error shifts every z alike)
        spec, th = _KESTEN_SPECS["bench_lognormal"](), Direction([1.0])
        functionals = [
            (cluster._sum_difference, cluster.ROUTE_TAIL_PROCESS, 10),
            (cluster._sup_difference, cluster.ROUTE_TAIL_PROCESS, 10)]

        def run(replicas, stream, threads=1):
            return cluster._mc_functional(spec, th, functionals, replicas,
                                          stream, threads)

        ref = run(2_000_000, derive_stream(47, 4), threads=2)
        z = np.array([[(e.value - r.value) / e.std_error
                       for e, r in zip(run(2000, derive_stream(48, i)), ref)]
                      for i in range(300)])
        for sd in np.std(z, axis=0, ddof=1):
            assert 0.85 <= sd <= 1.15


# value, std_error and plug_in_se of each plain-mean route, from the code
# before the control: a family without tail moments keeps those bits (the
# GARCH entries are those of its tail process on X's own norm)
_PLAIN_MEAN_BITS = {
    ("garch_benchmark", "tail_process"): (
        "0x1.239f2c2673d0bp+12", "0x1.cd402001a9b04p+10",
        "0x1.cd39551632d9ep+10"),
    ("garch_benchmark", "telescoping"): (
        "0x1.6aea200132a02p+10", "0x1.37466125e9d4cp+9",
        "0x1.3741cba352a12p+9"),
    ("garch_benchmark", "extremal"): (
        "0x1.bd02423cc72ebp-2", "0x1.5194790c5c5a7p-8",
        "0x1.518f805e28a20p-8"),
    ("var1_dim2", "tail_process"): (
        "0x1.0975ace95581bp-1", "0x1.8afa70346840cp-8",
        "0x1.8af49f21c8387p-8"),
    ("var1_dim2", "telescoping"): (
        "0x1.08ff372f90523p-1", "0x1.8a3720f5121d9p-8",
        "0x1.8a3152c2c3d5ep-8"),
    ("var1_dim2", "extremal"): (
        "0x1.afc6ecf2924c7p-3", "0x1.3fc31b6e62dd3p-9",
        "0x1.3fbe65ec962c9p-9"),
}


@pytest.mark.parametrize("family, route", sorted(_PLAIN_MEAN_BITS))
def test_plain_mean_routes_keep_their_bits(family, route):
    if family == "garch_benchmark":
        spec, th = models.Garch11Spec(0.05, 0.1, 0.85), Direction([1.0])
    else:
        spec = models.Var1Spec(
            2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
            a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]),
            weights=np.array([1.0, 2.0]))
        th = Direction([1.0, 1.0])
    replicas, stream = cluster._CHUNK + 500, derive_stream(46, 1)
    calls = {
        "tail_process": lambda: cluster_index_tail_process(
            spec, th, 8, replicas, stream),
        "telescoping": lambda: telescoping_difference(
            spec, th, 5, replicas, stream),
        "extremal": lambda: extremal_index(spec, th, 8, replicas, stream),
    }
    est = calls[route]()
    got = tuple(float.hex(x)
                for x in (est.value, est.std_error, est.plug_in_se))
    assert got == _PLAIN_MEAN_BITS[family, route]


class TestTelescoping:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_truncated_values_follow_geometric_formula(self, ar_pareto15,
                                                       k):
        # at truncation k the summed coefficients are 2 - 2^-k and
        # 1 - 2^-k exactly
        est = telescoping_difference(ar_pareto15, Direction([1.0]), k, 500,
                                     derive_stream(43, k))
        target = (2.0 - 2.0 ** -k) ** 1.5 - (1.0 - 2.0 ** -k) ** 1.5
        assert abs(est.value - target) < 1e-10

    def test_increasing_k_approaches_limit(self, ar_pareto15):
        vals = [telescoping_difference(ar_pareto15, Direction([1.0]), k, 500,
                                       derive_stream(43, 100 + k)).value
                for k in (2, 8, 30)]
        gaps = [abs(v - B_TARGET) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8


class TestExtremalIndex:
    @pytest.mark.parametrize("alpha,law_alpha", [(1.0, 1.0), (2.0, 2.0)])
    def test_linear_chain_sup_values(self, alpha, law_alpha):
        spec = models.Var1Spec(1, TailLaw(randkit.PARETO, alpha=law_alpha),
                               a_matrix=np.array([[0.5]]))
        est = extremal_index(spec, Direction([1.0]), 40, 2000,
                             derive_stream(44, int(alpha)))
        assert abs(est.value - (1.0 - 0.5 ** alpha)) < 1e-12

    @pytest.mark.parametrize("innovation, a_matrix, theta, exact", [
        (randkit.PARETO, [[-0.5]], [1.0], 0.6464466094067262),
        (randkit.SYMMETRIC_PARETO, [[0.5, 0.2], [-0.1, 0.3]], [1.0, 1.0],
         0.2073032810342641)])
    def test_linear_chain_matches_the_orbit_sum(self, innovation, a_matrix,
                                                theta, exact):
        # Theta_t = A^t Theta_0 over the atoms a_k of theta0_law: the sup
        # functional is sum_k w_k [(sup_{t>=0} theta'A^t a_k)_+^alpha
        # - (sup_{t>=1} theta'A^t a_k)_+^alpha], run along each orbit
        spec = models.Var1Spec(len(theta), TailLaw(innovation, alpha=1.5),
                               a_matrix=np.array(a_matrix))
        th = Direction(theta)
        atoms, weights = spec.theta0_law()
        orbit = [atoms @ th.vector]
        for _ in range(200):
            atoms = atoms @ spec.a_matrix.T
            orbit.append(atoms @ th.vector)
        orbit = np.maximum(np.array(orbit), 0.0)
        oracle = weights @ (orbit.max(axis=0) ** 1.5
                            - orbit[1:].max(axis=0) ** 1.5)
        assert oracle == pytest.approx(exact, rel=1e-12)
        est = extremal_index(spec, th, 40, 100_000,
                             derive_stream(44, len(theta)))
        assert abs(est.value - oracle) <= 4.0 * est.std_error

    def test_iid_case_is_one(self, iid_pareto08):
        est = extremal_index(iid_pareto08, Direction([1.0]), 10, 500,
                             derive_stream(44, 9))
        assert est.value == 1.0


class TestKestenLindley:
    """The recurrence's extremal index is |theta|^alpha P(theta Theta_0
    > 0) E[(1 - e^(alpha M))_+] for the Lindley fixed point M =_d log A +
    max(0, M'), on the perpetuity's lattice: no draws, and a bound that
    the Monte Carlo sup functional agrees with."""

    @pytest.mark.parametrize("name", ["bench_lognormal", "kesten_lognormal",
                                      "pareto_multiplier"])
    def test_monte_carlo_sup_agrees(self, name):
        spec, th = _KESTEN_SPECS[name](), Direction([1.0])
        exact = extremal_index(spec, th, 200, 400_000, derive_stream(50, 1))
        assert exact.route == cluster.ROUTE_CLOSED_FORM
        assert (exact.replicas, exact.horizon) == (0, 0)
        assert 0.0 < exact.std_error == exact.plug_in_se <= 1e-4
        (mc,) = _mc_sup(spec, th, 200, 400_000, derive_stream(50, 1), 2)
        assert abs(mc.value - exact.value) <= 4.0 * math.hypot(
            mc.std_error, exact.std_error)

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 4.0])
    def test_half_multiplier_gives_the_linear_chain(self, alpha):
        # A = 1/2 puts M at log(1/2), a cell: sup_{t>=1} Theta_t = 1/2
        est = extremal_index(near_degenerate_half_spec(alpha),
                             Direction([1.0]), 40, 2000,
                             derive_stream(50, 2))
        assert abs(est.value - (1.0 - 0.5 ** alpha)) <= 1e-12
        assert est.std_error <= 1e-12

    def test_gaussian_b_halves_positive_b(self):
        a_law = TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0)
        positive, symmetric = (
            models.KestenSpec(a_law=a_law, b_law=TailLaw(fam, alpha=10.0))
            for fam in (randkit.PARETO, randkit.GAUSSIAN))
        up, down = (positive.exact_extremal_index(np.array([s]))
                    for s in (1.0, -1.0))
        assert down == (0.0, 0.0)
        for s in (1.0, -1.0):
            half = symmetric.exact_extremal_index(np.array([s]))
            assert half == (0.5 * up[0], 0.5 * up[1])

    @pytest.mark.parametrize("name", ["bench_lognormal",
                                      "pareto_multiplier"])
    def test_lattice_error_is_second_order(self, monkeypatch, name):
        # the runs at steps h and h/2 behind the Richardson value, then one
        # more at h/4 with the same cells: each halving cuts the gap 4x
        # (3.9999 and 4.0007 here)
        runs, run = [], models._log_fixed_point

        def spy(law, s, h, top, start, cells):
            runs.append((h, top, cells))
            return run(law, s, h, top, start, cells)

        monkeypatch.setattr(models, "_log_fixed_point", spy)
        spec = _KESTEN_SPECS[name]()
        spec.exact_extremal_index(np.array([1.0]))
        (h, top, cells), _ = runs
        law = spec.a_law
        v = [run(law, 0.0, h / k, k * top, None, cells)[0] for k in (1, 2, 4)]
        assert 3.9 <= (v[0] - v[1]) / (v[1] - v[2]) <= 4.1

    def test_perpetuity_keeps_its_bits(self):
        # the shared lattice builds the perpetuity's G as it did alone
        pins = {"bench_lognormal": ("0x1.3458e63c5618fp+1",
                                    "0x1.97078c058f507p-14"),
                "pareto_multiplier": ("0x1.144bab9ce0a1bp+1",
                                      "0x1.da085c3348e53p-14"),
                "near_degenerate_half": ("0x1.d413cccfe77acp+0",
                                         "0x1.a7c61977850a1p-40")}
        for name, pin in pins.items():
            got = _KESTEN_SPECS[name]()._perpetuity
            assert tuple(float.hex(x) for x in got) == pin, name


class TestEstimateContainer:
    def test_route_names_checked(self):
        with pytest.raises(ParameterError):
            ClusterIndexEstimate(1.0, 0.1, "made_up", 10, 100)

    def test_negative_errors_rejected(self):
        with pytest.raises(ParameterError):
            ClusterIndexEstimate(1.0, -0.1, cluster.ROUTE_TAIL_PROCESS,
                                 10, 100)

    @pytest.mark.parametrize("value, se", [(math.nan, 0.1),
                                           (math.inf, 0.1),
                                           (1.0, math.inf)])
    def test_non_finite_estimate_is_out_of_regime(self, value, se):
        with pytest.raises(OutOfRegimeError, match="telescoping"):
            ClusterIndexEstimate(value, se, cluster.ROUTE_TELESCOPING,
                                 10, 100)


class TestLimitMeasure:
    def test_homogeneity(self):
        ev = LimitMeasureEvaluator(1.5, {Direction([1.0]): B_TARGET})
        v1 = nu_alpha(ev, Direction([1.0]), 1.0)
        v3 = nu_alpha(ev, Direction([1.0]), 3.0)
        assert np.isclose(v3, 3.0 ** -1.5 * v1, rtol=1e-12)
        assert v1 == B_TARGET

    def test_t_domain(self):
        ev = LimitMeasureEvaluator(1.5, {Direction([1.0]): 1.0})
        with pytest.raises(ParameterError):
            nu_alpha(ev, Direction([1.0]), 0.0)

    def test_integer_alpha_asymmetric_pair_is_flagged(self):
        ev = LimitMeasureEvaluator(2.0, {Direction([1.0]): 1.0,
                                         Direction([-1.0]): 0.25})
        assert len(ev.flagged_directions) == 2

    def test_integer_alpha_symmetric_pair_not_flagged(self):
        ev = LimitMeasureEvaluator(2.0, {Direction([1.0]): 0.5,
                                         Direction([-1.0]): 0.5})
        assert ev.flagged_directions == []

    def test_non_integer_alpha_never_flagged(self):
        ev = LimitMeasureEvaluator(1.5, {Direction([1.0]): 1.0,
                                         Direction([-1.0]): 0.0})
        assert ev.flagged_directions == []

    def test_b_lookup_requires_known_direction(self):
        ev = LimitMeasureEvaluator(1.5, {Direction([1.0]): 1.0})
        with pytest.raises(ParameterError):
            ev.b_at(Direction([0.0, 1.0]))


class TestUpperBoundProperty:
    def test_alpha_at_most_one_bound(self, iid_pareto08):
        # for alpha <= 1 subadditivity caps b by E (theta' Theta_0)_+^a
        est = cluster_index_tail_process(iid_pareto08, Direction([1.0]),
                                         20, 2000,
                                         derive_stream(45, 1))
        angles = iid_pareto08.theta0(2000, derive_stream(45, 2))
        bound = np.maximum(angles[:, 0], 0.0) ** 0.8
        assert est.value <= bound.mean() + 3 * est.std_error + 1e-12
