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


def near_degenerate_half_spec(alpha_hint=1.5):
    """Scalar recurrence whose multiplier is concentrated at 1/2 (the
    moment equation then has no root, so the index is declared)."""
    return models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=math.log(0.5), sigma=1e-9),
        b_law=TailLaw(randkit.PARETO, alpha=10.0), alpha_hint=alpha_hint)


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
        est = closed_form_cluster_index(ar_pareto15, Direction([1.0]),
                                        1000, derive_stream(41, 1))
        assert abs(est.value - B_TARGET) < 1e-12
        assert est.route == cluster.ROUTE_CLOSED_FORM

    def test_linear_chain_negative_direction_vanishes(self, ar_pareto15):
        # all innovations positive: the sum never lands in the negative
        # half-line, so b(-1) = 0
        est = closed_form_cluster_index(ar_pareto15, Direction([-1.0]),
                                        1000, derive_stream(41, 2))
        assert est.value == 0.0

    def test_symmetric_innovations_split_mass(self, ar_sympareto15):
        # the sign of Theta_0 stays random here, so the closed form is
        # averaged over it; check the 50/50 split statistically
        for sign in (1.0, -1.0):
            est = closed_form_cluster_index(ar_sympareto15,
                                            Direction([sign]), 200_000,
                                            derive_stream(41, 3))
            assert abs(est.value - B_TARGET / 2.0) <= 4.0 * est.std_error

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
        est = closed_form_cluster_index(spec, Direction([1.0, 0.0]),
                                        200_000, derive_stream(7, 3))
        assert abs(est.value - exact) <= 3.0 * est.std_error

    @pytest.mark.parametrize("name", ["var1_dim2", "kesten_lognormal"])
    def test_exact_theta0_law_reads_no_pilot(self, request, name):
        # the 2-d linear chain and the scalar recurrence: both Theta_0
        # laws are exact, so neither cluster route draws the pilot
        if name == "var1_dim2":
            spec = models.Var1Spec(
                2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
                a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]))
        else:
            spec = request.getfixturevalue(name)
        theta = Direction(np.ones(spec.dim))
        closed_form_cluster_index(spec, theta, 1000, derive_stream(41, 5))
        cluster_index_tail_process(spec, theta, models.tail_index(spec), 10,
                                   1000, derive_stream(41, 6))
        assert spec._pilot_cache == {}

    def test_recurrence_with_half_multiplier(self):
        # A = 1/2 exactly reproduces the linear-chain target through the
        # auxiliary-series closed form
        spec = near_degenerate_half_spec()
        est = closed_form_cluster_index(spec, Direction([1.0]), 4000,
                                        derive_stream(41, 4))
        assert abs(est.value - B_TARGET) < 1e-8

    def test_auxiliary_block_matches_one_shot_chain_on_its_substream(
            self, kesten_lognormal):
        # two full blocks and a half one; block i is the chain of the
        # spec's horizon drawn at once on substream i of the auxiliary
        # stream
        spec = kesten_lognormal
        k = spec.aux_horizon
        block = models._AUX_BLOCK
        replicas = 2 * block + block // 2
        stream = derive_stream(41, 7)
        u, w, horizon = spec.closed_form_terms(np.array([1.0]), replicas,
                                               stream)
        assert horizon == k
        angles = spec.theta0(replicas,
                             stream.substream(models._CLOSED_ANGLES))
        aux_stream = stream.substream(models._CLOSED_AUX)
        for i, lo in enumerate(range(0, replicas, block)):
            m = min(block, replicas - lo)
            a = randkit.sample_law(aux_stream.substream(i), spec.a_law,
                                   k * m)
            aux = _aux_chain(a.reshape(k, m))
            theta0 = angles[lo:lo + m, 0]
            assert w[lo:lo + m].tobytes() == (aux * theta0 * 1.0).tobytes()
            assert u[lo:lo + m].tobytes() \
                == ((aux + 1.0) * theta0 * 1.0).tobytes()

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_fewer_than_two_replicas_are_rejected(self, kesten_lognormal,
                                                  replicas):
        # one replica has no spread to estimate, so no standard error
        with pytest.raises(ParameterError, match=f"got {replicas}"):
            closed_form_cluster_index(kesten_lognormal, Direction([1.0]),
                                      replicas, derive_stream(41, 11))

    def test_volatility_recursion_has_no_closed_form(self,
                                                     garch_benchmark):
        assert not garch_benchmark.has_closed_form
        with pytest.raises(UnsupportedCaseError):
            closed_form_cluster_index(garch_benchmark, Direction([0.0, 1.0]),
                                      1000, derive_stream(10, 9))


def _aux_chain(a):
    """W after running W_k = (W_{k-1} + 1) A_k down the rows of a."""
    w = np.zeros(a.shape[1])
    for row in a:
        w += 1.0
        w *= row
    return w


_HORIZON_SPECS = {
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


class TestAuxiliaryHorizon:
    @pytest.mark.parametrize("name, horizon", [
        # rho = E A^0.75 = exp(-9/32), at the interior minimum s = 3/4
        ("bench_lognormal", 131),
        # alpha = 2 leaves s = 1 alone: rho = E A = exp(-1/4)
        ("kesten_lognormal", 147),
        # rho = E A = 1/2 at the end s = 1 of [1/2, 1]
        ("near_degenerate_half", 53),
        # rho = E A = 2 * 0.2 / (2 - 1) = 0.4
        ("pareto_multiplier", 41)])
    def test_horizon_from_contraction_rate(self, name, horizon):
        spec = _HORIZON_SPECS[name]()
        assert spec.aux_horizon == horizon
        *_, got = spec.closed_form_terms(np.array([1.0]), 10,
                                         derive_stream(41, 8))
        assert got == horizon

    def test_tail_index_above_two_takes_s_one(self):
        # [alpha - 1, alpha] misses (0, 1]: rho = E A = exp(-1/4) again
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)),
            b_law=TailLaw(randkit.PARETO, alpha=10.0), alpha_hint=3.0)
        assert spec.aux_horizon == 147

    def test_no_contraction_on_the_range_is_rejected(self):
        # moment root 1/2, declared index 1.8: E A^s > 1 on [0.8, 1]
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(2.0)),
            b_law=TailLaw(randkit.PARETO, alpha=10.0), alpha_hint=1.8)
        with pytest.raises(ParameterError, match="E A"):
            closed_form_cluster_index(spec, Direction([1.0]), 10,
                                      derive_stream(41, 9))

    @pytest.mark.parametrize("name, rel_tol", [
        ("bench_lognormal", 0.0),
        ("kesten_lognormal", 0.0),
        # the multiplier is 1/2 on every step, so the dropped tail is
        # 2^-53 of W: an ulp or two, not nothing
        ("near_degenerate_half", 1e-12),
        ("pareto_multiplier", 1e-12)])
    def test_cut_chain_matches_long_chain(self, name, rel_tol):
        # on the same 512-step draws, the chain run on the last K rows
        # only (the K steps nearest W's first term) against all 512
        spec = _HORIZON_SPECS[name]()
        k = spec.aux_horizon
        stream = derive_stream(41, 10)
        for i in range(8):
            a = randkit.sample_law(stream.substream(i), spec.a_law,
                                   512 * 4096).reshape(512, 4096)
            full, cut = _aux_chain(a), _aux_chain(a[-k:])
            if rel_tol == 0.0:
                assert full.tobytes() == cut.tobytes()
            else:
                assert np.max(np.abs(cut - full) / full) <= rel_tol


class TestTailProcessRoute:
    def test_matches_closed_form(self, ar_pareto15):
        est = cluster_index_tail_process(ar_pareto15, Direction([1.0]),
                                         1.5, 40, 100_000,
                                         derive_stream(42, 1))
        assert abs(est.value - B_TARGET) < 1e-8
        assert est.horizon == 40
        assert est.replicas == 100_000

    def test_callable_sampler_iid_gives_one(self, iid_pareto08):
        # tail process of an iid sequence: Theta_0 = 1, zero afterwards
        est = cluster_index_tail_process(iid_pareto08, Direction([1.0]), 0.8,
                                         10, 1000, derive_stream(42, 2))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_replica_floor(self, ar_pareto15):
        with pytest.raises(ParameterError):
            cluster_index_tail_process(ar_pareto15, Direction([1.0]), 1.5,
                                       10, 50, derive_stream(42, 3))


class TestThreads:
    """Every route reduces fixed-size chunks in index order, so its
    estimate has the same bits on any number of threads."""

    # several full chunks and a partial one, for every chunked stage
    REPLICAS = 2 * cluster._CHUNK + 500

    @pytest.mark.parametrize("route", ["tail_process", "closed_form",
                                       "telescoping", "extremal"])
    def test_routes_identical_on_one_and_two_threads(self, route):
        # the bench law (alpha 1.5): at alpha 2 the control makes the
        # summed routes exact, with no standard error to compare
        spec, th = _HORIZON_SPECS["bench_lognormal"](), Direction([1.0])
        alpha = models.tail_index(spec)
        calls = {
            "tail_process": lambda s, t: cluster_index_tail_process(
                spec, th, alpha, 8, self.REPLICAS, s, threads=t),
            "closed_form": lambda s, t: closed_form_cluster_index(
                spec, th, self.REPLICAS, s, threads=t),
            "telescoping": lambda s, t: telescoping_difference(
                spec, th, alpha, 8, self.REPLICAS, s, threads=t),
            "extremal": lambda s, t: extremal_index(
                spec, th, alpha, 8, self.REPLICAS, s, threads=t),
        }
        one, two = (calls[route](derive_stream(42, 4), t) for t in (1, 2))
        assert one.std_error > 0
        for name in ("value", "std_error", "plug_in_se"):
            assert getattr(one, name) == getattr(two, name)

    @pytest.mark.parametrize("fixture", ["kesten_lognormal",
                                         "garch_benchmark"])
    def test_b_at_identical_on_one_and_two_threads(self, request, fixture):
        spec = request.getfixturevalue(fixture)
        th = spec.tail_direction(Direction([1.0]))
        alpha = models.tail_index(spec)
        one, two = (limits._b_route(spec, th, alpha, derive_stream(42, 5),
                                    t, replicas=self.REPLICAS, horizon=8)
                    for t in (1, 2))
        assert one == two

    @pytest.mark.parametrize("fixture", ["kesten_lognormal",
                                         "garch_benchmark"])
    def test_b_pair_identical_on_one_and_two_threads(self, request,
                                                     fixture):
        spec = request.getfixturevalue(fixture)
        th = spec.tail_direction(Direction([1.0]))
        alpha = models.tail_index(spec)
        one, two = (limits._b_route(spec, th, alpha, derive_stream(42, 5),
                                    t, signs=(1, -1),
                                    replicas=self.REPLICAS, horizon=8)
                    for t in (1, 2))
        assert one == two

    def test_workers_keep_the_callers_error_state(self):
        def overflow(i):
            return np.float64(1e308) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                randkit._map_chunks(overflow, 2, 2)


class TestSharedBatch:
    """One tail-process batch serves several functionals; each estimate
    keeps the bits of its route run alone on the same stream."""

    REPLICAS = 2 * cluster._CHUNK + 500

    def test_each_functional_keeps_its_route_bytes(self, kesten_lognormal):
        spec, th = kesten_lognormal, Direction([1.0])
        alpha = models.tail_index(spec)
        shared = cluster._mc_functional(
            spec, [(th, cluster._sum_difference, cluster.ROUTE_TAIL_PROCESS),
                   (th, cluster._sup_difference, cluster.ROUTE_TAIL_PROCESS)],
            alpha, 8, self.REPLICAS, derive_stream(42, 6), 1)
        alone = [route(spec, th, alpha, 8, self.REPLICAS,
                       derive_stream(42, 6))
                 for route in (cluster_index_tail_process, extremal_index)]
        assert shared == alone

    @pytest.mark.parametrize("fixture", ["garch_benchmark",
                                         "kesten_lognormal",
                                         "ar_sympareto15"])
    def test_signed_estimates_are_the_calls_at_each_sign(self, request,
                                                         fixture):
        # the tail-process route (GARCH) and the closed form (the others)
        # give b(-theta) from the draws of b(theta)
        spec = request.getfixturevalue(fixture)
        alpha = models.tail_index(spec)
        th = spec.tail_direction(Direction([1.0]))
        stream = derive_stream(42, 7).substream(0xB0)
        pair = limits._b_route(spec, th, alpha, stream, signs=(1, -1),
                               replicas=self.REPLICAS, horizon=8)
        alone = [limits._b_route(spec, d, alpha, stream,
                                 replicas=self.REPLICAS, horizon=8)
                 for d in (th, th.negated())]
        assert pair == alone

    def test_signs_must_be_plus_or_minus_one(self, kesten_lognormal):
        for signs in ((), (1, 2), (0,)):
            with pytest.raises(ParameterError):
                cluster_index_tail_process(
                    kesten_lognormal, Direction([1.0]), 1.5, 8,
                    self.REPLICAS, derive_stream(42, 7), signs=signs)
            with pytest.raises(ParameterError):
                closed_form_cluster_index(
                    kesten_lognormal, Direction([1.0]), 100,
                    derive_stream(42, 7), signs=signs)

    def test_theta0_law_is_built_once_per_spec(self, ar_sympareto15,
                                               monkeypatch):
        spec = ar_sympareto15
        builds = []
        law = spec.theta0_law
        monkeypatch.setattr(spec, "theta0_law",
                            lambda: builds.append(1) or law())
        # three chunks of tail-process draws, then the closed form
        cluster_index_tail_process(spec, Direction([1.0]), 1.5, 4,
                                   self.REPLICAS, derive_stream(42, 8))
        closed_form_cluster_index(spec, Direction([1.0]), 500,
                                  derive_stream(42, 9))
        assert len(builds) == 1


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
    """Kesten routes subtract the regression control
    c = sum_{t>=1} |theta'Theta_t|^s, whose mean the spec knows exactly;
    the other families keep the plain mean, bit for bit."""

    @pytest.mark.parametrize("name", ["kesten_lognormal", "bench_lognormal",
                                      "pareto_multiplier"])
    def test_control_mean_matches_tail_moments(self, name):
        spec = _HORIZON_SPECS[name]()
        alpha, tv = spec.tail_index(), np.array([-1.0])
        s = cluster._control_power(alpha)
        ctrl, = models.sample_tail_process_batch(
            spec, 40, 20_000, derive_stream(47, 1), alpha,
            [(tv, functools.partial(cluster._control, s=s))])
        se = np.std(ctrl, ddof=1) / math.sqrt(ctrl.size)
        assert abs(np.mean(ctrl) - spec.tail_moments(tv, s, 40)) <= 4 * se

    def test_families_without_moments(self, ar_sympareto15,
                                      garch_benchmark):
        for spec in (ar_sympareto15, garch_benchmark):
            tv = np.ones(spec.tail_dim)
            assert spec.tail_moments(tv, 0.5, 10) is None

    def test_alpha_two_route_is_exact(self, kesten_lognormal):
        # at alpha 2, (W+1)^2 - W^2 = 2W + 1 is affine in the control
        # W = sum_{t>=1} Theta_t (s = alpha - 1 = 1), so the regression
        # recovers 1 + 2 sum_t (E A)^t with no error
        spec, horizon = kesten_lognormal, 8
        alpha = models.tail_index(spec)
        est = cluster_index_tail_process(spec, Direction([1.0]), alpha,
                                         horizon, 2000, derive_stream(47, 2))
        mean_a = math.exp(-0.25)
        exact = 1.0 + 2.0 * sum(mean_a ** t for t in range(1, horizon + 1))
        assert abs(est.value - exact) < 1e-9
        assert est.std_error < 1e-9

    def test_control_cuts_the_variance_per_draw(self, monkeypatch):
        # the bench law on one stream, with and without the control's mean
        spec, th = _HORIZON_SPECS["bench_lognormal"](), Direction([1.0])
        alpha = models.tail_index(spec)
        run = functools.partial(cluster_index_tail_process, spec, th, alpha,
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
        spec, th = _HORIZON_SPECS["bench_lognormal"](), Direction([1.0])
        alpha = models.tail_index(spec)
        functionals = [
            (th, cluster._sum_difference, cluster.ROUTE_TAIL_PROCESS),
            (th, cluster._sup_difference, cluster.ROUTE_TAIL_PROCESS)]

        def run(replicas, stream, threads=1):
            return cluster._mc_functional(spec, functionals, alpha, 10,
                                          replicas, stream, threads)

        ref = run(2_000_000, derive_stream(47, 4), threads=2)
        z = np.array([[(e.value - r.value) / e.std_error
                       for e, r in zip(run(2000, derive_stream(48, i)), ref)]
                      for i in range(300)])
        for sd in np.std(z, axis=0, ddof=1):
            assert 0.85 <= sd <= 1.15


# value, std_error and plug_in_se of each plain-mean route, from the code
# before the control: a family without tail moments keeps those bits
_PLAIN_MEAN_BITS = {
    ("garch_benchmark", "tail_process"): (
        "0x1.5e9eb3545f3b5p+12", "0x1.d65e38be7452ap+10",
        "0x1.d6574b736b18dp+10"),
    ("garch_benchmark", "telescoping"): (
        "0x1.709fada6e1186p+10", "0x1.1990c6119f6ebp+9",
        "0x1.198ca09041726p+9"),
    ("garch_benchmark", "extremal"): (
        "0x1.04dfc42157e6ep-2", "0x1.a25f8f9ca5961p-9",
        "0x1.a2596656f5620p-9"),
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
        spec = models.Garch11Spec(0.05, 0.1, 0.85)
        th = spec.tail_direction(Direction([1.0]))
    else:
        spec = models.Var1Spec(
            2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
            a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]),
            weights=np.array([1.0, 2.0]))
        th = Direction([1.0, 1.0])
    alpha = models.tail_index(spec)
    replicas, stream = cluster._CHUNK + 500, derive_stream(46, 1)
    calls = {
        "tail_process": lambda: cluster_index_tail_process(
            spec, th, alpha, 8, replicas, stream, 2),
        "telescoping": lambda: telescoping_difference(
            spec, th, alpha, 5, replicas, stream, 2),
        "extremal": lambda: extremal_index(
            spec, th, alpha, 8, replicas, stream, 2),
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
        est = telescoping_difference(ar_pareto15, Direction([1.0]), 1.5,
                                     k, 500, derive_stream(43, k))
        target = (2.0 - 2.0 ** -k) ** 1.5 - (1.0 - 2.0 ** -k) ** 1.5
        assert abs(est.value - target) < 1e-10

    def test_increasing_k_approaches_limit(self, ar_pareto15):
        vals = [telescoping_difference(ar_pareto15, Direction([1.0]), 1.5,
                                       k, 500,
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
        est = extremal_index(spec, Direction([1.0]), alpha, 40, 2000,
                             derive_stream(44, int(alpha)))
        assert abs(est.value - (1.0 - 0.5 ** alpha)) < 1e-12

    def test_iid_case_is_one(self, iid_pareto08):
        est = extremal_index(iid_pareto08, Direction([1.0]), 0.8, 10, 500,
                             derive_stream(44, 9))
        assert est.value == 1.0


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
                                         0.8, 20, 2000,
                                         derive_stream(45, 1))
        angles = iid_pareto08.theta0(2000, derive_stream(45, 2))
        bound = np.maximum(angles[:, 0], 0.0) ** 0.8
        assert est.value <= bound.mean() + 3 * est.std_error + 1e-12
