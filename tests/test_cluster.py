"""Cluster-index routes against closed-form targets.

For the scalar linear chain with coefficient a and all-positive
innovations the index along +1 is (1/(1-a))^alpha - (a/(1-a))^alpha,
which is 2^alpha - 1 at a = 1/2; the sup functional gives 1 - a^alpha.
Symmetric innovations halve the one-sided values. These targets anchor
every route.
"""
import math

import numpy as np
import pytest

from heavytail import cluster, models, randkit
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

    def test_blocked_auxiliary_chain_matches_one_shot_draw(
            self, kesten_lognormal):
        # two and a half blocks against the whole multiplier matrix at once
        spec = kesten_lognormal
        replicas = 2 * models._AUX_BLOCK + models._AUX_BLOCK // 2
        stream = derive_stream(41, 7)
        u, w, _ = spec.closed_form_terms(np.array([1.0]), replicas, stream)
        angles = spec.theta0(replicas,
                             stream.substream(models._CLOSED_ANGLES))
        a = randkit.sample_law(stream.substream(models._CLOSED_AUX),
                               spec.a_law, replicas * models._AUX_BURN)
        a = a.reshape(replicas, models._AUX_BURN)
        aux = np.zeros(replicas)
        for t in range(models._AUX_BURN):
            aux = (aux + 1.0) * a[:, t]
        assert w.tobytes() == (aux * angles[:, 0] * 1.0).tobytes()
        assert u.tobytes() == ((aux + 1.0) * angles[:, 0] * 1.0).tobytes()

    def test_volatility_recursion_has_no_closed_form(self,
                                                     garch_benchmark):
        assert not garch_benchmark.has_closed_form
        with pytest.raises(UnsupportedCaseError):
            closed_form_cluster_index(garch_benchmark, Direction([0.0, 1.0]),
                                      1000, derive_stream(10, 9))


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

    def test_chunking_does_not_change_result(self, ar_pareto15):
        # replicas straddling the chunk boundary reduce identically to a
        # fresh run with the same stream key
        n = (1 << 16) + 500
        e1 = cluster_index_tail_process(ar_pareto15, Direction([1.0]), 1.5,
                                        8, n, derive_stream(42, 4))
        e2 = cluster_index_tail_process(ar_pareto15, Direction([1.0]), 1.5,
                                        8, n, derive_stream(42, 4))
        assert e1.value == e2.value and e1.std_error == e2.std_error


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
