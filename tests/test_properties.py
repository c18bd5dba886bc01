"""Invariant suites over randomized inputs (no external data).

Covers the identities the estimators must satisfy exactly: CF conjugate
symmetry and unit-modulus bound, homogeneity of the half-space limit
measure, scale invariance of the Hill fit, nonnegativity of cluster
indices at Monte Carlo precision, the subadditive upper bound for
alpha <= 1, and determinism under seeding.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavytail import cluster, models, randkit
from heavytail.cluster import (Direction, LimitMeasureEvaluator,
                               cluster_index_tail_process, nu_alpha)
from heavytail.limits import StableLawParams, stable_cf
from heavytail.randkit import TailLaw, derive_stream, sample_pareto
from heavytail.tailstats import hill_estimate

PLUS = Direction([1.0])

alphas = st.floats(0.05, 1.95).filter(lambda a: abs(a - 1.0) > 1e-3)
weights = st.floats(0.0, 5.0)
grid_x = st.floats(-10.0, 10.0)

# fixed base sample reused by the scale-invariance property
_BASE = sample_pareto(derive_stream(71, 1), 1.3, 2000)


class TestCfInvariants:
    @given(a=alphas, bp=weights, bm=weights, x=grid_x)
    @settings(max_examples=200, deadline=None)
    def test_conjugate_symmetry_and_modulus(self, a, bp, bm, x):
        params = StableLawParams(a, bp, bm)
        v = stable_cf(params, x)
        w = stable_cf(params, -x)
        assert v == w.conjugate()
        assert abs(v) <= 1.0 + 1e-12

    @given(a=alphas, bp=weights, bm=weights)
    @settings(max_examples=100, deadline=None)
    def test_zero_is_one(self, a, bp, bm):
        params = StableLawParams(a, bp, bm)
        assert stable_cf(params, 0.0) == complex(1.0, 0.0)


class TestHomogeneity:
    @given(a=st.floats(0.1, 3.0), b=st.floats(0.0, 10.0),
           t=st.floats(1e-3, 1e3), r=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_nu_alpha_scaling(self, a, b, t, r):
        ev = LimitMeasureEvaluator(a, {PLUS: b})
        lhs = nu_alpha(ev, PLUS, t * r)
        rhs = r ** -a * nu_alpha(ev, PLUS, t)
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-300)


class TestHillInvariance:
    @given(c=st.floats(1e-6, 1e6), k=st.integers(10, 500))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, c, k):
        f1 = hill_estimate(_BASE, k)
        f2 = hill_estimate(c * _BASE, k)
        assert np.isclose(f1.alpha_hat, f2.alpha_hat, rtol=1e-12)


class TestParetoInversion:
    @given(seed=st.integers(0, 2 ** 32), a=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_survival_round_trip(self, seed, a):
        # survival of each draw is the closed uniform 1 - U of a twin stream
        x = sample_pareto(derive_stream(seed, 0), a, 16)
        u = 1.0 - derive_stream(seed, 0).rng.random(16)
        assert np.allclose(x ** -a, u, rtol=1e-9)


class TestDirectionInvariants:
    @given(v=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4)
           .filter(lambda v: any(abs(c) > 1e-6 for c in v)))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_and_involution(self, v):
        d = Direction(v)
        assert abs(np.linalg.norm(d.vector) - 1.0) < 1e-9
        assert np.allclose(d.negated().negated().vector, d.vector,
                           atol=1e-15)


def _spec_zoo():
    return [
        ("ar_pareto", models.Var1Spec(
            1, TailLaw(randkit.PARETO, alpha=1.5),
            a_matrix=np.array([[0.5]]))),
        ("ar_sympareto", models.Var1Spec(
            1, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
            a_matrix=np.array([[0.5]]))),
        ("ar_negative", models.Var1Spec(
            1, TailLaw(randkit.SYMMETRIC_PARETO, alpha=0.9),
            a_matrix=np.array([[-0.6]]))),
        ("garch", models.Garch11Spec(0.05, 0.1, 0.85)),
    ]


class TestClusterIndexSignAndBounds:
    @pytest.mark.parametrize("name,spec",
                             _spec_zoo(),
                             ids=[z[0] for z in _spec_zoo()])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nonnegative_at_monte_carlo_precision(self, name, spec, sign):
        est = cluster_index_tail_process(spec, Direction([sign]), 24, 4000,
                                         derive_stream(72, hash(name) % 97))
        assert est.value >= -3.0 * est.std_error - 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_alpha_at_most_one_upper_bound(self, alpha):
        spec = models.Var1Spec(1, TailLaw(randkit.PARETO, alpha=alpha),
                               a_matrix=np.array([[0.5]]))
        est = cluster_index_tail_process(spec, PLUS, 24, 4000,
                                         derive_stream(73, int(10 * alpha)))
        ang = spec.theta0(4000, derive_stream(73, 50))
        bound = np.maximum(ang[:, 0], 0.0) ** alpha
        assert est.value <= bound.mean() + 3.0 * est.std_error + 1e-12


class TestSeedDeterminism:
    def test_same_key_same_path(self):
        spec = models.Var1Spec(1, TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.array([[0.5]]))
        p1 = models.simulate_path(spec, 200, 50, derive_stream(74, 1))
        p2 = models.simulate_path(spec, 200, 50, derive_stream(74, 1))
        assert np.array_equal(p1, p2)

    def test_different_master_seed_differs(self):
        spec = models.Var1Spec(1, TailLaw(randkit.PARETO, alpha=1.5),
                               a_matrix=np.array([[0.5]]))
        p1 = models.simulate_path(spec, 200, 50, derive_stream(74, 1))
        p2 = models.simulate_path(spec, 200, 50, derive_stream(75, 1))
        assert not np.array_equal(p1, p2)

    def test_estimator_determinism_across_repeat_calls(self):
        spec = models.Var1Spec(1, TailLaw(randkit.SYMMETRIC_PARETO,
                                          alpha=1.5),
                               a_matrix=np.array([[0.5]]))
        e1 = cluster_index_tail_process(spec, PLUS, 16, 2000,
                                        derive_stream(76, 1))
        e2 = cluster_index_tail_process(spec, PLUS, 16, 2000,
                                        derive_stream(76, 1))
        assert e1.value == e2.value
        assert e1.std_error == e2.std_error
