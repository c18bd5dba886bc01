"""Stable characteristic functions, CF comparisons, large-deviation
ratio scans, and the regenerative Gaussian limit.

CF oracle: the one-sided alpha=1/2 case has the closed value
exp(-sqrt(pi/2) |x|^(1/2) (1 - i sign x)).
"""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from heavytail import cluster, limits, models, randkit, regen
from heavytail.cluster import Direction
from heavytail.errors import (DegenerateSampleError,
                              InsufficientCyclesError, OutOfRegimeError,
                              ParameterError, UnsupportedCaseError,
                              WidenRError)
from heavytail.limits import (StableLawParams, gaussian_sigma, ldp_region,
                              ldp_scan, stable_cf, stable_check)
from heavytail.randkit import TailLaw, derive_stream

PLUS = Direction([1.0])


class TestStableCf:
    def test_one_sided_half_index_closed_form(self):
        # b+ = 1, b- = 0, alpha = 1/2: 1/C_alpha = Gamma(1/2) cos(pi/4)
        params = StableLawParams(0.5, 1.0, 0.0)
        inv_c = math.gamma(0.5) * math.cos(math.pi / 4.0)
        for x in (0.5, 1.0, 2.5):
            expect = cmath.exp(-x ** 0.5 * inv_c * complex(1.0, -1.0))
            assert abs(stable_cf(params, x) - expect) < 1e-14

    def test_zero_argument_is_exactly_one(self):
        params = StableLawParams(1.5, 1.0, 0.5)
        assert stable_cf(params, 0.0) == complex(1.0, 0.0)

    def test_conjugate_symmetry(self):
        params = StableLawParams(1.3, 0.9, 0.2)
        for x in (0.3, 1.1, 2.9):
            a = stable_cf(params, x)
            b = stable_cf(params, -x)
            assert a == b.conjugate()

    def test_modulus_at_most_one(self):
        params = StableLawParams(0.7, 2.0, 0.1)
        xs = np.linspace(-3, 3, 31)
        assert all(abs(stable_cf(params, float(x))) <= 1.0
                   for x in xs)

    def test_alpha_one_requires_symmetry(self):
        with pytest.raises(UnsupportedCaseError, match="symmetric pair"):
            StableLawParams(1.0, 1.0, 0.2)
        sym = StableLawParams(1.0, 0.7, 0.7)
        val = stable_cf(sym, 2.0)
        assert val.imag == 0.0
        assert abs(val - math.exp(-2.0 * (math.pi / 2.0) * 1.4)) < 1e-14

    def test_c_alpha_is_the_formula(self):
        auto = StableLawParams(1.5, 1.0, 0.0)
        assert np.isclose(auto.c_alpha,
                          randkit.stable_tail_constant(1.5), rtol=1e-15)


class TestStableCheck:
    def test_iid_stable_sums_match_their_own_law(self):
        spec = models.Var1Spec(
            TailLaw(randkit.STABLE, alpha=1.5, skew=0.0),
            a_matrix=np.array([[0.0]]))
        cmp = stable_check(spec, PLUS, 1000, 2000,
                           derive_stream(51, 1))
        assert cmp.sup_abs_gap <= cmp.mc_band
        assert np.all(np.abs(cmp.empirical) <= 1.0 + 1e-9)
        assert cmp.grid.shape == cmp.empirical.shape

    def test_negative_direction_mirrors(self, ar_sympareto15):
        # one stream: the -theta sums are the +theta ones negated and the
        # pair is swapped, so both CFs are the exact conjugates
        plus, minus = (stable_check(ar_sympareto15, th, 400, 800,
                                    derive_stream(51, 2))
                       for th in (PLUS, PLUS.negated()))
        assert np.array_equal(minus.empirical, plus.empirical.conj())
        assert np.array_equal(minus.theoretical, plus.theoretical.conj())
        assert minus.sup_abs_gap == plus.sup_abs_gap
        assert plus.sup_abs_gap <= plus.mc_band
        assert minus.sup_abs_gap <= minus.mc_band

    def test_alpha_one_asymmetric_pair_draws_no_sum(self, monkeypatch):
        # a = 1/2 with Pareto(1) innovations: b(+1) = 1, b(-1) = 0
        spec = models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.0),
                               a_matrix=np.array([[0.5]]))
        calls = []
        monkeypatch.setattr(limits, "_scalar_sums",
                            lambda *args, **kw: calls.append(args))
        with pytest.raises(UnsupportedCaseError, match="symmetric pair"):
            stable_check(spec, PLUS, 100, 100, derive_stream(51, 5))
        assert calls == []

    def test_gaussian_innovations_rejected(self, ar_gauss):
        with pytest.raises((OutOfRegimeError, Exception)):
            stable_check(ar_gauss, PLUS, 100, 100, derive_stream(51, 3))

    def test_a_n_inverts_the_power_tail(self, monkeypatch):
        # on an iid chain a_n solves n P(|X| > a_n) = 1 for the
        # innovation law itself: exactly for Pareto, to rounding for
        # stable. With every centred sum S_n - n mu at 1, the empirical
        # CF of stable_check at x = 3 is exp(3i / a_n)
        def a_n(spec, n):
            mu, _ = limits._sum_centering(spec, models.tail_index(spec))
            monkeypatch.setattr(limits, "_scalar_sums",
                                lambda *args: np.array([n * mu + 1.0]))
            cf = stable_check(spec, PLUS, n, 1, derive_stream(51, 4))
            assert cf.grid[-1] == 3.0
            return 3.0 / cmath.phase(cf.empirical[-1])

        iid = np.array([[0.0]])
        pareto = TailLaw(randkit.PARETO, alpha=1.5, scale=3.0)
        spec = models.Var1Spec(pareto, a_matrix=iid)
        assert abs(a_n(spec, 1000) / 300.0 - 1.0) < 1e-12
        law = TailLaw(randkit.STABLE, alpha=1.5)
        spec = models.Var1Spec(law, a_matrix=iid)
        c, alpha = randkit.power_tail(law)
        assert abs(1000 * c * a_n(spec, 1000) ** -alpha - 1.0) < 1e-9

    @pytest.mark.parametrize("law", [
        TailLaw(randkit.STABLE, alpha=1.5),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5)],
        ids=lambda law: law.family)
    def test_scan_sums_hold_one_block(self, law):
        # 20,000 sums of 1,000 steps: six 3,983-replica chunks of 33.5 MB
        # of innovations each, drawn and reduced in 62-row blocks
        spec = models.Var1Spec(law, a_matrix=np.array([[0.5]]))
        tracemalloc.start()
        try:
            limits._scalar_sums(spec, 1000, 20_000, derive_stream(51, 7), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_hill_normalisation_holds_the_pilot_alone(self):
        # a fresh pilot, ordered by replica so its stack is a view, whose
        # |x| is taken and partitioned in place for the scale: about 1.1
        # pilot-sized arrays, where a copy of |x| off a read-only pilot
        # took 2.0 (the spec's burn-in and numpy's lazy imports are done
        # before tracing)
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        assert spec.default_burn > 0
        derive_stream(51, 0).rng.standard_normal(1)
        tracemalloc.start()
        try:
            limits._power_tail(spec, derive_stream(51, 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * 200_000

    def test_pilot_scale_is_drawn_on_the_stage_stream(self):
        # the recurrence has no analytic power tail, so its scale is read
        # off a pilot drawn on the stream it is handed: two stage streams
        # of one seed give two scales, and one stream gives one
        spec = models.KestenSpec(
            a_law=TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
            b_law=TailLaw(randkit.PARETO, alpha=10.0))
        ldp = limits._power_tail(spec, derive_stream(51, 6))
        stable = limits._power_tail(spec, derive_stream(51, 7))
        assert ldp[1] != stable[1]
        assert limits._power_tail(spec, derive_stream(51, 6)) == ldp

    def test_index_outside_the_stable_regime_is_rejected(self,
                                                         garch_benchmark):
        # alpha 9.07: S_n has a Gaussian limit, not a stable one
        with pytest.raises(OutOfRegimeError, match=r"\(0, 2\); got 9\.0"):
            stable_check(garch_benchmark, PLUS, 50, 100,
                         derive_stream(51, 8))

    def test_vector_direction_rejected(self, ar_sympareto15):
        with pytest.raises(ParameterError, match=r"must be \+1 or -1"):
            stable_check(ar_sympareto15, Direction([1.0, 0.0]), 50, 100,
                         derive_stream(51, 9))

    def test_all_zero_pilot_has_no_scale(self, monkeypatch):
        # GARCH has no analytic power tail, so the scale is a pilot
        # order statistic, here 0
        spec = models.Garch11Spec(0.05, 0.5, 0.55)
        monkeypatch.setattr(models, "stationary_pilot",
                            lambda spec, stream: np.zeros((1000, 1)))
        with pytest.raises(DegenerateSampleError, match="scale 0 <= 0"):
            limits._power_tail(spec, derive_stream(51, 10))

    def test_thread_count_does_not_change_values(self, ar_sympareto15):
        a = stable_check(ar_sympareto15, PLUS, 300, 600,
                         derive_stream(51, 4), threads=1)
        b = stable_check(ar_sympareto15, PLUS, 300, 600,
                         derive_stream(51, 4), threads=3)
        assert np.array_equal(a.empirical, b.empirical)
        assert a.sup_abs_gap == b.sup_abs_gap


class TestLdp:
    def test_region_formulas(self):
        b_n, c_n = ldp_region(1.5, 1000)
        assert np.isclose(b_n, 1000.0 ** (1.0 / 1.5 + 0.1))
        assert np.isclose(c_n, 100.0 * b_n)
        b2, _ = ldp_region(2.5, 1000)
        assert np.isclose(b2, 1000.0 ** 0.6)

    def test_iid_ratios_concentrate_near_one(self, iid_pareto08):
        res = ldp_scan(iid_pareto08, PLUS, 100, 100_000,
                       derive_stream(52, 1))
        assert abs(res.target - 1.0) < 1e-12
        assert res.xs.shape == res.ratios.shape == (12,)
        assert np.all(res.counts >= 50)
        # approach from above: deviation shrinks along the grid
        dev = np.abs(res.ratios - 1.0)
        assert dev[0] > dev[-1]
        assert dev[-1] < 0.15

    def test_small_budget_raises_widen(self, iid_pareto08):
        with pytest.raises(WidenRError):
            ldp_scan(iid_pareto08, PLUS, 100, 500, derive_stream(52, 2))

    def test_widen_names_every_short_point(self, iid_pareto08):
        b_n, c_n = ldp_region(0.8, 100)
        xs = np.geomspace(b_n, c_n, 13)[1:]
        with pytest.raises(WidenRError) as err:
            ldp_scan(iid_pareto08, PLUS, 100, 500, derive_stream(52, 2))
        message = str(err.value)
        for x in xs[-2:]:
            assert f"x={x:.6g} (" in message

    def test_explicit_region_is_respected(self, iid_pareto08):
        b_n, _ = ldp_region(0.8, 100)
        res = ldp_scan(iid_pareto08, PLUS, 100, 50_000,
                       derive_stream(52, 3), region=(b_n, 10.0 * b_n),
                       grid_size=4)
        assert res.xs[0] > b_n
        assert np.isclose(res.xs[-1], 10.0 * b_n)

    def test_thread_count_does_not_change_values(self, iid_pareto08):
        r1 = ldp_scan(iid_pareto08, PLUS, 100, 30_000,
                      derive_stream(52, 4), grid_size=6, threads=1)
        r2 = ldp_scan(iid_pareto08, PLUS, 100, 30_000,
                      derive_stream(52, 4), grid_size=6, threads=4)
        assert np.array_equal(r1.ratios, r2.ratios)
        assert np.array_equal(r1.counts, r2.counts)

    def test_vector_direction_rejected(self, iid_pareto08):
        with pytest.raises(ParameterError):
            ldp_scan(iid_pareto08, Direction([1.0, 0.0]), 100, 1000,
                     derive_stream(52, 5))

    def test_empty_grid_rejected(self, iid_pareto08):
        with pytest.raises(ParameterError, match="grid_size"):
            ldp_scan(iid_pareto08, PLUS, 100, 1000, derive_stream(52, 6),
                     grid_size=0)

    @pytest.mark.parametrize("n, reps, bad", [(1000, 0, "reps = 0"),
                                              (0, 1000, "n = 0")])
    def test_empty_sum_budget_rejected(self, ar_pareto15, n, reps, bad):
        # no replicas left numpy to concatenate nothing, and no steps
        # read as a scan short of exceedances at every point
        with pytest.raises(ParameterError, match=bad):
            ldp_scan(ar_pareto15, PLUS, n, reps, derive_stream(52, 8),
                     region=(10.0, 1000.0))

    def test_reversed_region_rejected(self, iid_pareto08):
        with pytest.raises(ParameterError, match="0 < b_n < c_n"):
            ldp_scan(iid_pareto08, PLUS, 100, 1000, derive_stream(52, 7),
                     region=(10.0, 1.0))


class TestGarchBStreams:
    """On GARCH both checks read b from the first-step route on the b
    substream 0xB0 of the run's stream. No golden GARCH ratio scan pins
    the ratio target: the default outer point needs far more replicas
    there."""

    SPEC = (0.05, 0.5, 0.55)

    def _b(self, spec, stream):
        return max(cluster.first_step_cluster_index(
            spec, limits._B_HORIZON, limits._B_REPLICAS, stream, 1).value,
            0.0)

    def test_ldp_target_is_the_first_step_estimate_on_its_stream(self):
        spec = models.Garch11Spec(*self.SPEC)
        res = ldp_scan(spec, PLUS, 50, 2000, derive_stream(53, 1),
                       region=(1.0, 15.0))
        assert res.target == self._b(
            spec, derive_stream(53, 1).substream(0xB0))

    def test_ldp_scan_has_no_target_at_alpha_two_or_more(
            self, garch_benchmark):
        # alpha 9.07: the scan refuses before it draws its sums
        with pytest.raises(OutOfRegimeError, match=r"alpha = 9\.0"):
            ldp_scan(garch_benchmark, PLUS, 50, 2000, derive_stream(53, 3),
                     region=(1.0, 15.0))

    def test_stable_pair_is_the_first_step_estimate_on_its_stream(self):
        spec = models.Garch11Spec(*self.SPEC)
        cf = stable_check(spec, PLUS, 50, 200, derive_stream(53, 2))
        b = self._b(spec, derive_stream(53, 2).substream(0xB0))
        params = StableLawParams(models.tail_index(spec), b, b)
        want = [stable_cf(params, float(x)) for x in limits.CF_GRID]
        assert cf.theoretical.tobytes() == np.array(want).tobytes()


class TestGaussianSigma:
    def test_iid_blocks_recover_variance(self):
        # cycle length 1 everywhere: the long-run variance is the plain
        # variance of the innovations
        law = TailLaw(randkit.GAUSSIAN)
        spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
        mino = regen.make_iid_minorization(law)
        blocks = regen.harvest_blocks(spec, mino, 50_000,
                                      derive_stream(53, 1))
        rep = gaussian_sigma(blocks)
        assert abs(rep.sigma_hat - 1.0) < 0.05
        # the batch-means side has relative SE sqrt(2 / (nb - 1)) over its
        # nb batches of isqrt(n) steps (0.095 here): gate at 4 SE
        n = blocks.path.size
        nb = n // math.isqrt(n)
        assert rep.rel_gap < 4 * math.sqrt(2.0 / (nb - 1))
        assert rep.n_cycles == blocks.n_cycles

    def test_iid_pareto_blocks_recover_centred_variance(self):
        # Pareto(5) has mean 5/4 and variance 5/48; uncentred cycle sums
        # would give the second moment 5/3 instead
        law = TailLaw(randkit.PARETO, alpha=5.0)
        spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
        blocks = regen.harvest_blocks(spec, regen.make_iid_minorization(law),
                                      200_000, derive_stream(53, 5))
        rep = gaussian_sigma(blocks)
        assert abs(rep.sigma_hat - 5.0 / 48.0) / (5.0 / 48.0) < 0.10

    def test_dependent_chain_matches_analytic_long_run(self, ar_gauss):
        # long-run variance of the a = 1/2 Gaussian chain:
        # (1/(1-a))^2 = 4
        mino = regen.make_var1_minorization(ar_gauss,
                                            stream=derive_stream(53, 2))
        blocks = regen.harvest_blocks(ar_gauss, mino, 500_000,
                                      derive_stream(53, 3))
        rep = gaussian_sigma(blocks)
        assert abs(rep.sigma_hat - 4.0) / 4.0 < 0.10
        assert rep.rel_gap < 0.10

    def test_keeps_the_bytes_of_the_cycle_arrays(self, ar_gauss):
        mino = regen.make_var1_minorization(ar_gauss, m_bound=2.0)
        blocks = regen.harvest_blocks(ar_gauss, mino, 100_000,
                                      derive_stream(53, 6))
        sums = blocks.block_sums
        lengths = np.diff(blocks.cycle_starts).astype(float)
        resid = sums - lengths * (sums.sum() / lengths.sum())
        want = float(resid @ resid) / sums.size / float(np.mean(lengths))
        assert gaussian_sigma(blocks).sigma_hat == want

    def test_too_few_cycles_raises(self):
        law = TailLaw(randkit.GAUSSIAN)
        spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
        mino = regen.make_iid_minorization(law)
        blocks = regen.harvest_blocks(spec, mino, 20, derive_stream(53, 4))
        with pytest.raises(InsufficientCyclesError):
            gaussian_sigma(blocks)
