"""Stream reproducibility and sampler oracles.

Distribution checks compare against closed-form laws (Cauchy, Levy,
Pareto survival) or characteristic functions, never against the sampler
itself.
"""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from heavytail import randkit
from heavytail.errors import ParameterError, UnsupportedLawError
from heavytail.randkit import (RngStream, TailLaw, derive_stream,
                               law_mean, sample_law,
                               sample_pareto, sample_stable,
                               stable_tail_constant)


class TestStreams:
    def test_same_key_reproduces(self):
        a = derive_stream(123, 7).rng.integers(0, 2**63, 64)
        b = derive_stream(123, 7).rng.integers(0, 2**63, 64)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = derive_stream(123, 7).rng.integers(0, 2**63, 64)
        b = derive_stream(123, 8).rng.integers(0, 2**63, 64)
        assert not np.array_equal(a, b)

    def test_distinct_master_seeds_differ(self):
        a = derive_stream(1, 7).rng.integers(0, 2**63, 64)
        b = derive_stream(2, 7).rng.integers(0, 2**63, 64)
        assert not np.array_equal(a, b)

    def test_counter_advances(self):
        # the counter is the number of 64-bit words drawn
        s = derive_stream(5, 5)
        assert s.counter == 0
        s.rng.random(1024)
        assert s.counter == 1024
        s.rng.random(7)
        assert s.counter == 1031

    def test_substream_is_schedule_invariant(self):
        # deriving child k before or after other draws gives the same child
        parent = derive_stream(9, 3)
        child_first = parent.substream(4).rng.random(16)
        parent2 = derive_stream(9, 3)
        parent2.rng.random(1000)
        child_later = parent2.substream(4).rng.random(16)
        assert np.array_equal(child_first, child_later)

    def test_substream_children_differ(self):
        parent = derive_stream(9, 3)
        a = parent.substream(0).rng.random(16)
        b = parent.substream(1).rng.random(16)
        assert not np.array_equal(a, b)


class TestTailLaw:
    def test_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            TailLaw("weibull")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            TailLaw(randkit.PARETO, alpha=0.0)
        with pytest.raises(ParameterError):
            TailLaw(randkit.STABLE, alpha=2.5)

    def test_rejects_bad_scale_and_skew(self):
        with pytest.raises(ParameterError):
            TailLaw(randkit.PARETO, scale=-1.0)
        with pytest.raises(ParameterError):
            TailLaw(randkit.STABLE, alpha=1.5, skew=1.5)


class TestPareto:
    def test_inversion_identity(self):
        # survival of each draw is the closed uniform 1 - U of a twin stream
        x = sample_pareto(derive_stream(4, 4), 1.7, 1000)
        u = 1.0 - derive_stream(4, 4).rng.random(1000)
        assert np.allclose(x ** (-1.7), u, rtol=1e-12)

    def test_draws_respect_support_and_tail(self, stream):
        x = sample_pareto(stream, 1.2, 200_000)
        assert x.min() >= 1.0
        # empirical survival against (x)^-alpha at fixed points
        for q in (2.0, 5.0, 20.0):
            emp = (x > q).mean()
            theo = q ** -1.2
            se = math.sqrt(theo * (1 - theo) / x.size)
            assert abs(emp - theo) <= 4 * se + 1e-12

    def test_scale_acts_multiplicatively(self):
        s1 = derive_stream(3, 3)
        s2 = derive_stream(3, 3)
        a = sample_law(s1, TailLaw(randkit.PARETO, alpha=1.5, scale=1.0), 50)
        b = sample_law(s2, TailLaw(randkit.PARETO, alpha=1.5, scale=7.0), 50)
        assert np.allclose(7.0 * a, b, rtol=1e-15)


def _expression_form(rng, law, n):
    """The samplers as one expression each, with a temporary per step. A
    symmetric Pareto draw takes its sign from U - 1/2 and its survival
    1 - frac(2U) from the same uniform U."""
    if law.family == randkit.GAUSSIAN:
        return law.scale * rng.standard_normal(n)
    u = rng.random(n)
    if law.family == randkit.PARETO:
        return law.scale * (1.0 - u) ** (-1.0 / law.alpha)
    return np.copysign(law.scale * (1.0 - 2.0 * u % 1.0) ** (-1.0 / law.alpha),
                       u - 0.5)


class TestInPlaceSamplers:
    @pytest.mark.parametrize("law", [
        TailLaw(randkit.PARETO, alpha=1.5, scale=2.5),
        TailLaw(randkit.PARETO, alpha=1.0, scale=0.3),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5, scale=7.0),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=0.5),
        TailLaw(randkit.GAUSSIAN, scale=3.0),
    ], ids=lambda law: f"{law.family}-{law.alpha:g}")
    def test_bytes_of_the_expression_form(self, law):
        got = sample_law(derive_stream(6, 1), law, 10_001)
        want = _expression_form(derive_stream(6, 1).rng, law, 10_001)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("law", [
        TailLaw(randkit.PARETO, alpha=1.5, scale=2.5),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=0.5, scale=7.0),
        TailLaw(randkit.STABLE, alpha=1.3, skew=0.4, scale=3.0),
        TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
        TailLaw(randkit.GAUSSIAN, scale=3.0),
    ], ids=lambda law: law.family)
    def test_caller_buffer_gets_the_allocating_bytes(self, law):
        alone = derive_stream(6, 3)
        want = sample_law(alone, law, 10_001)
        buf = np.full(10_003, np.nan)
        stream = derive_stream(6, 3)
        got = sample_law(stream, law, 10_001, out=buf[1:-1])
        assert got.base is buf
        assert buf[1:-1].tobytes() == want.tobytes()
        assert np.isnan(buf[0]) and np.isnan(buf[-1])
        assert stream.counter == alone.counter

    @pytest.mark.parametrize("law", [
        TailLaw(randkit.PARETO, alpha=1.5, scale=2.5),
        TailLaw(randkit.SYMMETRIC_PARETO, alpha=0.5, scale=7.0),
        TailLaw(randkit.STABLE, alpha=1.3, skew=0.4, scale=3.0),
        TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0),
        TailLaw(randkit.GAUSSIAN, scale=3.0),
    ], ids=lambda law: law.family)
    @pytest.mark.parametrize("k", ["0", "1", "half", "n"])
    def test_draws_split(self, law, k):
        # k then n - k draws on one stream give the bytes of n draws; the
        # uniform families read one word a draw, the stable law two (the
        # normals' ziggurat reads a varying number)
        n = 10_001
        k = {"0": 0, "1": 1, "half": n // 2, "n": n}[k]
        whole = sample_law(derive_stream(6, 4), law, n)
        stream = derive_stream(6, 4)
        head = sample_law(stream, law, k)
        rest = sample_law(stream, law, n - k)
        assert np.concatenate([head, rest]).tobytes() == whole.tobytes()
        words = {randkit.PARETO: 1, randkit.SYMMETRIC_PARETO: 1,
                 randkit.STABLE: 2}.get(law.family)
        if words is not None:
            assert stream.counter == words * n

    def test_pareto_peak_memory_is_one_buffer(self):
        n = 1_000_000
        law = TailLaw(randkit.PARETO, alpha=1.5, scale=2.0)
        stream = derive_stream(6, 2)
        tracemalloc.start()
        try:
            x = sample_law(stream, law, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.nbytes == 8 * n
        assert peak < 1.1 * 8 * n


class TestStable:
    def test_cauchy_case_matches_closed_form(self, stream):
        # alpha=1, beta=0 is standard Cauchy
        x = sample_stable(stream, 1.0, 0.0, 20_000)
        ks = stats.kstest(x, stats.cauchy.cdf)
        assert ks.pvalue > 1e-3

    def test_levy_case_matches_closed_form(self, stream):
        # alpha=1/2, beta=1 is the one-sided Levy law with unit scale
        x = sample_stable(stream, 0.5, 1.0, 20_000)
        assert (x > 0).all()
        ks = stats.kstest(x, stats.levy.cdf)
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (1.5, 0.7),
                                            (0.8, 0.0), (1.9, -0.5)])
    def test_characteristic_function(self, alpha, beta):
        # CF exp(-|t|^a (1 - i beta tan(pi a/2) sign t)) at a few points
        n = 40_000
        x = sample_stable(derive_stream(11, int(10 * alpha)), alpha, beta, n)
        for t in (0.4, 1.0, 1.7):
            emp = np.exp(1j * t * x).mean()
            theo = np.exp(-t ** alpha
                          * (1 - 1j * beta * math.tan(math.pi * alpha / 2)))
            assert abs(emp - theo) <= 3 * math.sqrt(2.0 / n)

    def test_alpha_two_is_scaled_gaussian(self):
        # CF exp(-t^2), i.e. N(0, 2)
        x = sample_stable(derive_stream(11, 99), 2.0, 0.0, 30_000)
        ks = stats.kstest(x, stats.norm(scale=math.sqrt(2.0)).cdf)
        assert ks.pvalue > 1e-3

    def test_rejects_out_of_range(self, stream):
        with pytest.raises(ParameterError):
            sample_stable(stream, 2.1, 0.0, 1)
        with pytest.raises(ParameterError):
            sample_stable(stream, 1.0, 2.0, 1)


class TestTailConstant:
    def test_known_values(self):
        assert stable_tail_constant(1.0) == 2.0 / math.pi
        # (1-a)/(Gamma(2-a) cos(pi a/2)) at a=0.5 equals sqrt(2/pi)
        assert abs(stable_tail_constant(0.5)
                   - math.sqrt(2.0 / math.pi)) < 1e-15

    def test_matches_empirical_stable_tail(self):
        law = TailLaw(randkit.STABLE, alpha=0.7)
        x = np.abs(sample_law(derive_stream(21, 1), law, 400_000))
        for q in (25.0, 60.0):
            emp = (x > q).mean()
            # the regular-variation equivalent c x^(-alpha) of P(|X| > x)
            c, alpha = randkit.power_tail(law)
            theo = c * q ** -alpha
            assert abs(emp - theo) / theo < 0.10

    def test_domain(self):
        with pytest.raises(ParameterError):
            stable_tail_constant(2.0)


class TestLawSummaries:
    def test_pareto_mean(self):
        law = TailLaw(randkit.PARETO, alpha=1.5, scale=2.0)
        assert law_mean(law) == 2.0 * 1.5 / 0.5
        with pytest.raises(ParameterError):
            law_mean(TailLaw(randkit.PARETO, alpha=1.0))

    def test_symmetric_and_gaussian_mean_zero(self):
        assert law_mean(TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5)) == 0.0
        assert law_mean(TailLaw(randkit.GAUSSIAN)) == 0.0
        assert law_mean(TailLaw(randkit.STABLE, alpha=1.5, skew=0.3)) == 0.0

    def test_lognormal_mean(self):
        law = TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=1.0)
        assert abs(law_mean(law) - math.exp(0.0)) < 1e-15
        x = sample_law(derive_stream(2, 2), law, 200_000)
        assert abs(x.mean() - law_mean(law)) < 0.02

    def test_lognormal_draws_are_exp_of_scaled_normals(self):
        # the in-place scale, shift and exp give the bytes of the
        # one-expression form on the same stream
        law = TailLaw(randkit.LOGNORMAL, mu=-0.75, sigma=1.0)
        got = sample_law(derive_stream(2, 3), law, 10_001)
        z = derive_stream(2, 3).rng.standard_normal(10_001)
        assert got.tobytes() == np.exp(law.mu + law.sigma * z).tobytes()


class TestLawFacts:
    def test_power_tail_table(self):
        assert randkit.power_tail(TailLaw(randkit.PARETO, alpha=2.5)) \
            == (1.0, 2.5)
        assert randkit.power_tail(
            TailLaw(randkit.SYMMETRIC_PARETO, alpha=0.7)) == (1.0, 0.7)
        assert randkit.power_tail(TailLaw(randkit.STABLE, alpha=1.5)) \
            == (stable_tail_constant(1.5), 1.5)
        for law in (TailLaw(randkit.STABLE, alpha=2.0),
                    TailLaw(randkit.LOGNORMAL), TailLaw(randkit.GAUSSIAN)):
            with pytest.raises(UnsupportedLawError):
                randkit.power_tail(law)

    def test_tail_balance(self):
        assert randkit.tail_balance(TailLaw(randkit.PARETO)) == (1.0, 0.0)
        assert randkit.tail_balance(
            TailLaw(randkit.SYMMETRIC_PARETO)) == (0.5, 0.5)
        assert randkit.tail_balance(
            TailLaw(randkit.STABLE, alpha=1.2, skew=0.5)) == (0.75, 0.25)
        with pytest.raises(UnsupportedLawError):
            randkit.tail_balance(TailLaw(randkit.STABLE, alpha=2.0))

    def test_log_mean_matches_draws(self):
        for law in (TailLaw(randkit.PARETO, alpha=4.0, scale=0.5),
                    TailLaw(randkit.LOGNORMAL, mu=-0.3, sigma=0.8)):
            x = sample_law(derive_stream(3, 4), law, 200_000)
            assert abs(np.log(x).mean() - randkit.law_log_mean(law)) < 0.01
        with pytest.raises(UnsupportedLawError):
            randkit.law_log_mean(TailLaw(randkit.GAUSSIAN))

    def test_moment_closed_forms(self):
        law = TailLaw(randkit.PARETO, alpha=10.0, scale=math.sqrt(0.8))
        assert abs(randkit.law_moment(law, 2.0) - 1.0) < 1e-15
        assert randkit.law_moment(law, 10.0) == math.inf
        ln = TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=1.0)
        assert randkit.law_moment(ln, 1.0) == law_mean(ln) == 1.0
        # exp(-0.5 k + k^2/2) overflows a double at k = 40
        assert randkit.law_moment(ln, 40.0) == math.inf
        with pytest.raises(UnsupportedLawError):
            randkit.law_moment(TailLaw(randkit.STABLE, alpha=1.5), 1.0)


def test_sample_law_dispatch_shapes(stream):
    for law in (TailLaw(randkit.PARETO, alpha=1.0),
                TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.0),
                TailLaw(randkit.STABLE, alpha=1.0),
                TailLaw(randkit.LOGNORMAL),
                TailLaw(randkit.GAUSSIAN)):
        x = sample_law(stream, law, 11)
        assert x.shape == (11,)
        assert np.isfinite(x).all()
