"""Tail statistics: Hill fits and direction lookups.

Hill oracles use exact Pareto order-statistic identities and iid Pareto
samples whose index is known by construction.
"""
import math
import re

import numpy as np
import pytest

from heavytail import randkit, tailstats
from heavytail.errors import DegenerateSampleError, ParameterError
from heavytail.randkit import TailLaw, derive_stream
from heavytail.tailstats import (Direction, default_hill_k, hill_estimate,
                                 lookup_direction)


class TestHill:
    def test_recovers_pareto_index_within_ci(self):
        alpha = 1.7
        x = randkit.sample_pareto(derive_stream(31, 1), alpha, 100_000)
        fit = hill_estimate(x, default_hill_k(x.size))
        assert fit.ci_low <= alpha <= fit.ci_high
        assert abs(fit.alpha_hat - alpha) < 0.15

    def test_ci_shape_is_relative_normal_band(self):
        x = randkit.sample_pareto(derive_stream(31, 2), 2.0, 10_000)
        k = 500
        fit = hill_estimate(x, k)
        half = 1.96 / math.sqrt(k)
        assert np.isclose(fit.ci_low, fit.alpha_hat * (1 - half))
        assert np.isclose(fit.ci_high, fit.alpha_hat * (1 + half))
        assert fit.k_used == k
        assert fit.threshold > 0

    def test_exact_on_inverse_cdf_points(self):
        # deterministic points x_i = (n/i)^(1/alpha): the Hill mean of
        # log spacings telescopes to an average of log(k+1 over i)
        alpha, n, k = 2.5, 4000, 400
        i = np.arange(1, n + 1)
        x = (n / i) ** (1.0 / alpha)
        fit = hill_estimate(x, k)
        logs = np.log(x[: k]) - math.log(x[k])
        assert np.isclose(fit.alpha_hat, 1.0 / logs.mean(), rtol=1e-12)

    def test_scale_invariance_is_exact(self):
        x = randkit.sample_pareto(derive_stream(31, 3), 1.2, 5000)
        f1 = hill_estimate(x, 200)
        f2 = hill_estimate(1e6 * x, 200)
        assert np.isclose(f1.alpha_hat, f2.alpha_hat, rtol=1e-12)

    def test_overlap_predicate(self):
        a = tailstats.TailFit(1.0, 10, 0.8, 1.2, 1.0)
        b = tailstats.TailFit(1.3, 10, 1.1, 1.5, 1.0)
        c = tailstats.TailFit(2.0, 10, 1.8, 2.2, 1.0)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            hill_estimate(np.ones(100), 10)

    def test_k_domain(self):
        with pytest.raises(ParameterError):
            hill_estimate(np.arange(1.0, 11.0), 10)

    def test_default_k_is_square_root(self):
        assert default_hill_k(10_000) == 100

    @pytest.mark.parametrize("bad, count, first", [
        (math.nan, 2, 17), (-math.inf, 1, 17)])
    def test_non_finite_samples_are_named(self, bad, count, first):
        # a nan used to fail the band check, and an inf gave alpha 0
        x = randkit.sample_pareto(derive_stream(31, 4), 1.5, 1000)
        x[first] = bad
        if count == 2:
            x[400] = bad
        with pytest.raises(ParameterError, match=re.escape(
                f"samples hold {count} non-finite value(s), the first "
                f"at index {first}")):
            hill_estimate(x, 30)

    @pytest.mark.parametrize("case", ["pareto", "ties", "k = n - 1"])
    def test_partial_sort_keeps_the_full_sort_bytes(self, case):
        x = randkit.sample_law(derive_stream(31, 5), TailLaw(
            randkit.SYMMETRIC_PARETO, alpha=1.3), 5000)
        k = 70
        if case == "ties":
            # five equal |x|, two above the cut, the threshold and two
            # below it, of both signs
            at = np.argsort(np.abs(x))[::-1][k - 2:k + 3]
            x[at] = abs(x[at[2]]) * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        elif case == "k = n - 1":
            x, k = x[:300], 299
        want = full_sort_hill(x, k)
        got = hill_estimate(x, k)
        assert got == want
        assert float(got.alpha_hat).hex() == float(want.alpha_hat).hex()


def full_sort_hill(samples, k):
    """``hill_estimate`` as it ran before its partial sort: every |x|
    sorted, in descending order."""
    order = np.sort(np.abs(np.asarray(samples, dtype=float)))[::-1]
    top, threshold = order[:k], order[k]
    alpha_hat = 1.0 / float(np.mean(np.log(top / threshold)))
    half = 1.96 / math.sqrt(k)
    return tailstats.TailFit(alpha_hat, k, alpha_hat * (1.0 - half),
                             alpha_hat * (1.0 + half), float(threshold))


class TestDirectionLookup:
    TABLE = {Direction([1.0, 0.0]): 2.0, Direction([0.0, -1.0]): 0.5}

    def test_near_key_matches(self):
        assert lookup_direction(self.TABLE, [1.0, 1e-12], "b(theta)") == 2.0

    def test_missing_direction_names_itself_and_the_stored_ones(self):
        with pytest.raises(ParameterError) as err:
            lookup_direction(self.TABLE, [0.0, 3.0], "b(theta)")
        assert str(err.value) == (
            "direction [0.0, 1.0] has no stored b(theta); stored "
            "directions: [1.0, 0.0], [0.0, -1.0]")
