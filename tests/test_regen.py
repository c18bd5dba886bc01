"""Regeneration: split-chain validity, exact block decomposition, Kac
occupation identity, and block statistics.

Fidelity oracles compare the states at regeneration times against the
closed-form regeneration law nu.
"""
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy import stats

from heavytail import models, randkit, regen
from heavytail.errors import (InsufficientCyclesError,
                              MinorizationInvalidError, ParameterError,
                              UnsupportedCaseError)
from heavytail.randkit import TailLaw, derive_stream
from heavytail.regen import (MinorizationSpec, harvest_blocks, kac_check,
                             make_iid_minorization,
                             make_var1_minorization)


@pytest.fixture
def gauss_mino(ar_gauss):
    return make_var1_minorization(ar_gauss, stream=derive_stream(61, 0))


@pytest.fixture
def bad_mino():
    """Gaussian a = 1/2 chain on {|x| <= 1} with epsilon far above the
    true minorization mass: eps nu(y) exceeds p(x, y) near y = 0."""
    return MinorizationSpec(
        epsilon=0.5,
        nu_sampler=lambda stream: float(stream.rng.normal()),
        transition_density=lambda x, y: stats.norm.pdf(y - 0.5 * x),
        nu_density=lambda y: stats.norm.pdf(y) * 5.0,
        m_bound=1.0, heuristic=False)


def one_shot_path(spec, minorization, n, stream):
    """The chain's n states from a nu draw, drawn and filtered whole."""
    a, law = spec.linear_step()
    x0 = float(minorization.nu_sampler(stream))
    z = randkit.sample_law(stream, law, n - 1)
    return models._ar1(np.concatenate(([x0], z))[None], a)[0]


def one_shot_harvest(spec, minorization, n, stream):
    """The retrospective harvest in one pass over the whole path: one
    batch of uniforms and one density evaluation for every small-set
    step. Returns (cycle_starts, block_sums, total, path)."""
    path = one_shot_path(spec, minorization, n, stream)
    u = stream.rng.random(n - 1)
    t = np.flatnonzero(np.abs(path[:-1]) <= minorization.m_bound)
    eps = minorization.epsilon
    if eps == 1.0:
        ratio = 1.0
    else:
        x, y = path[t], path[t + 1]
        p = minorization.transition_density(x, y)
        g = eps * minorization.nu_density(y)
        bad = np.flatnonzero((p <= 0.0) | (g > p * (1.0 + 1e-9)))
        if bad.size:
            i = bad[0]
            raise MinorizationInvalidError(
                f"minorizing bound exceeds the transition density at "
                f"{bad.size} small-set step(s), first x={x[i]:.6g} -> "
                f"y={y[i]:.6g}; epsilon too large for this small set")
        ratio = g / p
    starts = np.concatenate(([0], t[u[t] < ratio] + 1))
    segments = np.add.reduceat(path, starts)
    total = np.add.accumulate(np.concatenate(([0.0], segments)))[-1]
    return starts, segments[:-1], total, path


# 48 whole marking blocks and part of a 49th
BLOCKS_N = 48 * regen._BLOCK + 1234


@pytest.fixture
def pareto_chain():
    return models.Var1Spec(TailLaw(randkit.PARETO, alpha=0.8),
                           a_matrix=np.array([[0.5]]))


class TestMinorizationConstruction:
    def test_gaussian_epsilon_formula(self, ar_gauss):
        mino = make_var1_minorization(ar_gauss, m_bound=2.0)
        # epsilon = 2 Phibar(|a| M / s) with a = 1/2, M = 2, s = 1
        expect = 2.0 * stats.norm.sf(1.0)
        assert abs(mino.epsilon - expect) < 1e-12
        assert not mino.heuristic

    def test_pareto_epsilon_formula(self, pareto_chain):
        mino = make_var1_minorization(pareto_chain, m_bound=4.0)
        # epsilon = ((s + 2 a M)/s)^(-alpha) = 5^(-0.8)
        assert abs(mino.epsilon - 5.0 ** -0.8) < 1e-12

    def test_pilot_bound_marked_heuristic(self, ar_gauss):
        mino = make_var1_minorization(ar_gauss,
                                      stream=derive_stream(61, 1))
        assert mino.heuristic
        assert mino.m_bound > 0
        assert 0 < mino.epsilon < 1

    def test_pilot_bound_holds_the_pilot_alone(self, ar_gauss):
        # the pilot's |x| is taken and its quantile found in place: about
        # 1.2 pilot-sized arrays, where a copy of |x| off a read-only
        # pilot and the quantile's own copy took 3.0 (numpy's lazy
        # imports are done before tracing)
        derive_stream(61, 0).rng.standard_normal(1)
        np.quantile(np.ones(3), 0.5)
        tracemalloc.start()
        try:
            make_var1_minorization(ar_gauss, stream=derive_stream(61, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * 200_000

    def test_gaussian_nu_draw_is_finite_at_a_zero_uniform(self, ar_gauss):
        # rng.random() can return exactly 0.0; the nu quantile must stay
        # finite there (it is the edge |y| = 0 of nu's support)
        stub = types.SimpleNamespace(
            rng=types.SimpleNamespace(random=lambda: 0.0))
        mino = make_var1_minorization(ar_gauss, m_bound=2.0)
        y = mino.nu_sampler(stub)
        assert math.isfinite(y) and abs(y) < 1e-12

    def test_gaussian_nu_draws_follow_nu(self, ar_gauss):
        # nu has density phi((|y| + c)/s) / eps: P(|Y| > t) =
        # Phibar((t + c)/s) / Phibar(c/s), with c = |a| M and s = 1
        mino = make_var1_minorization(ar_gauss, m_bound=2.0)
        stream = derive_stream(61, 9)
        y = np.array([mino.nu_sampler(stream) for _ in range(4000)])
        cdf = lambda t: 1.0 - stats.norm.sf(t + 1.0) / stats.norm.sf(1.0)
        assert stats.kstest(np.abs(y), cdf).pvalue > 0.01
        assert abs(np.mean(y > 0) - 0.5) < 4 * 0.5 / math.sqrt(y.size)

    def test_unsupported_specs_rejected(self, garch_benchmark):
        with pytest.raises(UnsupportedCaseError):
            make_var1_minorization(garch_benchmark)

    def test_neither_bound_nor_stream_is_rejected(self, ar_gauss):
        with pytest.raises(ParameterError, match="m_bound or a stream"):
            make_var1_minorization(ar_gauss)


class TestHarvest:
    def test_decomposition_is_bit_exact(self, ar_gauss, gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 100_000,
                                derive_stream(62, 1))
        assert blocks.reconstruct_total() == blocks.total
        assert blocks.n == 100_000
        assert blocks.path.shape == (100_000,)
        # the refold matches a block-by-block loop bit for bit
        acc = 0.0
        for value in blocks.block_sums:
            acc = acc + float(value)
        assert blocks.reconstruct_total() == acc + blocks.tail_sum

    def test_total_equals_path_sum_to_float_tolerance(self, ar_gauss,
                                                      gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 50_000,
                                derive_stream(62, 2))
        assert np.allclose(blocks.total, blocks.path.sum(),
                           rtol=1e-9, atol=1e-9)

    def test_cycle_bookkeeping(self, ar_gauss, gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 50_000,
                                derive_stream(62, 3))
        starts = blocks.cycle_starts
        assert starts[0] == 0
        assert np.all(np.diff(starts) >= 1)
        assert blocks.n_cycles == starts.size - 1
        assert blocks.block_sums.shape == (blocks.n_cycles,)
        assert np.all(np.diff(blocks.cycle_starts) >= 1)

    def test_pareto_chain_harvest(self, pareto_chain):
        mino = make_var1_minorization(pareto_chain, m_bound=4.0)
        blocks = harvest_blocks(pareto_chain, mino, 100_000,
                                derive_stream(62, 4))
        assert blocks.reconstruct_total() == blocks.total
        assert blocks.n_cycles > 1000

    def test_invalid_split_detected(self, ar_gauss, bad_mino):
        with pytest.raises(MinorizationInvalidError, match="x="):
            harvest_blocks(ar_gauss, bad_mino, 10_000,
                           derive_stream(62, 6))

    def test_regeneration_share_on_small_set(self, ar_gauss, gauss_mino):
        # after a small-set state the next step regenerates with
        # probability epsilon, whatever the state
        blocks = harvest_blocks(ar_gauss, gauss_mino, 200_000,
                                derive_stream(62, 7))
        x = blocks.path
        regenerated = np.zeros(x.size, dtype=bool)
        regenerated[blocks.cycle_starts] = True
        on_set = np.abs(x[:-1]) <= gauss_mino.m_bound
        hits = regenerated[1:][on_set]
        eps = gauss_mino.epsilon
        se = math.sqrt(eps * (1 - eps) / hits.size)
        assert abs(hits.mean() - eps) < 4 * se
        # regenerations only ever follow a small-set state
        assert not regenerated[1:][~on_set].any()

    @pytest.mark.parametrize("chain", ["gaussian", "pareto"])
    def test_regeneration_states_follow_nu(self, chain, ar_gauss,
                                           pareto_chain):
        # under retrospective marking a state at a regeneration time has
        # law nu exactly, which is what makes the cycles iid
        if chain == "gaussian":
            mino = make_var1_minorization(ar_gauss, m_bound=2.0)
            blocks = harvest_blocks(ar_gauss, mino, 100_000,
                                    derive_stream(62, 12))
            # nu has density phi(|y| + c) / eps, c = a M = 1
            cdf = lambda y: 0.5 + np.sign(y) * (
                stats.norm.sf(1.0) - stats.norm.sf(np.abs(y) + 1.0)) \
                / mino.epsilon
        else:
            mino = make_var1_minorization(pareto_chain, m_bound=4.0)
            blocks = harvest_blocks(pareto_chain, mino, 200_000,
                                    derive_stream(62, 12))
            # y + c ~ Pareto(0.8) on scale s + 2c = 5, c = a M = 2
            cdf = lambda y: 1.0 - (np.maximum(y + 2.0, 5.0) / 5.0) ** -0.8
        states = blocks.path[blocks.cycle_starts[1:]]
        assert states.size > 1000
        assert stats.kstest(states, cdf).pvalue > 0.01

    def test_unsupported_spec_rejected(self, kesten_lognormal,
                                       gauss_mino):
        with pytest.raises(UnsupportedCaseError):
            harvest_blocks(kesten_lognormal, gauss_mino, 1000,
                           derive_stream(62, 8))

    @pytest.mark.parametrize("chain", ["gaussian", "pareto", "iid"])
    def test_step_blocks_keep_the_one_shot_bytes(self, chain, ar_gauss,
                                                 gauss_mino, pareto_chain):
        if chain == "gaussian":
            spec, mino = ar_gauss, gauss_mino
        elif chain == "pareto":
            spec = pareto_chain
            mino = make_var1_minorization(spec, m_bound=4.0)
        else:
            law = TailLaw(randkit.GAUSSIAN)
            spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
            mino = make_iid_minorization(law)
        blocks = harvest_blocks(spec, mino, BLOCKS_N, derive_stream(62, 9))
        starts, sums, total, path = one_shot_harvest(
            spec, mino, BLOCKS_N, derive_stream(62, 9))
        assert blocks.cycle_starts.tobytes() == starts.tobytes()
        assert blocks.block_sums.tobytes() == sums.tobytes()
        assert float(blocks.total).hex() == float(total).hex()
        assert blocks.reconstruct_total() == blocks.total
        assert blocks.path.tobytes() == path.tobytes()
        # regenerations in every marking block
        assert np.unique(starts // regen._BLOCK).size == 49

    def test_invalid_split_reports_every_step_block(self, ar_gauss,
                                                    bad_mino):
        path = one_shot_path(ar_gauss, bad_mino, BLOCKS_N,
                             derive_stream(62, 10))
        x, y = path[:-1], path[1:]
        p = bad_mino.transition_density(x, y)
        wrong = (np.abs(x) <= bad_mino.m_bound) & (
            p * (1.0 + 1e-9) < bad_mino.epsilon * bad_mino.nu_density(y))
        # violations fall in every marking block
        assert np.unique(np.flatnonzero(wrong)
                         // regen._BLOCK).size == 49
        with pytest.raises(MinorizationInvalidError) as want:
            one_shot_harvest(ar_gauss, bad_mino, BLOCKS_N,
                             derive_stream(62, 10))
        with pytest.raises(MinorizationInvalidError) as got:
            harvest_blocks(ar_gauss, bad_mino, BLOCKS_N,
                           derive_stream(62, 10))
        assert str(got.value) == str(want.value)

    def test_harvest_holds_the_path_and_one_step_block(self, ar_gauss,
                                                       gauss_mino):
        # one path-sized buffer, plus the scan's block-end correction or
        # the cycles and one marking block: 1.43 path-sized arrays here,
        # where innovations in a buffer of their own and a padded scan
        # took 4.0
        n = 200_000
        tracemalloc.start()
        try:
            harvest_blocks(ar_gauss, gauss_mino, n, derive_stream(62, 11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n

    def test_determinism(self, ar_gauss, gauss_mino):
        b1 = harvest_blocks(ar_gauss, gauss_mino, 20_000,
                            derive_stream(62, 5))
        b2 = harvest_blocks(ar_gauss, gauss_mino, 20_000,
                            derive_stream(62, 5))
        assert np.array_equal(b1.path, b2.path)
        assert np.array_equal(b1.cycle_starts, b2.cycle_starts)


class TestBlocksOrientation:
    """``RegenBlocks`` holds one float per cycle and one per step: a 1-d
    input is kept as it is, and a 2-d one, in either orientation, is
    rejected by its shape, so there is no orientation to guess."""

    def _blocks(self, **fields):
        base = dict(cycle_starts=[0, 1, 2, 3], block_sums=[1.0, 2.0, 3.0],
                    tail_sum=0.0, total=6.0, path=np.arange(3.0), n=3)
        return regen.RegenBlocks(**{**base, **fields})

    def test_one_dimensional_inputs_are_kept(self):
        blocks = self._blocks()
        assert blocks.block_sums.shape == (3,)
        assert blocks.path.shape == (3,)
        assert blocks.n_cycles == 3
        assert blocks.reconstruct_total() == 6.0

    @pytest.mark.parametrize("fields", [
        dict(path=np.arange(3.0)[:, None]),
        dict(path=np.arange(6.0).reshape(2, 3), n=2, cycle_starts=[0, 2],
             block_sums=[1.0]),
        dict(block_sums=np.arange(3.0)[:, None]),
        dict(block_sums=np.ones((1, 3)))])
    def test_two_dimensional_inputs_are_rejected(self, fields):
        shape = np.shape(fields.get("path", fields.get("block_sums")))
        with pytest.raises(ParameterError, match=re.escape(str(shape))):
            self._blocks(**fields)

    @pytest.mark.parametrize("path", [np.arange(4.0),
                                      np.arange(6.0).reshape(3, 2).T])
    def test_path_must_have_n_rows(self, path):
        with pytest.raises(ParameterError, match="n = 3"):
            self._blocks(path=path)


class TestIidAtomization:
    def test_every_step_regenerates(self):
        law = TailLaw(randkit.PARETO, alpha=1.5)
        spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
        blocks = harvest_blocks(spec, make_iid_minorization(law), 5000,
                                derive_stream(63, 1))
        lengths = np.diff(blocks.cycle_starts)
        assert float(lengths.mean()) == 1.0
        assert np.all(lengths == 1)
        # each block is one increment of the path
        assert np.allclose(blocks.block_sums, blocks.path[:-1],
                           rtol=0, atol=0)

    def test_kac_is_exact(self):
        law = TailLaw(randkit.GAUSSIAN)
        spec = models.Var1Spec(law, a_matrix=np.array([[0.0]]))
        blocks = harvest_blocks(spec, make_iid_minorization(law), 2000,
                                derive_stream(63, 2))
        report = kac_check(blocks, 1.0)
        assert report.mean_length == 1.0
        assert report.expected_length == 1.0
        assert report.z_score == 0.0
        assert report.passed


def loop_kac_check(blocks, pi_a_estimate):
    """``kac_check`` as it counted before: float lengths, ``np.std`` and
    one comparison over all cycles per length value, 4,096 values at a
    time (each count, and so each float, is the same at any batch)."""
    lengths = np.diff(blocks.cycle_starts).astype(float)
    mean_len = float(lengths.mean())
    se = float(lengths.std(ddof=1) / math.sqrt(lengths.size))
    expected = 1.0 / pi_a_estimate
    z = (mean_len - expected) / se
    ks = np.arange(1, int(lengths.max()) + 1)
    surv = np.concatenate([
        (lengths[None, :] > ks[lo:lo + 4096, None]).mean(axis=1)
        for lo in range(0, ks.size, 4096)])
    keep = surv > 0
    rate = float(-np.polyfit(ks[keep], np.log(surv[keep]), 1)[0])
    return regen.KacReport(mean_length=mean_len, expected_length=expected,
                           z_score=float(z), passed=abs(z) <= 3.0,
                           geometric_rate=rate)


def blocks_of_lengths(lengths):
    """Cycles of the given lengths over a zero path."""
    starts = np.concatenate(([0], np.cumsum(lengths)))
    return regen.RegenBlocks(cycle_starts=starts,
                             block_sums=np.zeros(lengths.size),
                             tail_sum=0.0, total=0.0,
                             path=np.zeros(starts[-1]), n=int(starts[-1]))


class TestKac:
    @pytest.mark.parametrize("law", ["geometric", "pareto"])
    def test_one_count_per_length_keeps_the_bytes_of_the_loop(self, law):
        if law == "geometric":
            # P(L > l) = 0.7^l: 5,000 cycles, the longest of 40 steps
            u = 1.0 - derive_stream(65, 9).rng.random(5000)
            lengths = np.floor(np.log(u) / math.log(0.7)).astype(int) + 1
        else:
            # 200 ceiled Pareto(0.4) draws, the longest of 219,765 steps
            lengths = np.ceil(randkit.sample_pareto(
                derive_stream(65, 1), 0.4, 200)).astype(int)
        blocks = blocks_of_lengths(lengths)
        pi = 1.0 / float(np.median(lengths))
        assert kac_check(blocks, pi) == loop_kac_check(blocks, pi)

    def test_harvest_report_keeps_the_bytes_of_the_loop(self, ar_gauss,
                                                        gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 100_000,
                                derive_stream(64, 6))
        pi = gauss_mino.epsilon * regen.stationary_small_set_mass(
            blocks.path, gauss_mino.m_bound)
        assert kac_check(blocks, pi) == loop_kac_check(blocks, pi)

    def test_gaussian_chain_passes(self, ar_gauss, gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 200_000,
                                derive_stream(64, 1))
        pi_c = regen.stationary_small_set_mass(blocks.path,
                                               gauss_mino.m_bound)
        report = kac_check(blocks, gauss_mino.epsilon * pi_c)
        assert report.passed
        assert abs(report.z_score) <= 3.0
        assert report.geometric_rate > 0.0

    def test_small_set_mass_matches_stationary_law(self, ar_gauss,
                                                   gauss_mino):
        # stationary law is N(0, 1/(1-a^2))
        blocks = harvest_blocks(ar_gauss, gauss_mino, 200_000,
                                derive_stream(64, 2))
        emp = regen.stationary_small_set_mass(blocks.path,
                                              gauss_mino.m_bound)
        sd = math.sqrt(4.0 / 3.0)
        expect = 1.0 - 2.0 * stats.norm.sf(gauss_mino.m_bound / sd)
        assert abs(emp - expect) < 0.01

    def test_small_set_mass_counts_over_row_blocks(self, ar_gauss,
                                                   gauss_mino):
        # a path-sized |x|, comparison and mean would hold three arrays
        # of the path's size
        n = 200_000
        blocks = harvest_blocks(ar_gauss, gauss_mino, n,
                                derive_stream(64, 5))
        tracemalloc.start()
        try:
            mass = regen.stationary_small_set_mass(blocks.path,
                                                   gauss_mino.m_bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n
        inside = np.abs(blocks.path) <= gauss_mino.m_bound
        assert mass == float(inside.mean())

    def test_small_set_mass_of_scalar_states(self):
        path = np.array([0.5, 3.0, -1.0])
        assert regen.stationary_small_set_mass(path, 2.0) == 2.0 / 3.0
        assert regen.stationary_small_set_mass(-path, 2.0) == 2.0 / 3.0

    @pytest.mark.parametrize("path", [np.array([[0.5], [3.0], [-1.0]]),
                                      np.array([[1.0, 1.0], [2.0, 1.0]])])
    def test_small_set_mass_rejects_a_two_dimensional_path(self, path):
        with pytest.raises(ParameterError,
                           match=re.escape(f"got shape {path.shape}")):
            regen.stationary_small_set_mass(path, 2.0)

    @pytest.mark.parametrize("path", [np.empty(0), np.empty((0, 1))])
    def test_small_set_mass_rejects_an_empty_path(self, path):
        with pytest.raises(ParameterError, match="at least one state"):
            regen.stationary_small_set_mass(path, 2.0)

    @pytest.mark.parametrize("m_bound", [0.0, -1.0, math.nan])
    def test_small_set_mass_rejects_a_bound_that_is_not_positive(
            self, m_bound):
        with pytest.raises(ParameterError, match=f"got {m_bound!r}"):
            regen.stationary_small_set_mass(np.array([0.5]), m_bound)

    def test_insufficient_cycles(self, ar_gauss, gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 60,
                                derive_stream(64, 3))
        if blocks.n_cycles < 30:
            with pytest.raises(InsufficientCyclesError):
                kac_check(blocks, 0.05)

    def test_pi_domain(self, ar_gauss, gauss_mino):
        blocks = harvest_blocks(ar_gauss, gauss_mino, 50_000,
                                derive_stream(64, 4))
        with pytest.raises(ParameterError):
            kac_check(blocks, 0.0)
