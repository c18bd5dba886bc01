"""Acceptance gate: ten numbered end-to-end criteria, one PASS/FAIL line
each.

Each test exercises a full pipeline at production problem sizes against
targets that are either closed forms or frozen values from independent
oracles, with every tolerance pinned in the assertion.  Deterministic
targets carry a 1e-8 floor for truncation error: the routes stop the
cluster functional at a finite horizon or lag (the telescoping
difference at k = 30 is 5.8e-10 short of its limit), while on fixtures
whose tail process is nonrandom every replica is identical and the
standard error is rounding noise far below that, so 3*SE alone would
fail an exact route for its truncation.
"""
import math
import os
import time

import numpy as np
from scipy import integrate, optimize, stats

import conftest
from heavytail import models, randkit, regen, tailstats
from heavytail.cli import parse_config, run
from heavytail.cluster import (Direction, LimitMeasureEvaluator,
                               closed_form_cluster_index,
                               cluster_index_tail_process, extremal_index,
                               nu_alpha, telescoping_difference)
from heavytail.limits import (StableLawParams, gaussian_sigma, ldp_region,
                              ldp_scan, stable_cf, stable_check)
from heavytail.randkit import TailLaw, derive_stream
from heavytail.regen import (harvest_blocks, kac_check,
                             make_iid_minorization, make_var1_minorization)
from heavytail.tailstats import default_hill_k, hill_estimate

SEED = conftest.MASTER_SEED
PLUS = Direction([1.0])
MINUS = Direction([-1.0])
B_TARGET = 2.0 ** 1.5 - 1.0     # cluster index of the a=1/2 chain, alpha=3/2
FLOOR = 1e-8                    # tolerance floor for deterministic targets
GOLDEN = os.path.join(os.path.dirname(__file__), "data")

# [DERIVED] root of E[(0.1 Z^2 + 0.85)^(kappa/2)] = 1, Z ~ N(0,1), computed
# with scipy.integrate.quad + brentq at xtol=1e-13 (re-derived below).
GARCH_KAPPA_ORACLE = 9.071773707212804


def _report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _ar_spec(alpha, family=randkit.PARETO, a=0.5):
    return models.Var1Spec(TailLaw(family, alpha=alpha),
                           a_matrix=np.array([[a]]))


def test_criterion_01_cluster_index_three_routes():
    spec = _ar_spec(1.5)
    t0 = time.perf_counter()
    tail = cluster_index_tail_process(spec, PLUS, 40, 100_000,
                                      derive_stream(SEED, 101))
    closed = closed_form_cluster_index(spec, PLUS, 100_000)
    tele = telescoping_difference(spec, PLUS, 30, 100_000,
                                  derive_stream(SEED, 103))
    elapsed = time.perf_counter() - t0
    errs = [abs(e.value - B_TARGET) for e in (tail, closed, tele)]
    tols = [max(3.0 * e.std_error, FLOOR) for e in (tail, closed, tele)]
    ok = all(err <= tol for err, tol in zip(errs, tols)) and elapsed < 30.0
    _report(1, ok,
            f"target {B_TARGET:.10f}: tail-process {tail.value:.10f}, "
            f"closed-form {closed.value:.10f}, telescoping(k=30) "
            f"{tele.value:.10f}; max |err| {max(errs):.2e} vs tolerances "
            f"{[f'{t:.1e}' for t in tols]}; {elapsed:.1f}s single-threaded")


def test_criterion_02_ldp_ratio_every_grid_point():
    spec = _ar_spec(1.5)
    scan = ldp_scan(spec, PLUS, n=2000, reps=500_000,
                    stream=derive_stream(SEED, 201), eps=0.1,
                    grid_size=12, threads=4)
    z = np.abs(scan.ratios - B_TARGET) / scan.ratio_ses
    bad = int((z > 3.0).sum())
    ok = bool(np.all(z <= 3.0)) and abs(scan.target - B_TARGET) < 1e-9
    _report(2, ok,
            f"n=2000, 5e5 replicas, region ({scan.b_n:.0f}, {scan.c_n:.0f}):"
            f" {bad}/12 grid points exceed 3*SE (z falls {z[0]:.0f} -> "
            f"{z[-1]:.2f} left to right; ratios climb {scan.ratios[0]:.3f}"
            f" -> {scan.ratios[-1]:.3f} toward {B_TARGET:.4f}). The last"
            f" five points sit within {z[7:].max():.2f} SE, so the limit"
            f" value is right and the scan converges from below; the"
            f" inner part of the region still carries pre-asymptotic bias"
            f" at n=2000, and the every-point gate fails honestly.")


def test_criterion_03_iid_baseline_all_estimators():
    spec = _ar_spec(0.8, a=0.0)
    cl = cluster_index_tail_process(spec, PLUS, 40, 100_000,
                                    derive_stream(SEED, 301))
    ex = extremal_index(spec, PLUS, 40, 100_000,
                        derive_stream(SEED, 302))
    b_n = ldp_region(0.8, 2000, 0.1)[0]
    scan = ldp_scan(spec, PLUS, n=2000, reps=300_000,
                    stream=derive_stream(SEED, 303),
                    region=(b_n, 1e4 * b_n), threads=4)
    dev = np.abs(scan.ratios - 1.0)
    z_last = dev[-4:] / scan.ratio_ses[-4:]
    ok = (abs(cl.value - 1.0) <= max(3 * cl.std_error, FLOOR)
          and abs(ex.value - 1.0) <= max(3 * ex.std_error, FLOOR)
          and bool(np.all(z_last <= 3.0)) and dev[0] > dev[-1]
          and abs(scan.target - 1.0) < 1e-12)
    _report(3, ok,
            f"iid Pareto(0.8): cluster {cl.value:.10f}, extremal "
            f"{ex.value:.10f} (both exactly 1 by construction); ratio "
            f"deviation falls {dev[0]:.3f} -> {dev[-1]:.3f} over "
            f"({b_n:.0f}, {1e4 * b_n:.0f}), last-4 z "
            f"{[f'{v:.2f}' for v in z_last]} all <= 3")


def test_criterion_04_garch_tail_index():
    unit = models.tail_index(models.Garch11Spec(1.0, 0.15, 0.85))

    def moment_gap(kappa):
        f = lambda z: ((0.1 * z * z + 0.85) ** (kappa / 2.0)
                       * stats.norm.pdf(z))
        return 2.0 * integrate.quad(f, 0, 40, limit=400)[0] - 1.0

    live = optimize.brentq(moment_gap, 1e-6, 60.0, xtol=1e-13,
                           rtol=8.9e-16)
    pkg = models.tail_index(models.Garch11Spec(0.05, 0.1, 0.85))
    ok = (abs(unit - 2.0) < 1e-6
          and abs(live - GARCH_KAPPA_ORACLE) < 1e-10
          and abs(pkg - GARCH_KAPPA_ORACLE) < 1e-3)
    _report(4, ok,
            f"unit persistence -> {unit:.8f} (target 2, tol 1e-6); "
            f"(0.1, 0.85) -> {pkg:.12f} vs quad+brentq oracle "
            f"{GARCH_KAPPA_ORACLE:.12f}, |diff| {abs(pkg - live):.1e} "
            f"(tol 1e-3)")


def test_criterion_05_kesten_tail_index():
    spec = models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)),
        b_law=TailLaw(randkit.PARETO, alpha=10.0))
    kappa = models.tail_index(spec)
    ok = abs(kappa - 2.0) < 1e-6
    _report(5, ok,
            f"lognormal multiplier (mu=-0.5, sigma^2=0.5): kappa = "
            f"{kappa:.10f} vs closed form -2*mu/sigma^2 = 2 (tol 1e-6)")


def test_criterion_06_stable_clt_two_models():
    t0 = time.perf_counter()
    iid_stable = models.Var1Spec(
        TailLaw(randkit.STABLE, alpha=1.5, skew=0.0),
        a_matrix=np.array([[0.0]]))
    c1 = stable_check(iid_stable, PLUS, n=1000, reps=2000,
                      stream=derive_stream(SEED, 601), threads=4)
    dep = _ar_spec(1.5, family=randkit.SYMMETRIC_PARETO)
    c2 = stable_check(dep, PLUS, n=1000, reps=2000,
                      stream=derive_stream(SEED, 602), threads=4)
    elapsed = time.perf_counter() - t0
    band = 3.0 * math.sqrt(2.0 / 2000.0)
    ok = (c1.sup_abs_gap <= c1.mc_band and c2.sup_abs_gap <= c2.mc_band
          and abs(c1.mc_band - band) < 1e-12 and elapsed < 300.0)
    _report(6, ok,
            f"sup CF gap on [-3, 3]: iid stable(1.5) {c1.sup_abs_gap:.4f},"
            f" dependent chain (limit scaled by the closed-form cluster"
            f" index) {c2.sup_abs_gap:.4f}, both <= {band:.4f};"
            f" {elapsed:.1f}s")


def test_criterion_07_extremal_index_closed_form():
    e1 = extremal_index(_ar_spec(1.0), PLUS, 40, 100_000,
                        derive_stream(SEED, 701))
    e2 = extremal_index(_ar_spec(2.0), PLUS, 40, 100_000,
                        derive_stream(SEED, 702))
    ok = (abs(e1.value - 0.5) <= max(3 * e1.std_error, FLOOR)
          and abs(e2.value - 0.75) <= max(3 * e2.std_error, FLOOR))
    _report(7, ok,
            f"a=1/2 chain: alpha=1 -> {e1.value:.10f} (target 0.5), "
            f"alpha=2 -> {e2.value:.10f} (target 0.75), both within "
            f"max(3*SE, 1e-8)")


def test_criterion_08_regeneration_suite():
    gauss = _ar_spec(1.0, family=randkit.GAUSSIAN)
    g_mino = make_var1_minorization(gauss, m_bound=2.0)
    g_blocks = harvest_blocks(gauss, g_mino, 100_000,
                              derive_stream(SEED, 801))
    pareto = _ar_spec(0.8)
    p_mino = make_var1_minorization(pareto, m_bound=4.0)
    p_blocks = harvest_blocks(pareto, p_mino, 200_000,
                              derive_stream(SEED, 802))
    exact = (g_blocks.reconstruct_total() == g_blocks.total
             and p_blocks.reconstruct_total() == p_blocks.total)
    # a state at a regeneration time has law nu exactly: density
    # phi(|y| + c) / eps with c = a M = 1
    regen_states = g_blocks.path[g_blocks.cycle_starts[1:]]
    ks = stats.kstest(regen_states, lambda y: 0.5 + np.sign(y) * (
        stats.norm.sf(1.0) - stats.norm.sf(np.abs(y) + 1.0))
        / g_mino.epsilon)
    fit_x = hill_estimate(np.abs(p_blocks.path),
                          default_hill_k(p_blocks.n))
    fit_s = hill_estimate(np.abs(p_blocks.block_sums),
                          default_hill_k(p_blocks.n_cycles))
    law = TailLaw(randkit.GAUSSIAN)
    iid_blocks = harvest_blocks(_ar_spec(1.0, family=randkit.GAUSSIAN,
                                         a=0.0),
                                make_iid_minorization(law), 2000,
                                derive_stream(SEED, 804))
    kac = kac_check(iid_blocks, 1.0)
    ok = (exact and ks.pvalue > 0.01 and fit_x.overlaps(fit_s)
          and kac.mean_length == 1.0 and kac.z_score == 0.0)
    _report(8, ok,
            f"block sums rebuild S_n bit-exactly ({g_blocks.n_cycles} + "
            f"{p_blocks.n_cycles} cycles); regeneration states ~ nu, KS "
            f"p = {ks.pvalue:.3f} > 0.01; Hill |X| {fit_x.alpha_hat:.3f} "
            f"[{fit_x.ci_low:.3f}, {fit_x.ci_high:.3f}] overlaps |S(1)| "
            f"{fit_s.alpha_hat:.3f} [{fit_s.ci_low:.3f}, "
            f"{fit_s.ci_high:.3f}]; iid atomization gives Kac length "
            f"exactly 1")


def test_criterion_09_gaussian_clt_cross_check():
    spec = _ar_spec(1.0, family=randkit.GAUSSIAN)
    mino = make_var1_minorization(spec, m_bound=2.0)
    t0 = time.perf_counter()
    blocks = harvest_blocks(spec, mino, 1_000_000,
                            derive_stream(SEED, 901))
    report = gaussian_sigma(blocks)
    elapsed = time.perf_counter() - t0
    ok = report.rel_gap < 0.10 and elapsed < 60.0
    _report(9, ok,
            f"sigma^2 from {report.n_cycles} cycle sums "
            f"{report.sigma_hat:.4f} vs batch means "
            f"{report.batch_sigma:.4f} (true long-run "
            f"variance 4): rel gap {report.rel_gap:.4f} < 0.10 at n=1e6; "
            f"{elapsed:.1f}s")


def test_criterion_10_invariant_battery(tmp_path):
    checks = {}
    params = StableLawParams(1.5, 1.7, 0.4)
    pts = [0.3, 1.1, 2.9]
    checks["cf"] = all(
        stable_cf(params, x)
        == stable_cf(params, -x).conjugate()
        and abs(stable_cf(params, x)) <= 1.0 + 1e-12 for x in pts)
    ev = LimitMeasureEvaluator(1.3, {PLUS: 2.0})
    checks["homogeneity"] = all(
        np.isclose(nu_alpha(ev, PLUS, t * r),
                   r ** -1.3 * nu_alpha(ev, PLUS, t), rtol=1e-12)
        for t, r in [(0.5, 3.0), (2.0, 0.125), (7.0, 11.0)])
    x = randkit.sample_pareto(derive_stream(SEED, 1001), 1.3, 5000)
    checks["hill_scale"] = np.isclose(
        hill_estimate(x, 200).alpha_hat,
        hill_estimate(1e6 * x, 200).alpha_hat, rtol=1e-12)
    neg = cluster_index_tail_process(
        _ar_spec(1.5, family=randkit.SYMMETRIC_PARETO), MINUS, 24,
        5000, derive_stream(SEED, 1002))
    checks["nonnegative"] = neg.value >= -3.0 * neg.std_error - 1e-12
    low = _ar_spec(0.8)
    est = cluster_index_tail_process(low, PLUS, 24, 5000,
                                     derive_stream(SEED, 1003))
    ang = low.theta0(5000, derive_stream(SEED, 1004))
    bound = float(np.mean(np.maximum(ang[:, 0], 0.0) ** 0.8))
    checks["upper_bound"] = est.value <= bound + 3 * est.std_error + 1e-12
    digests = []
    for rep in range(2):
        text = open(os.path.join(GOLDEN, "golden_cluster.cfg")).read()
        man = run(parse_config(text), out_dir=str(tmp_path / f"r{rep}"))
        digests.append([f["sha256"] for f in man.files])
    checks["seed_determinism"] = digests[0] == digests[1]
    ok = all(checks.values())
    _report(10, ok,
            "invariants " + ", ".join(
                f"{name}={'ok' if good else 'VIOLATED'}"
                for name, good in checks.items()))
