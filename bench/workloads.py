"""The four benchmark workloads: configs, correctness gates and the
standard error behind ``time_to_se_s``.

Every workload is a ``heavytail`` config run through ``cli.parse_config``
-> ``cli.build_spec`` -> ``cli.run``. A gate reads only what the run
wrote (``summary.json`` and the CSV tables), so it checks the program the
way a user of the CLI sees it.

Statistical gates fail only beyond 4 standard errors, which a correct
program reaches with probability 6e-5 per gate; exact properties are
gated exactly.
"""
from __future__ import annotations

import csv
import json
import math
import os

TARGET_B = 2.0 ** 1.5 - 1.0   # b(+1) of the a = 1/2, alpha = 3/2 chain
Z_GATE = 4.0

# key = value lines without the seed, which each run gets on its own
CONFIGS = {
    "ldp_var1": {
        "command": "ldp-scan", "model": "var1", "a": 0.5,
        "innovation": "pareto", "alpha": 1.5, "n": 1000,
        "reps": 100_000, "grid_size": 12,
    },
    "cluster_kesten": {
        "command": "cluster-index", "model": "kesten", "a_mu": -0.75,
        "a_sigma2": 1.0, "b_family": "pareto", "b_alpha": 10.0,
        "horizon": 40, "replicas": 100_000, "k_trunc": 30,
    },
    "regen_gauss": {
        "command": "regen-check", "model": "var1", "a": 0.5,
        "innovation": "gaussian", "n": 500_000, "m_bound": 2.0,
    },
    "stable_garch": {
        "command": "stable-check", "model": "garch11", "alpha0": 0.05,
        "alpha1": 0.5, "beta1": 0.55, "n": 2000, "reps": 4000,
    },
}

# sizes for the smoke tests: same commands and gates, seconds not minutes
TINY = {
    "ldp_var1": {"n": 500, "reps": 60_000},
    "cluster_kesten": {"replicas": 5_000},
    "regen_gauss": {"n": 100_000},
    "stable_garch": {"n": 500, "reps": 1000},
}

# the standard error that time_to_se_s projects to
SE_REFERENCE = {
    "ldp_var1": 0.05,         # relative SE of the outermost grid ratio
    "cluster_kesten": 1e-3,   # SE of the tail-process route
    "regen_gauss": 1e-3,      # SE of the regenerative stationary mean
    "stable_garch": 0.01,     # largest SE of the empirical CF on the grid
}

THREADS = 2


def sizes(workload: str, tiny: bool = False) -> dict:
    values = dict(CONFIGS[workload])
    if tiny:
        values.update(TINY[workload])
    return values


def config_text(values: dict, seed: int, threads: int = THREADS) -> str:
    lines = dict(values, seed=seed, threads=threads)
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check(workload: str, values: dict, out_dir: str):
    """(problems, notes, se) for a run of ``values`` that wrote
    ``out_dir``: gate failures, recorded-but-ungated verdicts, and the
    standard error that time_to_se_s uses."""
    return _CHECKS[workload](values, out_dir)


def _check_ldp(values, out_dir):
    summ = _summary(out_dir)
    rows = _rows(out_dir, "ldp.csv")
    problems, notes = [], {}
    target = summ["target"]
    if abs(target - TARGET_B) > 1e-9:
        problems.append(f"target {target!r} is not 2^1.5 - 1")
    z = [(float(r["ratio"]) - target) / float(r["ratio_se"]) for r in rows]
    for r, zi in zip(rows[-5:], z[-5:]):
        if not abs(zi) <= Z_GATE:
            problems.append(f"ratio at x={r['x']} is {zi:.2f} SE from "
                            "the target")
    notes["inner_beyond_3se"] = sum(abs(zi) > 3.0 for zi in z[:-5])
    outer = rows[-1]
    se = float(outer["ratio_se"]) / float(outer["ratio"])
    return problems, notes, se


def _check_cluster(values, out_dir):
    summ = _summary(out_dir)
    problems, notes = [], {}
    closed = summ["cluster_closed_form"]
    for route in ("cluster_tail_process", "telescoping"):
        if route not in summ:
            # a later refactor may fold this route away; say so, go on
            notes[f"{route}_absent"] = True
            continue
        est = summ[route]
        z = (est["value"] - closed["value"]) / math.hypot(
            est["std_error"], closed["std_error"])
        notes[f"{route}_z"] = round(z, 3)
        if not abs(z) <= Z_GATE:
            problems.append(f"{route} is {z:.2f} combined SE from the "
                            "closed form")
    se = summ["cluster_tail_process"]["std_error"]
    return problems, notes, se


def _check_regen(values, out_dir):
    summ = _summary(out_dir)
    problems, notes = [], {}
    if summ["decomposition_exact"] is not True:
        problems.append("block decomposition does not reproduce S_n")
    kac = summ["kac"]
    notes["kac_passed"] = kac["passed"]
    if not abs(kac["z_score"]) <= Z_GATE:
        problems.append(f"Kac mean cycle length is {kac['z_score']:.2f} "
                        "SE from 1/pi(C)")
    # batch means over nb = n / isqrt(n) batches estimate sigma^2 with
    # relative SE sqrt(2 / (nb - 1)); the regenerative estimate is tighter
    n = summ["n"]
    nb = n // max(2, math.isqrt(n))
    band = Z_GATE * math.sqrt(2.0 / (nb - 1))
    gap = summ["gaussian_clt"]["rel_gap"]
    notes["rel_gap"] = round(gap, 4)
    notes["rel_gap_below_0.10"] = gap < 0.10
    if not gap < band:
        problems.append(f"rel_gap {gap:.3f} exceeds the 4-SE band "
                        f"{band:.3f}")
    # regenerative ratio estimator of the stationary mean and its SE
    sums, lengths = [], []
    with open(os.path.join(out_dir, "cycles.csv")) as fh:
        header = next(fh).strip().split(",")
        i_len, i_sum = header.index("length"), header.index("block_sum")
        for line in fh:
            cells = line.split(",")
            lengths.append(int(cells[i_len]))
            sums.append(float(cells[i_sum]))
    k = len(sums)
    mu = sum(sums) / sum(lengths)
    mean_len = sum(lengths) / k
    resid = sum((y - mu * t) ** 2 for y, t in zip(sums, lengths)) / (k - 1)
    se = math.sqrt(resid / k) / mean_len
    return problems, notes, se


def _check_stable(values, out_dir):
    summ = _summary(out_dir)
    rows = _rows(out_dir, "stable_cf.csv")
    problems, notes = [], {}
    cells = [float(v) for r in rows for v in r.values()]
    if not (_finite(summ) and all(math.isfinite(v) for v in cells)):
        problems.append("non-finite value in the stable-check outputs")
    notes["passed"] = summ["passed"]
    notes["sup_abs_gap"] = round(summ["sup_abs_gap"], 4)
    # E|exp(ixY) - phi(x)|^2 = 1 - |phi(x)|^2 per path
    reps = values["reps"]
    mod2 = [float(r["empirical_re"]) ** 2 + float(r["empirical_im"]) ** 2
            for r in rows]
    se = math.sqrt(max(1.0 - min(mod2), 0.0) / reps)
    return problems, notes, se


_CHECKS = {
    "ldp_var1": _check_ldp,
    "cluster_kesten": _check_cluster,
    "regen_gauss": _check_regen,
    "stable_garch": _check_stable,
}
