"""Config parsing, experiment outputs, manifest integrity, exit codes."""
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from heavytail import cli, models
from heavytail.cli import build_spec, main, parse_config, run
from heavytail.errors import ConfigError
from heavytail.randkit import derive_stream

GOLDEN = os.path.join(os.path.dirname(__file__), "data")

BASE = """
command = cluster-index
model = var1
seed = 7
a = 0.5
innovation = pareto
alpha = 1.5
replicas = 1000
horizon = 10
"""


def problems_of(text, **kw):
    with pytest.raises(ConfigError) as err:
        parse_config(text, **kw)
    return err.value.problems


class TestParseConfig:
    def test_valid_config_round_trip(self):
        cfg = parse_config(BASE)
        assert cfg.command == "cluster-index"
        assert cfg.model == "var1"
        assert cfg.seed == 7
        assert cfg.get("replicas") == 1000
        assert cfg.get("horizon") == 10
        # defaulted key
        assert cfg.get("k_trunc") == 20

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# heading\n\n" + BASE + "\n# trailing\n")
        assert cfg.seed == 7

    def test_all_problems_collected(self):
        text = """
        command = simulate
        model = var1
        a = 1.5
        alpha1 = 0.1
        n = -3
        n = 200
        mystery = 1
        """
        problems = "\n".join(problems_of(text))
        assert "duplicate key 'n'" in problems
        assert "applies to model 'garch11'" in problems
        assert "must be a positive integer" in problems
        assert "unknown key 'mystery'" in problems
        assert "seed" in problems
        assert "|a| < 1" in problems

    @pytest.mark.parametrize("model, key", [("var1\na = 0.5", "burn_in"),
                                            ("kesten", "alpha_hint")],
                             ids=["burn_in", "alpha_hint"])
    def test_chain_derived_values_are_not_keys(self, model, key):
        # the warm-up is the spec's default burn-in, the Kesten index its
        # moment root
        problems = problems_of(f"command = simulate\nmodel = {model}\n"
                               f"seed = 1\nn = 10\n{key} = 2\n")
        assert len(problems) == 1
        assert problems[0].endswith(f"unknown key {key!r}")

    def test_stable_innovations_need_alpha_at_most_two(self):
        problems = problems_of("command = simulate\nmodel = var1\nseed = 1\n"
                               "a = 0.5\ninnovation = stable\nalpha = 2.5\n"
                               "n = 10\n")
        assert problems == ["stable innovations need alpha <= 2"]

    def test_duplicate_reports_both_lines(self):
        text = "command = simulate\nmodel = var1\nseed = 1\na = 0.5\n" \
               "n = 10\nn = 20\n"
        problems = problems_of(text)
        assert any("lines 5 and 6" in p for p in problems)

    def test_missing_required_model_keys(self):
        text = "command = simulate\nmodel = garch11\nseed = 1\nn = 10\n"
        problems = "\n".join(problems_of(text))
        for key in ("alpha0", "alpha1", "beta1"):
            assert key in problems

    def test_command_conflict_detected(self):
        problems = problems_of(BASE, command_override="simulate")
        assert any("conflicts" in p for p in problems)

    def test_seed_override_wins(self):
        cfg = parse_config(BASE, seed_override=99)
        assert cfg.seed == 99

    def test_seed_required_without_override(self):
        text = BASE.replace("seed = 7\n", "")
        problems = "\n".join(problems_of(text))
        assert "seed" in problems
        assert parse_config(text, seed_override=3).seed == 3

    def test_malformed_line_reported_with_number(self):
        problems = problems_of(BASE + "just words\n")
        assert any("expected key = value" in p for p in problems)

    def test_non_numeric_value(self):
        problems = problems_of(BASE.replace("alpha = 1.5", "alpha = abc"))
        assert any("not a number" in p for p in problems)

    def test_build_spec_families(self):
        var1 = build_spec(parse_config(BASE))
        assert var1.dim == 1
        kesten = build_spec(parse_config(
            "command = simulate\nmodel = kesten\nseed = 1\nn = 10\n"))
        assert kesten.a_law.family == "lognormal"
        garch = build_spec(parse_config(
            "command = simulate\nmodel = garch11\nseed = 1\nn = 10\n"
            "alpha0 = 0.05\nalpha1 = 0.1\nbeta1 = 0.85\n"))
        assert garch.alpha1 == 0.1


class TestRun:
    def test_simulate_outputs_and_manifest(self, tmp_path):
        cfg = parse_config(
            "command = simulate\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = pareto\nalpha = 1.5\nn = 50\n")
        manifest = run(cfg, out_dir=str(tmp_path / "out"))
        names = {f["name"] for f in manifest.files}
        assert names == {"path.csv", "summary.json"}
        # digests in the manifest match the files on disk
        for entry in manifest.files:
            with open(tmp_path / "out" / entry["name"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == entry["sha256"]
        with open(tmp_path / "out" / "manifest.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["streams"] == {"simulate": 1}
        assert on_disk["versions"]["heavytail"]

    def test_regen_check_peak_memory(self, tmp_path):
        # the harvest's path and its cycle starts and sums (0.29 of the
        # path each), then one formatted 4,096-row block of cycles.csv,
        # its lengths cut from the block's starts: 2.31 path-sized arrays,
        # where a whole length column took 2.6 and the harvest once 3.9
        n = 200_000
        cfg = parse_config(
            "command = regen-check\nmodel = var1\nseed = 31\na = 0.5\n"
            f"innovation = gaussian\nn = {n}\nm_bound = 2.0\n")
        derive_stream(31, 0)  # numpy.random is imported on first use
        tracemalloc.start()
        try:
            run(cfg, out_dir=str(tmp_path / "out"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.45 * 8 * n

    def test_runs_are_deterministic(self, tmp_path):
        cfg_text = ("command = simulate\nmodel = var1\nseed = 5\n"
                    "a = 0.5\ninnovation = pareto\nalpha = 1.5\nn = 80\n")
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(parse_config(cfg_text), out_dir=d1)
        run(parse_config(cfg_text), out_dir=d2)
        with open(os.path.join(d1, "path.csv"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, "path.csv"), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = parse_config(
            "command = simulate\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = pareto\nalpha = 1.5\nn = 20\n")
        run(cfg, out_dir=str(tmp_path / "out"))
        rows = (tmp_path / "out" / "path.csv").read_text().splitlines()[1:]
        from heavytail import models, randkit
        from heavytail.randkit import derive_stream
        spec = build_spec(cfg)
        path = models.simulate_path(spec, 20, spec.default_burn,
                                    derive_stream(5, 1))
        for row, want in zip(rows, path[:, 0]):
            assert float(row.split(",")[1]) == want

    def test_failure_removes_partial_outputs(self, tmp_path):
        # Gaussian innovations have no power tail: the stable check is
        # out of regime, and nothing may be left behind
        cfg = parse_config(
            "command = stable-check\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = gaussian\nn = 50\nreps = 200\n")
        target = tmp_path / "out"
        with pytest.raises(Exception):
            run(cfg, out_dir=str(target))
        assert not target.exists() or list(target.iterdir()) == []

    def test_runtime_survives_a_wall_clock_step_back(self, tmp_path,
                                                     monkeypatch):
        # the wall clock steps back an hour at every read; the manifest's
        # runtime is timed on a monotonic clock and stays nonnegative
        import itertools
        import time
        ticks = itertools.count(2e9, -3600.0)
        monkeypatch.setattr(time, "time", lambda: next(ticks))
        cfg = parse_config(
            "command = simulate\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = pareto\nalpha = 1.5\nn = 20\n")
        manifest = run(cfg, out_dir=str(tmp_path / "out"))
        assert manifest.runtime_s >= 0
        with open(tmp_path / "out" / "manifest.json") as fh:
            assert json.load(fh)["runtime_s"] >= 0

    @pytest.mark.parametrize("name, extra, seed, pilot", [
        ("golden_regen.cfg", "", None, True),
        ("golden_regen.cfg", "m_bound = 2.0\n", None, False),
        ("golden_stable_garch.cfg", "", -20260823, True),
        ("golden_ldp_var1.cfg", "", None, False),
    ])
    def test_manifest_names_the_pilot(self, tmp_path, name, extra, seed,
                                      pilot):
        with open(os.path.join(GOLDEN, name)) as fh:
            cfg = parse_config(fh.read() + extra, seed_override=seed)
        manifest = run(cfg, out_dir=str(tmp_path))
        assert ("pilot" in manifest.streams) == pilot
        if pilot:
            assert manifest.streams["pilot"] == models._PILOT_STREAM_ID
        with open(tmp_path / "manifest.json") as fh:
            assert json.load(fh)["streams"] == manifest.streams
        assert "manifest.json" not in {f["name"] for f in manifest.files}

    @pytest.mark.parametrize("name", ["golden_cluster.cfg",
                                      "golden_cluster_kesten.cfg"])
    def test_manifest_lists_no_closed_form_stream(self, tmp_path, name):
        # every closed form is exact and draws nothing; its retired stream
        # id 3 is not reused
        with open(os.path.join(GOLDEN, name)) as fh:
            manifest = run(parse_config(fh.read()), out_dir=str(tmp_path))
        assert 3 not in manifest.streams.values()
        assert 3 not in cli.STREAMS.values()
        with open(tmp_path / "summary.json") as fh:
            closed = json.load(fh)["cluster_closed_form"]
        assert set(closed) == {"value", "std_error"}

    @pytest.mark.parametrize("name, sup_route", [
        ("golden_cluster.cfg", "tail_process"),
        ("golden_cluster_kesten.cfg", "closed_form"),
        ("golden_cluster_garch.cfg", "tail_process")])
    def test_cluster_index_lists_only_the_tail_stream(self, tmp_path, name,
                                                      sup_route):
        # every Monte Carlo route reads the one batch on stream 2; the
        # telescoping (4) and Monte Carlo sup (5) streams are retired
        with open(os.path.join(GOLDEN, name)) as fh:
            manifest = run(parse_config(fh.read()), out_dir=str(tmp_path))
        assert manifest.streams == {"cluster_tail": 2}
        with open(tmp_path / "cluster.csv") as fh:
            row = [r for r in fh if r.startswith("extremal_index,")]
        assert row[0].split(",")[1] == sup_route

    def test_threads_do_not_change_outputs(self, tmp_path):
        cfg_text = ("command = ldp-scan\nmodel = var1\nseed = 5\n"
                    "a = 0\ninnovation = pareto\nalpha = 0.8\nn = 50\n"
                    "reps = 30000\ngrid_size = 5\n")
        d1, d2 = str(tmp_path / "t1"), str(tmp_path / "t4")
        run(parse_config(cfg_text), out_dir=d1, threads=1)
        run(parse_config(cfg_text), out_dir=d2, threads=4)
        with open(os.path.join(d1, "ldp.csv")) as fh:
            c1 = fh.read()
        with open(os.path.join(d2, "ldp.csv")) as fh:
            c2 = fh.read()
        assert c1 == c2


def per_cell_csv(header, columns):
    """CSV text formatted one cell at a time: 17 significant digits for
    floats, true/false for booleans, str otherwise."""
    def cell(kind, v):
        if kind == "f":
            return "%.17g" % v
        if kind == "b":
            return "true" if v else "false"
        return str(v)

    columns = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(cell(c.dtype.kind, c[i].item())
                              for c in columns))
    return "\n".join(lines) + "\n"


class TestCsv:
    # 4,096 rows a block: one row, one short block, one full block and
    # one row over
    @pytest.mark.parametrize("rows", [0, 1, 4095, 4097])
    def test_blocks_match_per_cell_text(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(
            -300, 300, rows)
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0]
        floats[:len(specials)] = specials[:rows]
        columns = [floats, rng.integers(-10 ** 12, 10 ** 12, rows),
                   rng.random(rows) < 0.5,
                   np.array([f"q{i}" for i in range(rows)], dtype=str)]
        header = ["x", "n", "flag", "name"]
        path = cli._Writer(str(tmp_path)).csv("t.csv", header, columns)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == per_cell_csv(header, columns)


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "command = simulate\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = pareto\nalpha = 1.5\nn = 30\n"
            f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "command = simulate\nmodel = var1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_regime_error_exit_three(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "command = stable-check\nmodel = var1\nseed = 5\na = 0.5\n"
            "innovation = gaussian\nn = 40\nreps = 200\n"
            f"out_dir = {tmp_path / 'out'}\n")
        assert main(["stable-check", "--config", cfg]) == 3
        assert "numeric-regime error" in capsys.readouterr().err

    def test_alpha_one_asymmetric_pair_exit_three(self, tmp_path, capsys):
        # a = 1/2 with Pareto(1) innovations: b(+1) = 1, b(-1) = 0
        cfg = self._write(
            tmp_path,
            "command = stable-check\nmodel = var1\nseed = 5\na = 0.5\n"
            "alpha = 1.0\nn = 40\nreps = 200\n"
            f"out_dir = {tmp_path / 'out'}\n")
        assert main(["stable-check", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "UnsupportedCaseError" in err and "symmetric pair" in err
        assert not (tmp_path / "out").exists()

    def test_huge_tail_index_exit_three_names_route(self, tmp_path,
                                                    capsys):
        # log-variance 0.0009 puts the tail index at 1111 (Gaussian
        # additive terms: a power tail would cap it): the functional
        # overflows a double and the first route reports it
        cfg = self._write(
            tmp_path,
            "command = cluster-index\nmodel = kesten\nseed = 5\n"
            "a_mu = -0.5\na_sigma2 = 0.0009\nb_family = gaussian\n"
            "replicas = 1000\n"
            f"horizon = 10\nout_dir = {tmp_path / 'out'}\n")
        with np.errstate(all="ignore"):
            assert main(["cluster-index", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "OutOfRegimeError" in err and "tail_process" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, body, key", [
        ("ldp-scan", "model = var1\na = nan\nn = 100\n", "a"),
        ("cluster-index", "model = kesten\na_mu = nan\n", "a_mu"),
        ("simulate", "model = var1\na = 0.5\nscale = inf\nn = 30\n",
         "scale"),
    ])
    def test_non_finite_value_exit_two_names_key(self, tmp_path, capsys,
                                                 command, body, key):
        cfg = self._write(tmp_path, f"seed = 5\n{body}"
                          f"out_dir = {tmp_path / 'out'}\n")
        assert main([command, "--config", cfg]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejected_required_key_reported_once(self, tmp_path, capsys):
        # a required key with a rejected value is not also missing
        with open(os.path.join(GOLDEN, "golden_ldp_var1.cfg")) as fh:
            text = fh.read().replace("a = 0.5", "a = nan")
        cfg = self._write(tmp_path, text + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["ldp-scan", "--config", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: line 5: a must be finite "
                         "(got 'nan')"]
        assert not (tmp_path / "out").exists()

    def test_regen_check_on_recurrence_exit_two(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "command = regen-check\nmodel = kesten\nseed = 5\nn = 1000\n"
            f"out_dir = {tmp_path / 'out'}\n")
        assert main(["regen-check", "--config", cfg]) == 2
        assert "scalar linear chain" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_drift_check_on_iid_chain_exit_zero(self, tmp_path):
        # a = 0 has no drift to fit: on this seed beta_hat is below 0,
        # and the passing check still writes its summary
        out = tmp_path / "out"
        cfg = self._write(
            tmp_path,
            "command = drift-check\nmodel = var1\nseed = 4\na = 0.0\n"
            f"innovation = pareto\nalpha = 1.5\nout_dir = {out}\n")
        assert main(["drift-check", "--config", cfg]) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["beta_hat"] < 0 and summary["passed"]
        assert summary["suggested_burn_in"] == 1

    def test_drift_check_on_heavier_additive_law_exit_two(self, tmp_path,
                                                           capsys):
        # the bench multiplier (root 1.5) with Pareto(0.8) additive terms:
        # X's index is 0.8, so no drift power below 1 is known to work
        cfg = self._write(
            tmp_path,
            "command = drift-check\nmodel = kesten\nseed = 7\n"
            "a_mu = -0.75\na_sigma2 = 1\nb_alpha = 0.8\n"
            f"out_dir = {tmp_path / 'out'}\n")
        assert main(["drift-check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "additive tail index 0.8" in err and "index 1.5" in err
        assert not (tmp_path / "out").exists()

    def test_drift_check_with_no_power_tail_fits_p_one(self, tmp_path):
        # Gaussian innovations have no tail index: p falls back to 1
        out = tmp_path / "out"
        cfg = self._write(
            tmp_path,
            "command = drift-check\nmodel = var1\nseed = 4\na = 0.5\n"
            f"innovation = gaussian\nout_dir = {out}\n")
        assert main(["drift-check", "--config", cfg]) == 0
        with open(out / "summary.json") as fh:
            assert json.load(fh)["p"] == 1.0

    @pytest.mark.parametrize("body, message", [
        ("a = 0.5\ninnovation = stable\n", "no split construction for "
         "stable"),
        ("a = -0.5\ninnovation = pareto\n", "nonnegative coefficient")])
    def test_regen_check_without_a_split_exit_three(self, tmp_path, capsys,
                                                    body, message):
        cfg = self._write(
            tmp_path,
            f"command = regen-check\nmodel = var1\nseed = 5\n{body}"
            f"n = 1000\nm_bound = 2.0\nout_dir = {tmp_path / 'out'}\n")
        assert main(["regen-check", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "UnsupportedCaseError" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-file.cfg")
        assert main(["simulate", "--config", missing]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_command_exit_two(self, tmp_path):
        cfg = self._write(tmp_path, "model = var1\nseed = 1\na = 0.5\n")
        assert main(["frobnicate", "--config", cfg]) == 2

    _SIMULATE = ("command = simulate\nmodel = var1\nseed = 5\na = 0.5\n"
                 "innovation = pareto\nalpha = 1.5\nn = 30\n")

    @pytest.mark.parametrize("value", ["many", "0", "-7"])
    def test_env_threads_must_be_integer(self, tmp_path, capsys,
                                         monkeypatch, value):
        cfg = self._write(tmp_path, self._SIMULATE
                          + f"out_dir = {tmp_path / 'out'}\n")
        monkeypatch.setenv("HEAVYTAIL_THREADS", value)
        assert main(["simulate", "--config", cfg]) == 2
        assert value in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_flag_must_be_positive(self, tmp_path, capsys):
        cfg = self._write(tmp_path, self._SIMULATE
                          + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg, "--threads", "0"]) == 2
        assert "got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_echoes_threads_used(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write(tmp_path, self._SIMULATE + f"out_dir = {out}\n")
        assert main(["simulate", "--config", cfg, "--threads", "2"]) == 0
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["config"]["threads"] == 2


class TestClusterIndexClosedForm:
    def test_linear_chain_closed_form_row(self, tmp_path):
        # a = 1/2, Pareto(1.5): b(+1) = 2^1.5 - 1, and the closed form
        # is exact (one Theta_0 atom, no auxiliary chain)
        run(parse_config(BASE), out_dir=str(tmp_path))
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["alpha"] == 1.5
        assert abs(summary["cluster_closed_form"]["value"]
                   - (2.0 ** 1.5 - 1.0)) < 1e-9


class TestGoldenConfigs:
    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(GOLDEN)
        if f.startswith("golden_") and f.endswith(".cfg")))
    def test_golden_runs_are_reproducible(self, tmp_path, name):
        # outputs are independent of the thread count: a run on one
        # thread and a run on two write the same bytes
        text = open(os.path.join(GOLDEN, name)).read()
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        m1 = run(parse_config(text), out_dir=d1, threads=1)
        m2 = run(parse_config(text), out_dir=d2, threads=2)
        assert [f["sha256"] for f in m1.files] \
            == [f["sha256"] for f in m2.files]


# one small config per command; the runtime must get through every one
# of them without importing scipy (a test-only dependency)
_NO_SCIPY_RUNS = """
import os, sys
from heavytail import cli
configs = [
    "command = ldp-scan\\nmodel = var1\\na = 0.5\\nn = 20\\nreps = 60000\\n"
    "grid_size = 2\\nregion_eps = 0.01",
    "command = stable-check\\nmodel = var1\\na = 0.5\\nn = 50\\nreps = 200",
    "command = stable-check\\nmodel = garch11\\nalpha0 = 0.05\\n"
    "alpha1 = 0.5\\nbeta1 = 0.55\\nn = 50\\nreps = 200",
    "command = cluster-index\\nmodel = kesten\\nreplicas = 500\\n"
    "horizon = 5\\nk_trunc = 5",
    "command = regen-check\\nmodel = var1\\na = 0.5\\n"
    "innovation = gaussian\\nn = 5000",
    "command = drift-check\\nmodel = garch11\\nalpha0 = 0.05\\n"
    "alpha1 = 0.1\\nbeta1 = 0.85",
    "command = simulate\\nmodel = var1\\na = 0.5\\nn = 100",
]
print(sorted({cli.parse_config(t + "\\nseed = 3\\n").command
              for t in configs}))
print(len(configs))
for i, text in enumerate(configs):
    cli.run(cli.parse_config(text + "\\nseed = 3\\n"),
            out_dir=os.path.join(sys.argv[1], str(i)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy(tmp_path):
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUNS,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    commands, runs, modules = done.stdout.strip().splitlines()
    # every command the CLI offers is run, each config into its own
    # directory
    assert commands == str(sorted(cli.COMMANDS))
    assert modules == "[]"
    assert sorted(os.listdir(tmp_path)) == sorted(
        str(i) for i in range(int(runs)))
