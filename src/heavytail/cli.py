"""Configuration-driven experiment runner.

Config files are flat ``key = value`` lines (``#`` comments). Every run
emits CSV tables (17 significant digits), a ``summary.json``, and a
``manifest.json`` listing each output file with its SHA-256 digest.
Exit codes: 0 success, 2 usage/config error, 3 numeric-regime error.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cluster, limits, models, randkit, regen
from .errors import (ConfigError, HeavytailError, NoRootError,
                     ParameterError, UnsupportedLawError)
from .randkit import TailLaw, derive_stream
from .tailstats import Direction

__version__ = "0.1.0"  # the package version, echoed in every manifest

COMMANDS = ("simulate", "cluster-index", "ldp-scan", "stable-check",
            "drift-check", "regen-check")
MODELS = ("var1", "kesten", "garch11")
_INNOVATIONS = (randkit.PARETO, randkit.SYMMETRIC_PARETO, randkit.STABLE,
                randkit.GAUSSIAN)

# fixed per-stage stream ids so the manifest can name them; ids 3 (the
# Monte Carlo closed form), 4 (telescoping) and 5 (the Monte Carlo sup)
# are retired, not reused
STREAMS = {
    "simulate": 1,
    "cluster_tail": 2,
    "ldp": 6,
    "stable": 7,
    "drift": 8,
    "regen": 9,
}

# key tables: name -> (kind, description). Kind controls parsing.
_GLOBAL_KEYS = {
    "command": ("choice:" + ",".join(COMMANDS), "experiment command"),
    "model": ("choice:" + ",".join(MODELS), "model family"),
    "seed": ("int", "master seed (required; no wall-clock seeding)"),
    "out_dir": ("str", "output directory"),
    "threads": ("posint", "worker threads"),
    "n": ("posint", "path length"),
    "horizon": ("posint", "tail-process horizon T"),
    "replicas": ("posint", "Monte Carlo replicas N"),
    "reps": ("posint", "simulated paths R"),
    "grid_size": ("posint", "scan grid size"),
    "region_eps": ("posfloat", "epsilon in the scan region exponent"),
    "k_trunc": ("posint", "truncation lag for the telescoping route"),
    "theta": ("pm1", "scalar direction (+1 or -1)"),
    "m_bound": ("posfloat", "small-set half-width M"),
}
_MODEL_KEYS = {
    "var1": {
        "a": ("float", "fixed autoregressive coefficient"),
        "innovation": ("choice:" + ",".join(_INNOVATIONS),
                       "innovation family"),
        "alpha": ("posfloat", "innovation tail index"),
        "scale": ("posfloat", "innovation scale"),
        "skew": ("skew", "stable skew in [-1, 1]"),
    },
    "kesten": {
        "a_mu": ("float", "log-mean of the lognormal multiplier"),
        "a_sigma2": ("posfloat", "log-variance of the multiplier"),
        "b_family": ("choice:pareto,gaussian", "additive-term family"),
        "b_alpha": ("posfloat", "additive Pareto tail index"),
        "b_scale": ("posfloat", "additive scale"),
    },
    "garch11": {
        "alpha0": ("posfloat", "volatility constant"),
        "alpha1": ("posfloat", "squared-innovation coefficient"),
        "beta1": ("posfloat", "volatility persistence"),
    },
}
_REQUIRED_MODEL_KEYS = {
    "var1": ("a",),
    "kesten": (),
    "garch11": ("alpha0", "alpha1", "beta1"),
}
_DEFAULTS = {
    "out_dir": "heavytail-out",
    "horizon": 40,
    "replicas": 100_000,
    "grid_size": 12,
    "region_eps": 0.1,
    "k_trunc": 20,
    "theta": 1.0,
    "innovation": randkit.PARETO,
    "alpha": 1.5,
    "scale": 1.0,
    "skew": 0.0,
    "a_mu": -0.5,
    "a_sigma2": 0.5,
    "b_family": randkit.PARETO,
    "b_alpha": 10.0,
    "b_scale": 1.0,
}
_REQUIRED_N = ("simulate", "ldp-scan", "stable-check", "regen-check")


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    command: str
    model: str
    seed: int
    out_dir: str
    threads: int
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, _DEFAULTS.get(key, default))

    def echo(self, threads: int) -> dict:
        """The config as run, with the thread count the run used."""
        out = {"command": self.command, "model": self.model,
               "seed": self.seed, "out_dir": self.out_dir,
               "threads": threads}
        out.update({k: v for k, v in sorted(self.values.items())})
        return out


@dataclass
class RunManifest:
    """Record of one run: config echo, files with digests, versions,
    runtime, and the per-stage stream ids."""

    command: str
    config: dict
    files: list
    versions: dict
    runtime_s: float
    streams: dict
    out_dir: str


def _parse_value(kind, key, raw, line, problems):
    if kind == "str":
        return raw
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split(",")
        if raw not in options:
            problems.append(
                f"line {line}: {key} must be one of {', '.join(options)} "
                f"(got {raw!r})")
            return None
        return raw
    try:
        if kind in ("int", "posint"):
            value = int(raw)
        else:
            value = float(raw)
    except ValueError:
        problems.append(f"line {line}: {key} is not a number (got {raw!r})")
        return None
    if not math.isfinite(value):
        problems.append(f"line {line}: {key} must be finite (got {raw!r})")
        return None
    if kind == "posint" and value < 1:
        problems.append(f"line {line}: {key} must be a positive integer")
        return None
    if kind == "posfloat" and not value > 0:
        problems.append(f"line {line}: {key} must be positive")
        return None
    if kind == "pm1" and value not in (1.0, -1.0):
        problems.append(f"line {line}: {key} must be +1 or -1")
        return None
    if kind == "skew" and not -1.0 <= value <= 1.0:
        problems.append(f"line {line}: {key} must lie in [-1, 1]")
        return None
    return value


def parse_config(text: str, command_override: str = None,
                 seed_override: int = None) -> ExperimentConfig:
    """Parse and fully validate a config, collecting every problem (not
    just the first) into a ConfigError."""
    problems = []
    entries = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(
                f"line {ln}: expected key = value (got {line!r})")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in entries:
            problems.append(
                f"duplicate key {key!r} at lines {entries[key][1]} "
                f"and {ln}")
            continue
        entries[key] = (val, ln)

    model_raw = entries.get("model", (None, 0))[0]
    model_keys = _MODEL_KEYS.get(model_raw, {})
    known = dict(_GLOBAL_KEYS)
    known.update(model_keys)
    values = {}
    for key, (raw, ln) in entries.items():
        if key not in known:
            owner = next((m for m, keys in _MODEL_KEYS.items()
                          if key in keys), None)
            if owner is not None:
                problems.append(
                    f"line {ln}: key {key!r} applies to model "
                    f"{owner!r}, not {model_raw!r}")
            else:
                problems.append(f"line {ln}: unknown key {key!r}")
            continue
        parsed = _parse_value(known[key][0], key, raw, ln, problems)
        if parsed is not None:
            values[key] = parsed

    command = command_override or values.get("command")
    if values.get("command") and command_override \
            and values["command"] != command_override:
        problems.append(
            f"config command {values['command']!r} conflicts with the "
            f"command-line command {command_override!r}")
    if command is None:
        problems.append("missing required key: command")
    elif command not in COMMANDS:
        problems.append(f"unknown command {command!r}")
    if model_raw is None:
        problems.append("missing required key: model")
    seed = seed_override if seed_override is not None \
        else values.get("seed")
    if seed is None:
        problems.append(
            "missing required key: seed (wall-clock seeding is not "
            "supported)")
    # a key that is present but rejected has been reported already
    if model_raw in _REQUIRED_MODEL_KEYS:
        for key in _REQUIRED_MODEL_KEYS[model_raw]:
            if key not in entries:
                problems.append(
                    f"missing required key for model {model_raw!r}: {key}")
    if command in _REQUIRED_N and "n" not in entries:
        problems.append(f"missing required key for {command}: n")
    if command == "regen-check" and model_raw in MODELS \
            and model_raw != "var1":
        problems.append(
            "regen-check drives the scalar linear chain: model = var1")
    if model_raw == "var1":
        a = values.get("a")
        if a is not None and abs(a) >= 1:
            problems.append("a must satisfy |a| < 1 (contraction)")
        if values.get("innovation") == randkit.STABLE \
                and values.get("alpha", _DEFAULTS["alpha"]) > 2:
            problems.append("stable innovations need alpha <= 2")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(command=command, model=model_raw,
                            seed=int(seed),
                            out_dir=values.get("out_dir",
                                               _DEFAULTS["out_dir"]),
                            threads=values.get("threads", 0),
                            values=values)


def build_spec(config: ExperimentConfig):
    """Instantiate the model spec described by the config."""
    if config.model == "var1":
        law = TailLaw(config.get("innovation"),
                      alpha=config.get("alpha"),
                      scale=config.get("scale"),
                      skew=config.get("skew"))
        return models.Var1Spec(1, law,
                               a_matrix=np.array([[config.get("a")]]))
    if config.model == "kesten":
        a_law = TailLaw(randkit.LOGNORMAL, mu=config.get("a_mu"),
                        sigma=math.sqrt(config.get("a_sigma2")))
        if config.get("b_family") == randkit.PARETO:
            b_law = TailLaw(randkit.PARETO, alpha=config.get("b_alpha"),
                            scale=config.get("b_scale"))
        else:
            b_law = TailLaw(randkit.GAUSSIAN, scale=config.get("b_scale"))
        return models.KestenSpec(a_law=a_law, b_law=b_law)
    return models.Garch11Spec(config.get("alpha0"), config.get("alpha1"),
                              config.get("beta1"))


# ---------------------------------------------------------------------------
# output helpers


_CSV_BLOCK = 4096  # rows formatted at a time


def _cells(column: np.ndarray):
    """(format, values) of one column: floats take 17 significant digits,
    booleans become true/false, and anything else its str."""
    if column.dtype.kind == "f":
        return "%.17g", column.tolist()
    if column.dtype.kind == "b":
        return "%s", ["true" if v else "false" for v in column.tolist()]
    return "%s", column.tolist()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Direction):
        return list(obj.theta)
    return obj


class _Writer:
    """Tracks written files so failures leave no partial outputs."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths = []
        os.makedirs(out_dir, exist_ok=True)

    def csv(self, name, header, columns):
        """Write equal-length columns (anything that slices into arrays,
        a ``range`` too) a block of rows at a time, so no whole column is
        held as text. A block is one ``%`` call: the row format repeated
        once per row, over the block's values interleaved row by row."""
        width = len(columns)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, len(columns[0]), _CSV_BLOCK):
                fmts, cols = zip(*(_cells(np.asarray(c[lo:lo + _CSV_BLOCK]))
                                   for c in columns))
                rows = len(cols[0])
                flat = [None] * (rows * width)
                for j, values in enumerate(cols):
                    flat[j::width] = values
                fh.write((",".join(fmts) + "\n") * rows % tuple(flat))
        self.paths.append(path)
        return path

    def json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.paths.append(path)
        return path

    def rollback(self):
        for path in self.paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.paths = []
        try:
            os.rmdir(self.out_dir)
        except OSError:
            pass


@dataclass
class _Diffs:
    """np.diff of ``values`` by row blocks: rows lo:hi are the diff of
    values[lo:hi + 1], so no whole column of differences is built."""

    values: np.ndarray

    def __getitem__(self, rows):
        return np.diff(self.values[rows.start:rows.stop + 1])


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# command implementations


def _stream(config, stage):
    return derive_stream(config.seed, STREAMS[stage])


def _listed(stage, pilot):
    """``stage``'s manifest stream, and the pilot's if ``pilot`` is true."""
    streams = {stage: STREAMS[stage]}
    if pilot:
        streams["pilot"] = models._PILOT_STREAM_ID
    return streams


def _cmd_simulate(config, spec, writer, threads):
    n = config.get("n")
    burn = spec.default_burn
    path = models.simulate_path(spec, n, burn, _stream(config, "simulate"))
    writer.csv("path.csv", ["t"] + [f"x{i}" for i in range(path.shape[1])],
               [range(n), *path.T])
    summary = {"n": n, "burn_in": burn, "mean": path.mean(axis=0),
               "sd": path.std(axis=0, ddof=1) if n > 1 else 0.0}
    return summary, {"simulate": STREAMS["simulate"]}


def _cmd_cluster_index(config, spec, writer, threads):
    alpha = models.tail_index(spec)
    theta = Direction([config.get("theta")])
    horizon = config.get("horizon")
    replicas = config.get("replicas")
    tail, tele, sup = cluster.tail_process_routes(
        spec, theta, horizon, config.get("k_trunc"), replicas,
        _stream(config, "cluster_tail"), threads)
    ests = {"cluster_tail_process": tail}
    if spec.exact_cluster_index(theta.vector) is not None:
        ests["cluster_closed_form"] = cluster.closed_form_cluster_index(
            spec, theta, replicas)
    ests["telescoping"], ests["extremal_index"] = tele, sup
    fields = ("route", "value", "std_error", "plug_in_se", "horizon",
              "replicas")
    writer.csv("cluster.csv", ["quantity", *fields],
               [list(ests), *([getattr(e, f) for e in ests.values()]
                              for f in fields)])
    summary = {"alpha": alpha, "theta": theta}
    for lab, e in ests.items():
        summary[lab] = {"value": e.value, "std_error": e.std_error}
    return summary, {"cluster_tail": STREAMS["cluster_tail"]}


def _cmd_ldp_scan(config, spec, writer, threads):
    theta = Direction([config.get("theta")])
    res = limits.ldp_scan(spec, theta, config.get("n"),
                          config.get("reps", 100_000),
                          _stream(config, "ldp"),
                          grid_size=config.get("grid_size"),
                          eps=config.get("region_eps"), threads=threads)
    writer.csv("ldp.csv", ["x", "ratio", "ratio_se", "exceedances"],
               [res.xs, res.ratios, res.ratio_ses, res.counts.astype(int)])
    summary = {"n": res.n, "theta": res.theta, "target": res.target,
               "sup_dev": res.sup_dev, "b_n": res.b_n, "c_n": res.c_n,
               "centering": res.centering}
    return summary, _listed("ldp", limits.draws_pilot(spec))


def _cmd_stable_check(config, spec, writer, threads):
    theta = Direction([config.get("theta")])
    c = limits.stable_check(spec, theta, config.get("n"),
                            config.get("reps", 2000),
                            _stream(config, "stable"), threads=threads)
    gap = c.empirical - c.theoretical
    # np.hypot matches the scalar complex abs bit for bit; np.abs does not
    writer.csv("stable_cf.csv",
               ["x", "empirical_re", "empirical_im", "theoretical_re",
                "theoretical_im", "abs_gap"],
               [c.grid, c.empirical.real, c.empirical.imag,
                c.theoretical.real, c.theoretical.imag,
                np.hypot(gap.real, gap.imag)])
    summary = {"sup_abs_gap": c.sup_abs_gap, "mc_band": c.mc_band,
               "passed": c.sup_abs_gap <= c.mc_band,
               "centering": c.centering, "theta": theta}
    return summary, _listed("stable", limits.draws_pilot(spec))


def _cmd_drift_check(config, spec, writer, threads):
    try:
        alpha = models.tail_index(spec)
    except (UnsupportedLawError, NoRootError):  # no power tail, or none found
        alpha = None
    p, grid = spec.drift_setup(alpha)
    rep = models.drift_margin(spec, p, grid, _stream(config, "drift"))
    writer.csv("drift.csv", ["v_state", "v_next_mean"],
               [rep.grid_v, rep.response_v])
    summary = {"p": rep.p, "m": 1, "beta_hat": rep.beta_hat,
               "beta_se": rep.beta_se, "intercept": rep.intercept,
               "passed": rep.passed}
    if rep.passed:
        summary["suggested_burn_in"] = spec.default_burn
    return summary, {"drift": STREAMS["drift"]}


def _cmd_regen_check(config, spec, writer, threads):
    stream = _stream(config, "regen")
    mino = regen.make_var1_minorization(
        spec, m_bound=config.get("m_bound"), stream=stream)
    blocks = regen.harvest_blocks(spec, mino, config.get("n"), stream)
    exact = blocks.reconstruct_total() == blocks.total
    pi_c = regen.stationary_small_set_mass(blocks.path, mino.m_bound)
    kac = regen.kac_check(blocks, mino.epsilon * pi_c)
    writer.csv("cycles.csv", ["cycle", "start", "length", "block_sum"],
               [range(blocks.n_cycles), blocks.cycle_starts[:-1],
                _Diffs(blocks.cycle_starts), blocks.block_sums])
    summary = {"n": config.get("n"), "n_cycles": blocks.n_cycles,
               "epsilon": mino.epsilon, "m_bound": mino.m_bound,
               "m_heuristic": mino.heuristic,
               "decomposition_exact": exact,
               "kac": {"mean_length": kac.mean_length,
                       "expected_length": kac.expected_length,
                       "z_score": kac.z_score, "passed": kac.passed,
                       "geometric_rate": kac.geometric_rate}}
    if spec.innovation.family == randkit.GAUSSIAN:
        rep = limits.gaussian_sigma(blocks)
        summary["gaussian_clt"] = {
            "sigma_hat": rep.sigma_hat,
            "batch_sigma": rep.batch_sigma,
            "rel_gap": rep.rel_gap}
    return summary, _listed("regen", mino.heuristic)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "cluster-index": _cmd_cluster_index,
    "ldp-scan": _cmd_ldp_scan,
    "stable-check": _cmd_stable_check,
    "drift-check": _cmd_drift_check,
    "regen-check": _cmd_regen_check,
}


def run(config: ExperimentConfig, out_dir: str = None,
        threads: int = None) -> RunManifest:
    """Execute the configured command; emit CSVs, summary.json, and
    manifest.json. Partial outputs are removed on failure."""
    out = out_dir or config.out_dir
    threads = threads if threads is not None else (config.threads or 1)
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    spec = build_spec(config)
    writer = _Writer(out)
    start = time.perf_counter()
    try:
        summary, streams = _HANDLERS[config.command](
            config, spec, writer, threads)
        summary["command"] = config.command
        summary["model"] = config.model
        summary["seed"] = config.seed
        writer.json("summary.json", summary)
    except Exception:
        writer.rollback()
        raise
    runtime = time.perf_counter() - start
    files = [{"name": os.path.basename(p), "sha256": _digest(p)}
             for p in writer.paths]
    manifest = RunManifest(command=config.command, config=config.echo(threads),
                           files=files,
                           versions={"heavytail": __version__,
                                     "numpy": np.__version__,
                                     "python": sys.version.split()[0]},
                           runtime_s=runtime, streams=streams,
                           out_dir=out)
    writer.json("manifest.json", vars(manifest))
    return manifest


def main(argv=None) -> int:
    import argparse  # the console entry point alone parses arguments

    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Monte Carlo laboratory for cluster indices, stable "
                    "limits, and precise large deviations of heavy-tailed "
                    "Markov chains.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: HEAVYTAIL_THREADS "
                             "or 1)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    threads = args.threads
    if threads is None:
        env = os.environ.get("HEAVYTAIL_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                print("error: HEAVYTAIL_THREADS must be an integer, "
                      f"got {env!r}", file=sys.stderr)
                return 2
    try:
        config = parse_config(text, command_override=args.command,
                              seed_override=args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    try:
        manifest = run(config, out_dir=args.out, threads=threads)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeavytailError as exc:
        print(f"numeric-regime error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(f"wrote {len(manifest.files) + 1} files to {manifest.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
