"""Tests of the benchmark itself: python3 -m pytest -q bench

They run the real CLI at smoke-test sizes through the same code path as
a benchmark run, so they take about a minute.
"""
import json
import sys
import time

import pytest

import run
import tracer
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _last_json(capsys):
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_smoke_every_workload(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds",
                     "0", "--size", "tiny"])
    out, result = _last_json(capsys)
    assert code == 0
    assert result["correct"], out
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_RUNS + 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "failed_frac 0 " in out


def test_traced_run_writes_the_untraced_outputs(tmp_path, capsys):
    values = workloads.sizes("cluster_kesten", tiny=True)
    deadline = time.monotonic() + 60
    plain = run.run_child("cluster_kesten", values, 7, 2, False,
                          tmp_path / "plain", deadline)
    traced = run.run_child("cluster_kesten", values, 7, 2, True,
                           tmp_path / "traced", deadline)
    assert plain.problems == [] and traced.problems == []
    assert plain.digests and plain.digests == traced.digests
    assert plain.layers is None
    assert set(traced.layers) == set(tracer.PER_LAYER) - {
        "trace.overhead_frac"}

    code = run.main(["--workload", "cluster_kesten", "--seed", "1",
                     "--seconds", "0", "--size", "tiny", "--trace", "1"])
    out, result = _last_json(capsys)
    assert code == 0 and result["correct"], out
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    assert result["metrics"]["cluster.replicas"]["value"] == 4 * 5_000


def test_missing_name_is_reported_not_fatal(tmp_path):
    from heavytail import cli

    original = cli.run
    targets = dict(tracer.TARGETS)
    targets["cluster.no_such_function"] = None
    targets["models.tail_index"] = lambda a, r: {"x": a["no_such_arg"]}
    t = tracer.Tracer(targets)
    assert t.install() == ["cluster.no_such_function"]
    try:
        values = workloads.sizes("cluster_kesten", tiny=True)
        config = cli.parse_config(workloads.config_text(values, 3))
        manifest = cli.run(config, out_dir=str(tmp_path / "out"))
    finally:
        t.uninstall()
    assert cli.run is original
    files = [str(tmp_path / "out" / f["name"]) for f in manifest.files]
    m = t.metrics(1, files)
    assert t.missing == ["cluster.no_such_function",
                         "models.tail_index:counts"]
    assert m["trace.missing_names"] == 2
    assert m["cluster.replicas"] == 4 * values["replicas"]


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ldp_var1", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CONFIGS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracer.PER_LAYER
