"""The benchmark tracer wraps heavytail functions by name
(``bench/tracer.py`` ``TARGETS``). A name it cannot find is skipped and
counted in ``trace.missing_names``, so a rename or deletion would
quietly drop that layer's metrics; this test fails on it instead."""
import importlib.util
import os

import pytest

from heavytail import cli, cluster, limits, models
from heavytail.randkit import derive_stream
from heavytail.tailstats import Direction

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    originals = (cli.run, models.simulate_path)
    t = _load_tracer().Tracer()
    try:
        assert t.install() == []
    finally:
        t.uninstall()
    assert (cli.run, models.simulate_path) == originals


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fixture", ["kesten_lognormal", "garch_benchmark"])
def test_every_cluster_route_traces_one_batch_per_chunk(request, fixture,
                                                        threads):
    # models.tail_process_s and models.tail_process_cells are read off the
    # calls of sample_tail_process_batch: every Monte Carlo cluster route
    # makes one per chunk, with the chunk's replicas and horizon, inside
    # the route's span. The recurrence's extremal call is its exact sup
    # functional (``exact_extremal_index``) and draws no batch. The shared
    # batch of ``cluster-index`` runs on ``threads`` under no traced
    # route, so each of its batches is a top span of its own
    spec = request.getfixturevalue(fixture)
    theta = Direction([1.0])
    replicas, horizon = 2 * cluster._CHUNK + 500, 8
    routes = {
        "tail_process": lambda stream: cluster.cluster_index_tail_process(
            spec, theta, horizon, replicas, stream),
        "telescoping": lambda stream: cluster.telescoping_difference(
            spec, theta, horizon, replicas, stream),
        "extremal": lambda stream: cluster.extremal_index(
            spec, theta, horizon, replicas, stream),
        "shared": lambda stream: cluster.tail_process_routes(
            spec, theta, horizon, horizon - 2, replicas, stream, threads),
    }
    chunks = [cluster._CHUNK, cluster._CHUNK, 500]
    for name, route in routes.items():
        t = _load_tracer().Tracer()
        assert t.install() == []
        try:
            route(derive_stream(3, 4))
        finally:
            t.uninstall()
        batches = [s for s in t.spans
                   if s.name == "models.sample_tail_process_batch"]
        drawn = [] if (fixture, name) == ("kesten_lognormal", "extremal") \
            else chunks
        assert sorted(s.meta["cells"] for s in batches) == sorted(
            take * (horizon + 1) for take in drawn), name
        top = None
        if name != "shared":
            (top,) = [s for s in t.spans if s.parent is None]
        assert all(s.parent is top and s.end > s.start for s in batches)


def test_traced_b_pair_reads_every_count(kesten_lognormal):
    # the pair behind stable-check is one closed-form call per sign: each
    # returns one estimate, whose counts the tracer's hook reads
    spec = kesten_lognormal
    t = _load_tracer().Tracer()
    assert t.install() == []
    try:
        pair = limits._b_values(spec, Direction([1.0]),
                                derive_stream(3, 5).substream(0xB0), 1,
                                (1, -1))
    finally:
        t.uninstall()
    assert t.missing == []
    assert pair[0] > 0.0 and pair[1] == 0.0
