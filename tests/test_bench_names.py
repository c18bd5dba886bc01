"""The benchmark tracer wraps heavytail functions by name
(``bench/tracer.py`` ``TARGETS``). A name it cannot find is skipped and
counted in ``trace.missing_names``, so a rename or deletion would
quietly drop that layer's metrics; this test fails on it instead."""
import importlib.util
import os

from heavytail import cli, models

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
