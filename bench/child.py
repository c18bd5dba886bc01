"""One benchmark run in a fresh process: set up, run, report.

    python3 bench/child.py CONFIG OUT_DIR THREADS T0 RESULT [--trace]

T0 is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes), so ``setup_s`` covers
interpreter start, the heavytail import, ``cli.parse_config`` and
``cli.build_spec``. ``wall_s`` is ``cli.run``. The result, with the
SHA-256 digest of every output the manifest lists, goes to RESULT as
JSON. With ``--trace`` the run is traced and the per-layer metrics are
added to the result.
"""
import json
import os
import sys
import time


def main(argv):
    config_path, out_dir, threads, t0, result_path = argv[:5]
    traced = "--trace" in argv[5:]
    threads = int(threads)
    from heavytail import cli
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    config = cli.parse_config(text)
    cli.build_spec(config)
    setup_s = time.monotonic() - float(t0)
    start = time.perf_counter()
    manifest = cli.run(config, out_dir=out_dir, threads=threads)
    wall_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "digests": {f["name"]: f["sha256"] for f in manifest.files}}
    if tracer is not None:
        tracer.uninstall()
        files = [os.path.join(out_dir, f["name"]) for f in manifest.files]
        result["layers"] = tracer.metrics(threads, files)
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
