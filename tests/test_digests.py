"""Pinned output digests.

Every file a golden run lists in its manifest, and the raw bytes of the
path and tail-process kernels on a two-dimensional chain, are pinned by
SHA-256. A change that keeps stream consumption and arithmetic order
leaves every digest here unchanged; a change that alters which draws are
made re-pins them and says so.
"""
import hashlib
import os

import numpy as np
import pytest

from heavytail import models, randkit
from heavytail.cli import parse_config, run
from heavytail.randkit import TailLaw, derive_stream

GOLDEN = os.path.join(os.path.dirname(__file__), "data")
SEED = 20260823

RUN_DIGESTS = {
    "golden_cluster.cfg": {
        "cluster.csv": "ce0807153fbff7ead7df6464df98fc64"
                       "9c5cec4b166f24083168c1026adaebff",
        "summary.json": "cb4eeae42dcd90f4ff054099a2ffe24b"
                        "8a35783494e85fd2d285265b645fb4af",
    },
    "golden_regen.cfg": {
        "cycles.csv": "dfd990a5979d76261e19396ede7030e1"
                      "1006248d5769d35e2ff529844afd7949",
        "summary.json": "bbfd25fab46f4e5cdba5527d48b0567a"
                        "03f04ab61754cbf2ae34b175d24410c8",
    },
    "golden_simulate.cfg": {
        "path.csv": "e273971a48cebac2865297396da1a424"
                    "dab75dca693d27344c1e3490d07960a8",
        "summary.json": "ae96d09281759c484f315eab462ace9f"
                        "eae65c778ef4754a710cad13db29cbec",
    },
    "golden_cluster_kesten.cfg": {
        "cluster.csv": "603f32444bda8fc062bfe3088675658b"
                       "fdb4c6aab1b7ebd647f3354cb456cf44",
        "summary.json": "a68b47ea9e8cbed89dc74b040ab6e9e0"
                        "b32382ef159ed466e0c1c99d685d922f",
    },
    "golden_stable_garch.cfg": {
        "stable_cf.csv": "6bdf488b71af42b6aab1ac0e31eb9855"
                         "ae821bb61b799944547e30c309570cc1",
        "summary.json": "b9948962de10a8402b77ea8d467d7621"
                        "0df9c5c0fbd08e24d8c4b7d02f556588",
    },
    "golden_drift_garch.cfg": {
        "drift.csv": "40dcdbddd096732aa98748ae7697ad9e"
                     "9f53584035d3f06c4dea09dd4f9ff6fe",
        "summary.json": "fe8bab0f3dff677a5c9115df0489ee56"
                        "f6fc89b2e022177e645b4353e8881127",
    },
    "golden_drift_var1.cfg": {
        "drift.csv": "f22b4eaf877006cf97bf154d3b0869f3"
                     "a9ab8b93e3bfe6cd56d5dd74d4886e73",
        "summary.json": "b0d47c716da516fc71fb77da585e3521"
                        "77602736a906b76796670e8f9584ba3e",
    },
    "golden_report_garch.cfg": {
        "report.csv": "74baeec1abf4952ab7b5353cc679de64"
                      "a4a7109890e8f0b057fc9c6bbb65c182",
        "summary.json": "f397037e51ab876501090785709116b7"
                        "b0c0a594d6727d50adebd55ae4a1abb6",
    },
    "golden_ldp_var1.cfg": {
        "ldp.csv": "8139e53d06461758ae638408ea8e8f2d9"
                   "5014a819c17d11869967ae27e33360c",
        "summary.json": "ed4c3da355a37b852419a5ae2529efee"
                        "a07d56c665953242f3de498003999976",
    },
}

KERNEL_DIGESTS = {
    "var1_dim2": {
        "path": "e7f1643bcb0c1ae0d430e2664fd26e5c"
                "e63a3f8939692029b78863a01598a3d3",
        "tail_process": "75601f1cc58005f1bac3d2e9ae96b763"
                        "f2cd61f302d8c59ccca8ae0b4239d72b",
    },
}

_KERNEL_SPECS = {
    "var1_dim2": lambda: models.Var1Spec(
        2, TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
        a_matrix=np.array([[0.5, 0.2], [-0.1, 0.3]]),
        weights=np.array([1.0, 2.0])),
}


def _check(label, got, want):
    assert got == want, f"{label}: sha256 {got} != pinned {want}"


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_golden_run_digests(tmp_path, name):
    with open(os.path.join(GOLDEN, name)) as fh:
        manifest = run(parse_config(fh.read()), out_dir=str(tmp_path))
    got = {f["name"]: f["sha256"] for f in manifest.files}
    want = RUN_DIGESTS[name]
    assert sorted(got) == sorted(want), \
        f"{name}: wrote {sorted(got)}, pinned {sorted(want)}"
    for fname, digest in want.items():
        _check(f"{name}/{fname}", got[fname], digest)


@pytest.mark.parametrize("name", sorted(KERNEL_DIGESTS))
def test_two_dimensional_kernel_digests(name):
    spec = _KERNEL_SPECS[name]()
    path = models.simulate_path(spec, 300, 50, derive_stream(SEED, 11))
    theta = models.sample_tail_process_batch(
        spec, 8, 200, derive_stream(SEED, 12), models.tail_index(spec))
    assert path.shape == (300, 2)
    assert theta.shape == (200, 9, 2)
    want = KERNEL_DIGESTS[name]
    _check(f"{name}/path", hashlib.sha256(path.tobytes()).hexdigest(),
           want["path"])
    _check(f"{name}/tail_process", hashlib.sha256(theta.tobytes()).hexdigest(),
           want["tail_process"])
