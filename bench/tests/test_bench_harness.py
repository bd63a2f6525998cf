"""Tests of the benchmark itself: inputs, answer checker and span timer."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from coposlab import cones  # noqa: E402
from coposlab.numerics import SymMatrix  # noqa: E402

from bench import check, layers, spans, workloads  # noqa: E402


def _inputs(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    fx = workloads.fixtures(workload, seed)
    tasks = workloads.build_tasks(workload, seed, fx, str(workdir))
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return check.fingerprint([(t.name, t.kind, t.info) for t in tasks]), files


@pytest.mark.parametrize("workload", ["hierarchy", "certify"])
def test_generators_are_seed_deterministic(workload, tmp_path):
    first = _inputs(workload, 3, tmp_path)
    assert _inputs(workload, 3, tmp_path) == first
    assert _inputs(workload, 4, tmp_path) != first


def test_vrad_task_seeds_follow_the_workload_seed(tmp_path):
    fx = {"specs": {key: SimpleNamespace(ball_radius=1.0) for key in workloads.VRAD_SECTIONS}}
    seeds = [[t.info.get("seed") for t in workloads.build_tasks("vrad", s, fx, str(tmp_path))]
             for s in (3, 3, 4)]
    assert seeds[0] == seeds[1] != seeds[2]


def test_checker_rejects_a_perturbed_gram_entry():
    arr = np.eye(3) + np.ones((3, 3)) / 3
    res = cones.parrilo_member(SymMatrix(arr), 0)
    info = {"matrix": arr, "r": 0, "family": "bbt"}
    assert check.check("parrilo", info, res, None).status == check.OK
    res.gram[0, 1] += 1e-3
    res.gram[1, 0] += 1e-3
    assert check.check("parrilo", info, res, None).status == check.WRONG


def test_checker_rejects_a_flipped_cp_separator():
    arr = np.array([[1.0, -0.5, 0.2], [-0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    res = cones.cp_refute(SymMatrix(arr), r=0)
    info = {"matrix": arr}
    assert check.check("cp_refute", info, res, None).status == check.OK
    res.m = -res.m
    assert check.check("cp_refute", info, res, None).status == check.WRONG


def test_checker_rejects_a_flipped_cop_witness(tmp_path):
    arr = np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    path = workloads._write_matrix(str(tmp_path), "a", arr)
    rep = workloads._cli_call(["certify", "--cone", "cop", "--in", path])()
    info = {"matrix": arr, "cone": "cop", "known": "nonmember"}
    assert rep.code == 1
    assert check.check("cli_certify", info, rep, None).status == check.OK
    report = json.loads(rep.stdout)
    report["certificate"]["x"] = ["-" + v for v in report["certificate"]["x"]]
    rep.stdout = json.dumps(report)
    assert check.check("cli_certify", info, rep, None).status == check.WRONG


def test_checker_fails_crashes_and_indeterminate_answers():
    crash = check.check("cli_certify", {}, None, TypeError("unserializable certificate"))
    stall = check.check("parrilo", {}, None, RuntimeError("solver indeterminate: stall"))
    assert (crash.status, stall.status) == (check.FAIL, check.FAIL)
    assert stall.reason.startswith("indeterminate")


def test_span_self_time_excludes_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])   # outer in, inner in, inner out, outer out
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("b", "b.inner", lambda: None)
    outer = tracer.wrap("a", "a.outer", lambda: inner())
    tracer.enabled = True
    outer()
    snap = tracer.snapshot()
    assert snap.stats["a.outer"].self_s == 7.0
    assert snap.incl("a.outer") == 10.0
    assert snap.stats["b.inner"].self_s == 3.0
    assert snap.layer_self("a") + snap.layer_self("b") == 10.0


def test_span_counts_recursion_once_in_inclusive_time():
    ticks = iter([0.0, 2.0, 5.0, 9.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fact(k):
        return 1 if k == 0 else k * wrapped(k - 1)

    wrapped = tracer.wrap("a", "a.fact", lambda k: 1 if k == 0 else fact(k))
    tracer.enabled = True
    assert wrapped(1) == 1
    snap = tracer.snapshot()
    assert (snap.calls("a.fact"), snap.incl("a.fact"), snap.layer_self("a")) == (2, 9.0, 9.0)


def test_install_sees_internal_calls_and_uninstall_restores():
    originals = (cones.parrilo_member, cones.sdp_solve)
    tracer = spans.Tracer()
    undo = spans.install(tracer, layers.TARGETS, "coposlab")
    try:
        tracer.enabled = True
        cones.parrilo_member(SymMatrix(np.eye(3)), 0)
    finally:
        tracer.enabled = False
        spans.uninstall(undo)
    snap = tracer.snapshot()
    assert snap.calls("cones.parrilo_member") == 1
    assert snap.calls("sdp.sdp_solve") == 1
    assert layers.counts(snap)["sdp.iters"] > 0
    assert (cones.parrilo_member, cones.sdp_solve) == originals
