"""Seeded task lists for the three benchmark workloads.

A task is one call into the public API, the equivalent of one CLI command.
The program only ever sees the generated matrices; everything the answer
checker needs to know about an input (its family, its known answers) rides
along in `Task.info`.  Each family draws from its own seeded stream, so the
inputs of one family do not depend on how many tasks another family has.

hierarchy  level-1 certificates and the paper's constructions: a few large
           dense SDPs per task (35x35 Gram blocks and 210 constraints at
           n=5, 56x56 and 462 at n=6).  The dense Schur/NT path of `sdp`
           does nearly all of the work.
vrad       Monte Carlo volume radii: closed-form rays, hundreds of tiny
           parametric SDP rays, and the generic bisection path.  Here `sdp`
           is per-call overhead, and `volume` is otherwise unmeasured.
certify    a stream of short `certify` requests through the in-process CLI,
           n from 3 to 40.  The Jacobi PSD certificate, JSON emission and
           tiny feasibility SDPs dominate; the dense Schur path is idle.
"""

from __future__ import annotations

import contextlib
import io
import os
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np
import scipy.linalg

from coposlab import cli, cones, exceptional, volume
from coposlab.numerics import SymMatrix, matrix_dumps

@dataclass
class Task:
    name: str
    kind: str                      # selects the answer check
    call: Callable[[], object]
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class CliReport:
    code: int
    stdout: str
    # not part of the answer: Python prints each warning once per process
    stderr: str = field(compare=False)


def _rng(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(family.encode())])


def _cli_call(argv: List[str]) -> Callable[[], CliReport]:
    def call() -> CliReport:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliReport(code, out.getvalue(), err.getvalue())
    return call


def _write_matrix(workdir: str, name: str, arr: np.ndarray) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_dumps(SymMatrix(arr)))
    return path


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------

def pm1_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Horn family: symmetric +-1 entries with unit diagonal."""
    u = np.triu(rng.choice([-1.0, 1.0], size=(n, n)), 1)
    return u + u.T + np.eye(n)


def bbt_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """B B^T with B >= 0: completely positive, so never refutable as CP."""
    b = rng.uniform(0.0, 1.0, size=(n, n + 1))
    return b @ b.T


def ij_perturbed(rng: np.random.Generator, n: int) -> np.ndarray:
    """I + J/n plus a symmetric perturbation; some entries turn negative."""
    g = rng.normal(size=(n, n))
    return np.eye(n) + np.ones((n, n)) / n + 0.15 * (g + g.T)


def horn_shifted(rng: np.random.Generator) -> np.ndarray:
    """P H P^T - delta I: x = e_i + e_j on a -1 entry of H gives -2 delta."""
    h = cones.horn_matrix().to_numpy()
    p = rng.permutation(5)
    return h[np.ix_(p, p)] - rng.uniform(0.05, 0.3) * np.eye(5)


def rank_one_mixed(rng: np.random.Generator, n: int) -> np.ndarray:
    """v v^T with entries of both signs: PSD on the boundary, never NN."""
    v = rng.normal(size=n)
    if v.min() >= 0.0 or v.max() <= 0.0:
        v[0] = -v[0]
    return np.outer(v, v)


def gram_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n))
    return g @ g.T / n


def gram_abs(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.abs(gram_psd(rng, n))


# The spn request that raises "array must not contain infs or NaNs" today.
RANK_ONE_DEFECT = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


# ---------------------------------------------------------------------------
# fixtures: what a user of each workload pays for before the first task
# ---------------------------------------------------------------------------

VRAD_SECTIONS = (  # (cone, n, mode)
    ("nn", 3, None), ("nn", 4, None), ("nn", 5, None), ("psd", 5, None),
    ("dnn", 5, None), ("spn", 5, None), ("cop", 4, "exact"), ("cp", 5, "inner"),
    ("lf", 4, "outer"), ("ball", 5, None),
)


def fixtures(workload: str, seed: int) -> dict:
    """Reference loads, section specs or the CLI parser, per workload."""
    if workload == "hierarchy":
        return {"a5": exceptional.load_reference_a5(), "c": exceptional.load_reference_c(),
                "gram": exceptional.load_reference_gram(), "horn": cones.horn_matrix()}
    if workload == "vrad":
        spec_seed = int(_rng(seed, "spec").integers(0, 2 ** 31 - 1))
        return {"specs": {key: volume.SectionSpec(cone=key[0], n=key[1], mode=key[2],
                                                  seed=spec_seed)
                          for key in VRAD_SECTIONS}}
    if workload == "certify":
        return {"parser": cli.build_parser()}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# task lists
# ---------------------------------------------------------------------------

def _hierarchy(seed: int, fx: dict, workdir: str) -> List[Task]:
    tasks: List[Task] = []

    def pair(family: str, gen, n: int, count: int, which=("parrilo", "cp")):
        rng = _rng(seed, f"{family}{n}")
        for k in range(count):
            arr = gen(rng, n)
            a = SymMatrix(arr)
            info = {"matrix": arr, "family": family}
            if "parrilo" in which:
                tasks.append(Task(f"parrilo1/{family}/n{n}/{k}", "parrilo",
                                  lambda a=a: cones.parrilo_member(a, 1), dict(info, r=1)))
            if "cp" in which:
                tasks.append(Task(f"cp_refute1/{family}/n{n}/{k}", "cp_refute",
                                  lambda a=a: cones.cp_refute(a, r=1), info))

    # a +-1 matrix costs 0.03 s or 0.4 s depending on whether the solver
    # stalls, so more of them would make the pass time depend on the seed
    pair("pm1", pm1_matrix, 5, 2)
    pair("bbt", bbt_matrix, 5, 4)
    pair("ij", ij_perturbed, 5, 4)
    pair("bbt", bbt_matrix, 6, 1, which=("parrilo",))

    horn, a5, c = fx["horn"], fx["a5"], fx["c"]
    tasks.append(Task("parrilo1/horn", "parrilo", lambda: cones.parrilo_member(horn, 1),
                      {"matrix": horn.to_numpy(), "r": 1, "known": "member"}))
    tasks.append(Task("spn/horn", "spn", lambda: cones.spn_decompose(horn),
                      {"matrix": horn.to_numpy(), "known": "nonmember"}))
    tasks.append(Task("cp_refute1/a5", "cp_refute", lambda: cones.cp_refute(a5, r=1),
                      {"matrix": a5.to_numpy(), "known": "nonmember"}))
    tasks.append(Task("parrilo1/c", "parrilo", lambda: cones.parrilo_member(c, 1),
                      {"matrix": c.to_numpy(), "r": 1, "known": "member", "pair_with": a5}))

    eps = Fraction(1, int(_rng(seed, "ednn").integers(20, 61)))
    tasks.append(Task("construct_ednn", "ednn",
                      lambda: exceptional.construct_ednn(eps, 12, 6), {"epsilon": eps}))
    tasks.append(Task("construct_ecop/a5", "ecop",
                      lambda: exceptional.construct_ecop(a5, Fraction(1, 10), 1),
                      {"matrix": a5.to_numpy(), "epsilon_prime": Fraction(1, 10)}))
    tasks.append(Task("verify_paper", "verify_paper", lambda: exceptional.verify_paper_examples()))

    rng = _rng(seed, "horn_shifted")
    for k in range(2):
        arr = horn_shifted(rng)
        path = _write_matrix(workdir, f"cop{k}", arr)
        tasks.append(Task(f"cli_certify_cop/{k}", "cli_certify",
                          _cli_call(["certify", "--cone", "cop", "--in", path]),
                          {"matrix": arr, "cone": "cop", "known": "nonmember"}))
    return tasks


# (cone, n, mode, samples, calls).  Costs are tiered so that the median and
# the tail latency of two passes fall on closed-form tasks, whose cost does not
# depend on the sampled directions: spn, cop and lf (1 s or more a call) give
# the ten slowest latencies and dnn the eleventh; the three nn calls sit in the
# middle, with as many tasks above them as below.
VRAD_TASKS = (
    ("spn", 5, None, 100, 2), ("cop", 4, "exact", 100, 2), ("lf", 4, "outer", 150, 1),
    ("dnn", 5, None, 20000, 1), ("psd", 5, None, 20000, 1),
    ("nn", 3, None, 20000, 1), ("nn", 4, None, 20000, 1), ("nn", 5, None, 20000, 1),
    ("cp", 5, "inner", 500, 2), ("ball", 5, None, 500, 2),
)
BISECT_TOL = 1e-3


def _vrad(seed: int, fx: dict, workdir: str) -> List[Task]:
    tasks: List[Task] = []
    rng = _rng(seed, "vrad")
    for cone, n, mode, samples, calls in VRAD_TASKS:
        spec = fx["specs"][(cone, n, mode)]
        for k in range(calls):
            s = int(rng.integers(0, 2 ** 31 - 1))
            tasks.append(Task(f"vrad_mc/{cone}/n{n}/{k}", "vrad",
                              lambda spec=spec, samples=samples, s=s:
                                  volume.vrad_mc(spec, samples, s, bisect_tol=BISECT_TOL),
                              {"cone": cone, "n": n, "samples": samples, "seed": s,
                               "bisect_tol": BISECT_TOL, "ball_radius": spec.ball_radius}))
    for n in (3, 4, 5):
        tasks.append(Task(f"vrad_nn_exact/n{n}", "vrad_exact",
                          lambda n=n: volume.vrad_nn_exact(n), {"n": n}))
    return tasks


CERTIFY_BASIC_N = (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40)
CERTIFY_SPN_MAX_N = 20
CERTIFY_SMALL_MAX_N = 4
CERTIFY_KINDS = {"psd": gram_psd, "nn": gram_abs, "rank1": rank_one_mixed}


def _certify(seed: int, fx: dict, workdir: str) -> List[Task]:
    tasks: List[Task] = []
    for n in CERTIFY_BASIC_N:
        for kind, gen in CERTIFY_KINDS.items():
            arr = gen(_rng(seed, f"certify-{kind}-{n}"), n)
            path = _write_matrix(workdir, f"{kind}{n}", arr)
            cone_list = ["nn", "psd", "dnn"]
            if n <= CERTIFY_SPN_MAX_N:
                cone_list.append("spn")
            if n <= CERTIFY_SMALL_MAX_N:
                cone_list += ["cop", "cp"]
            for cone in cone_list:
                tasks.append(Task(f"cli_certify_{cone}/{kind}/n{n}", "cli_certify",
                                  _cli_call(["certify", "--cone", cone, "--in", path]),
                                  {"matrix": arr, "cone": cone, "family": kind}))
    path = _write_matrix(workdir, "rank_one_defect", RANK_ONE_DEFECT)
    tasks.append(Task("cli_certify_spn/rank_one_defect", "cli_certify",
                      _cli_call(["certify", "--cone", "spn", "--in", path]),
                      {"matrix": RANK_ONE_DEFECT, "cone": "spn", "family": "rank1"}))
    # a seeded stream: the order of requests depends on the seed, not the mix
    order = _rng(seed, "certify-order").permutation(len(tasks))
    return [tasks[i] for i in order]


def build_tasks(workload: str, seed: int, fx: dict, workdir: str) -> List[Task]:
    return {"hierarchy": _hierarchy, "vrad": _vrad, "certify": _certify}[workload](
        seed, fx, workdir)


def warmup(workload: str, fx: dict, workdir: str) -> None:
    """Fill LAPACK's lazy state and the library's caches before timing.

    A cold 210x210 LU costs ~100x a warm one.  The inputs are fixed, not
    seeded, and the results are discarded.
    """
    rng = np.random.default_rng(0)
    for size in (35, 210):
        m = rng.normal(size=(size, size))
        scipy.linalg.lu_factor(m @ m.T + np.eye(size))
        np.linalg.eigh(m + m.T)
    # the largest problems of each workload also make the allocator keep
    # their arrays on the heap, which the first timed pass would pay for
    small = SymMatrix(np.eye(4) + np.ones((4, 4)) / 4)
    if workload == "hierarchy":
        cones.parrilo_member(SymMatrix(np.eye(6) + np.ones((6, 6)) / 6), 1)
        cones.cp_refute(SymMatrix(np.eye(5) + np.ones((5, 5)) / 5), r=1)
        cones.cop_refute(small)
    elif workload == "vrad":
        for spec in fx["specs"].values():
            g = np.ones(spec.dim) / np.sqrt(spec.dim)
            volume.radial(spec, g, BISECT_TOL)
        volume.vrad_mc(fx["specs"][("nn", 5, None)], 20000, 0)
        volume.vrad_nn_exact(3)
    path = _write_matrix(workdir, "warmup", small.to_numpy())
    for cone in ("nn", "psd", "dnn", "spn", "cop", "cp"):
        _cli_call(["certify", "--cone", cone, "--in", path])()
