"""Count the stalls of the HSDE solver on three seeded families of small SDPs.

A stall is a solve that ends INDETERMINATE for a numerical reason ("step
length collapsed", "scaling breakdown", the iteration cap, ...).  An
improving primal ray ("dual infeasible") is an answer, not a stall, and is
counted apart; so is an answer whose certificate fails its re-check.

- rank1_pn: the P + N feasibility SDP of `cones._spn_sdp` at tol 1e-9 on
  mixed-sign v v^T, v normal from default_rng([s, n]), s = 0..4 and
  n = 3..20 (90 inputs).  Each is PSD on the boundary of SPN and never NN,
  so the answer is an SpnPair that passes `SpnPair.check(a, 1e-9)`.
- rank1_sos0: the same inputs at n <= 8 through `parrilo_member(a, 0)`
  (30 inputs), which solves the same P + N SDP and lifts its split to the
  level-0 Gram; that certificate must pass `SosGram.check` at 1e-8.
- random: 600 d x d SDPs, d = 3, 4, 5 and seeds 0..199, each drawn from
  RandomState(1000 d + seed): X0 = G G^T + 0.2 I, d + 1 rows sym(randn)
  with right-hand sides <M, X0>, objective sym(C) + 2 I, solved at 1e-9;
  the answer is OPTIMAL.

Every input is seeded, so the counts repeat on one platform.  Prints one
JSON line: per family the inputs, stalls and their reasons, dual
infeasible and failed re-checks, the interior-point iterations of its
solves (their total and median) and its wall seconds, and the total stall
count.  Takes about a quarter of a minute on one core.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/solver_census.py
"""

import contextlib
import json
import sys
import time
from collections import Counter

import numpy as np

from coposlab import cones, sdp
from coposlab.cones import SosGram, SpnPair, parrilo_member, quartic_target
from coposlab.numerics import SymMatrix
from coposlab.sdp import LinExpr, SdpProblem, SdpStatus, sdp_solve

TOL = 1e-9


def rank_one_inputs(max_n: int = 20):
    for s in range(5):
        for n in range(3, max_n + 1):
            v = np.random.default_rng([s, n]).normal(size=n)
            if v.min() >= 0.0 or v.max() <= 0.0:
                v[0] = -v[0]
            yield np.outer(v, v)


def random_problems():
    for d in (3, 4, 5):
        for seed in range(200):
            rng = np.random.RandomState(1000 * d + seed)
            g = rng.randn(d, d)
            x0 = g @ g.T + 0.2 * np.eye(d)
            p = SdpProblem(psd_block_dims=[d])
            for _ in range(d + 1):
                m = rng.randn(d, d)
                m = 0.5 * (m + m.T)
                p.constraints.append((LinExpr().add_matrix_pairing(0, m), float((m * x0).sum())))
            c = rng.randn(d, d)
            p.objective = LinExpr().add_matrix_pairing(0, 0.5 * (c + c.T) + 2.0 * np.eye(d))
            yield p


def _stall_reason(exc: RuntimeError) -> str:
    # cones raises "solver indeterminate: <message> (residuals (...))"
    return str(exc).removeprefix("solver indeterminate: ").split(" (residuals")[0]


def rank1_pn():
    for a in rank_one_inputs():
        try:
            res = cones._spn_sdp(a, TOL)
        except RuntimeError as exc:
            yield _stall_reason(exc)
            continue
        yield "solved" if isinstance(res, SpnPair) and res.check(a, TOL) else "check failed"


def rank1_sos0():
    for a in rank_one_inputs(max_n=8):
        try:
            res = parrilo_member(SymMatrix(a), 0, tol=TOL)
        except RuntimeError as exc:
            yield _stall_reason(exc)
            continue
        target = quartic_target(SymMatrix(a), 0)
        yield "solved" if isinstance(res, SosGram) and res.check(target, 1e-8) else "check failed"


def random_sdps():
    for p in random_problems():
        sol = sdp_solve(p, tol=TOL)
        if sol.status == SdpStatus.OPTIMAL:
            yield "solved"
        elif sol.message.startswith("dual infeasible"):
            yield "dual infeasible"
        elif sol.status == SdpStatus.INDETERMINATE:
            yield sol.message
        else:
            yield "check failed"


FAMILIES = {"rank1_pn": rank1_pn, "rank1_sos0": rank1_sos0, "random": random_sdps}
NOT_STALLS = ("solved", "dual infeasible", "check failed")


@contextlib.contextmanager
def iterations_of_solves(iterations: list):
    """Append the iteration count of every SDP solved inside the block;
    sdp_solve and the cones' solves all go through sdp.sdp_solve_many."""
    solve_many = sdp.sdp_solve_many

    def counted(problems, tol=1e-9):
        sols = solve_many(problems, tol)
        iterations.extend(s.iterations for s in sols)
        return sols

    sdp.sdp_solve_many = counted
    try:
        yield
    finally:
        sdp.sdp_solve_many = solve_many


def census():
    out = {}
    for name, family in FAMILIES.items():
        iterations = []
        start = time.perf_counter()
        with iterations_of_solves(iterations):
            outcomes = Counter(family())
        wall = time.perf_counter() - start
        reasons = {k: v for k, v in sorted(outcomes.items()) if k not in NOT_STALLS}
        out[name] = {"inputs": sum(outcomes.values()), "stalls": sum(reasons.values()),
                     "reasons": reasons, "dual_infeasible": outcomes["dual infeasible"],
                     "check_failed": outcomes["check failed"],
                     "iterations": sum(iterations),
                     "median_iterations": float(np.median(iterations)) if iterations else 0.0,
                     "wall_s": round(wall, 3)}
    return {"families": out, "stalls": sum(f["stalls"] for f in out.values())}


def main() -> int:
    print(json.dumps(census()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
