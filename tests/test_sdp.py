import hashlib
import json
import warnings

import numpy as np
import pytest

from coposlab import cones, sdp
from coposlab.exceptional import load_reference_a5, load_reference_c
from coposlab.numerics import SymMatrix
from coposlab.quartic import monomials
from coposlab.sdp import (BasisDeficiencyError, LinExpr, SdpProblem, SdpSolution,
                          SdpStatus, even_sos_assemble, gram_form_coeffs,
                          sdp_solve, sdp_solve_many, sos_gram_assemble)


def trace_constraint(n, rhs):
    e = LinExpr()
    for i in range(n):
        e.add_psd_entry(0, i, i, 1.0)
    return (e, rhs)


def test_minimize_x11_on_trace_slice():
    p = SdpProblem(psd_block_dims=[2])
    p.constraints.append(trace_constraint(2, 1.0))
    p.objective = LinExpr().add_psd_entry(0, 0, 0, 1.0)
    sol = sdp_solve(p)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective_value) < 1e-8
    assert max(sol.residuals) <= 1e-9


def test_negative_trace_infeasible_with_verified_ray():
    p = SdpProblem(psd_block_dims=[2])
    p.constraints.append(trace_constraint(2, -1.0))
    sol = sdp_solve(p)
    assert sol.status == SdpStatus.INFEASIBLE
    ray = sol.dual_ray
    # improving ray: b.y = 1 > 0 and -A^T y PSD on the block
    assert abs(ray.y @ np.array([-1.0]) - 1.0) < 1e-12
    assert ray.max_violation() <= 1e-8


def test_pure_feasibility_with_free_and_nonneg():
    p = SdpProblem(psd_block_dims=[], nonneg_dim=1, free_dim=1)
    p.constraints.append((LinExpr().add_free(0, 1.0), 3.0))
    p.constraints.append((LinExpr().add_nonneg(0, 1.0).add_free(0, 1.0), 10.0))
    sol = sdp_solve(p)
    assert sol.status == SdpStatus.FEASIBLE_POINT
    assert abs(sol.free[0] - 3.0) < 1e-7
    assert abs(sol.nonneg[0] - 7.0) < 1e-7


def test_weak_duality_on_random_optimizations():
    rng = np.random.RandomState(4)
    for _ in range(10):
        d = 3
        p = SdpProblem(psd_block_dims=[d])
        g = rng.randn(d, d)
        x0 = g @ g.T + 0.2 * np.eye(d)
        for _ in range(4):
            m = rng.randn(d, d)
            m = 0.5 * (m + m.T)
            p.constraints.append((LinExpr().add_matrix_pairing(0, m), float((m * x0).sum())))
        c = rng.randn(d, d)
        p.objective = LinExpr().add_matrix_pairing(0, 0.5 * (c + c.T) + 2 * np.eye(d))
        sol = sdp_solve(p, tol=1e-9)
        assert sol.status == SdpStatus.OPTIMAL
        # |primal - dual| <= 10 tol (1 + |obj|)
        dual = float(np.array([rhs for _, rhs in p.constraints]) @ sol.y)
        assert abs(sol.objective_value - dual) <= 10 * 1e-9 * (1 + abs(sol.objective_value))


def test_non_finite_scaling_is_indeterminate(monkeypatch):
    # an NT scaling that overflows must end the solve, not raise from LAPACK
    def inf_operator(w):
        k = w.shape[-1] * (w.shape[-1] + 1) // 2
        return np.full(w.shape[:-2] + (k, k), np.inf)

    monkeypatch.setattr(sdp, "_nt_operator", inf_operator)
    p = SdpProblem(psd_block_dims=[3])
    p.constraints.append(trace_constraint(3, 1.0))
    p.objective = LinExpr().add_psd_entry(0, 0, 0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = sdp_solve(p)
    assert sol.status == SdpStatus.INDETERMINATE
    assert "non-finite" in sol.message


def mixed_problems(count, seed):
    """One layout (a 3x3 block, one orthant scalar, 4 rows); a trace row of
    -1 makes every third problem infeasible, and every fourth has no
    objective."""
    rng = np.random.RandomState(seed)
    out = []
    for t in range(count):
        p = SdpProblem(psd_block_dims=[3], nonneg_dim=1)
        g = rng.randn(3, 3)
        x0 = g @ g.T + 0.2 * np.eye(3)
        for _ in range(3):
            m = rng.randn(3, 3)
            m = 0.5 * (m + m.T)
            p.constraints.append((LinExpr().add_matrix_pairing(0, m).add_nonneg(0, 0.5),
                                  float((m * x0).sum()) + 0.5))
        p.constraints.append(trace_constraint(3, -1.0 if t % 3 == 0 else float(np.trace(x0))))
        if t % 4:
            c = rng.randn(3, 3)
            p.objective = LinExpr().add_matrix_pairing(0, 0.5 * (c + c.T) + 2 * np.eye(3))
        out.append(p)
    return out


def assert_same_solution(a, b):
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    assert a.residuals == b.residuals
    assert a.objective_value == b.objective_value
    assert len(a.psd_blocks) == len(b.psd_blocks)
    for u, v in zip(a.psd_blocks + [a.nonneg, a.free, a.y], b.psd_blocks + [b.nonneg, b.free, b.y]):
        assert np.array_equal(u, v)
    assert (a.dual_ray is None) == (b.dual_ray is None)
    if a.dual_ray is not None:
        for u, v in zip([a.dual_ray.y, a.dual_ray.nonneg_part] + a.dual_ray.psd_operators,
                        [b.dual_ray.y, b.dual_ray.nonneg_part] + b.dual_ray.psd_operators):
            assert np.array_equal(u, v)


def test_stack_returns_each_solo_result():
    probs = mixed_problems(12, seed=8)
    stacked = sdp_solve_many(probs)
    assert {s.status for s in stacked} >= {SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE,
                                          SdpStatus.FEASIBLE_POINT}
    for p, s in zip(probs, stacked):
        assert_same_solution(s, sdp_solve(p))
    # a sub-stack in another order gives the same solutions again
    order = [7, 0, 11, 3, 5]
    for i, s in zip(order, sdp_solve_many([probs[i] for i in order])):
        assert_same_solution(s, stacked[i])


def mixed_block_problems(count, seed):
    """One layout mixing block sizes: PSD blocks 3, 2, 3 and an empty one, an
    orthant scalar and a free scalar, so the two 3x3 blocks share a size but
    not adjacent columns.  A trace row of -1 on the 2x2 block makes every
    third problem infeasible, and every fourth has no objective."""
    dims = [3, 2, 3, 0]
    rng = np.random.RandomState(seed)
    out = []
    for t in range(count):
        p = SdpProblem(psd_block_dims=dims, nonneg_dim=1, free_dim=1)
        x0 = []
        for d in dims[:3]:
            g = rng.randn(d, d)
            x0.append(g @ g.T + 0.2 * np.eye(d))
        v0, f0 = 0.5, float(rng.randn())
        for _ in range(5):
            e, rhs = LinExpr(), 0.0
            for blk, x in enumerate(x0):
                m = rng.randn(len(x), len(x))
                m = 0.5 * (m + m.T)
                e.add_matrix_pairing(blk, m)
                rhs += float((m * x).sum())
            w, u = rng.randn(2)
            p.constraints.append((e.add_nonneg(0, w).add_free(0, u), rhs + w * v0 + u * f0))
        total = LinExpr().add_nonneg(0, 1.0)
        for blk, d in enumerate(dims[:3]):
            for i in range(d):
                total.add_psd_entry(blk, i, i, 1.0)
        p.constraints.append((total, sum(float(np.trace(x)) for x in x0) + v0))
        two = LinExpr().add_psd_entry(1, 0, 0, 1.0).add_psd_entry(1, 1, 1, 1.0)
        p.constraints.append((two, -1.0 if t % 3 == 0 else float(np.trace(x0[1]))))
        if t % 4:
            for blk, d in enumerate(dims[:3]):
                c = rng.randn(d, d)
                p.objective.add_matrix_pairing(blk, 0.5 * (c + c.T) + 2 * np.eye(d))
            p.objective.add_nonneg(0, 1.0)
        out.append(p)
    return out


def solution_digest(sols):
    """sha256 over every field and array of a list of solutions."""
    h = hashlib.sha256()
    for s in sols:
        h.update(repr((s.status.value, s.message, s.iterations, s.residuals,
                       s.objective_value)).encode())
        arrays = s.psd_blocks + [s.nonneg, s.free, s.y]
        if s.dual_ray is not None:
            ray = s.dual_ray
            arrays += [ray.y, ray.nonneg_part, ray.free_part] + ray.psd_operators
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_mixed_block_sizes_pin_the_bits():
    probs = mixed_block_problems(8, seed=3)
    stacked = sdp_solve_many(probs)
    assert {s.status for s in stacked} >= {SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE,
                                          SdpStatus.FEASIBLE_POINT}
    for p, s in zip(probs, stacked):
        assert_same_solution(s, sdp_solve(p))
    # every bit of every solution: a change to the solver's arithmetic shows
    # here, while the comparison above holds a stack to its solo solves
    assert solution_digest(stacked) == (
        "0cfdd9a22d5c6a5232da9ce2883ab88a5ec9205bc3d231ac1fcdbf0fd9039966")


def test_hierarchy_layout_stack_returns_each_solo_result():
    # the layout hierarchy solves: a level-1 certificate at n = 5 has five
    # 5x5 parity blocks, ten orthant scalars and 35 rows
    mats = [cones.horn_matrix(), load_reference_c(),
            SymMatrix(load_reference_a5().to_numpy() + np.eye(5) / 50)]
    probs = [cones.kr_problem(5, 1, cones.quartic_target(a, 1))[0] for a in mats]
    assert probs[0].psd_block_dims == [5] * 5 and probs[0].nonneg_dim == 10
    stacked = sdp_solve_many(probs)
    assert all(s.status == SdpStatus.FEASIBLE_POINT for s in stacked)
    for p, s in zip(probs, stacked):
        assert_same_solution(s, sdp_solve(p))


def test_refinement_rejects_a_correction_that_overflows(monkeypatch):
    # the first refinement solve returns a correction of 1e300: its residual
    # overflows inside the np.errstate guard, the round is rejected, no
    # RuntimeWarning escapes and the solve still reaches a checked optimum
    import scipy.linalg.lapack as lapack
    getrs, poisoned = lapack.dgetrs, []

    def overflowing(lu, piv, rhs, *args, **kwargs):
        x, info = getrs(lu, piv, rhs, *args, **kwargs)
        # only a refinement solve has a residual, near zero, on its right
        if not poisoned and np.abs(rhs).max() < 1e-6:
            poisoned.append(np.abs(rhs).max())
            x = np.full_like(x, 1e300)
        return x, info

    monkeypatch.setattr(lapack, "dgetrs", overflowing)
    p = SdpProblem(psd_block_dims=[3], nonneg_dim=2)
    rng = np.random.RandomState(5)
    m = rng.randn(3, 3)
    p.constraints.append((LinExpr().add_matrix_pairing(0, 0.5 * (m + m.T)).add_nonneg(0, 1.2), 2.0))
    p.constraints.append((LinExpr().add_matrix_pairing(0, np.eye(3)).add_nonneg(1, 1.0), 3.0))
    p.objective = LinExpr().add_matrix_pairing(0, np.ones((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = sdp_solve(p)
    assert len(poisoned) == 1
    # an accepted correction of 1e300 would have left no finite iterate
    assert sol.status == SdpStatus.OPTIMAL, sol.message
    assert max(sol.residuals) <= 1e-9
    assert np.isfinite(sol.psd_blocks[0]).all() and np.isfinite(sol.y).all()


def test_scaling_breakdown_ends_only_its_problem(monkeypatch):
    # at the third step of a stack of four, the second 3x3 block of problem 1
    # fails its Cholesky factorization; only problem 1 ends
    probs = mixed_block_problems(4, seed=3)
    solo = [sdp_solve(p) for p in probs]
    steps, target = [], []
    newton_step, nt_scaling = sdp._newton_step, sdp._nt_scaling

    def counting_step(std, AK, AF, b, cK, cF, xk, *rest):
        if len(xk) == len(probs):
            steps.append(None)
            if len(steps) == 3:  # svec columns 9:15 hold the second 3x3 block
                target.append(sdp.smat(xk[1, 9:15], 3))
        return newton_step(std, AK, AF, b, cK, cF, xk, *rest)

    def flaky_scaling(x, s):
        if target and x.shape[-1] == 3 and any(
                np.array_equal(m, target[0]) for m in x.reshape(-1, 3, 3)):
            raise np.linalg.LinAlgError("forced")
        return nt_scaling(x, s)

    monkeypatch.setattr(sdp, "_newton_step", counting_step)
    monkeypatch.setattr(sdp, "_nt_scaling", flaky_scaling)
    stacked = sdp_solve_many(probs)
    assert target
    assert (stacked[1].status, stacked[1].message, stacked[1].iterations) == (
        SdpStatus.INDETERMINATE, "scaling breakdown", 3)
    for i in (0, 2, 3):
        assert_same_solution(stacked[i], solo[i])


def test_stack_rejects_mixed_layouts():
    p2 = SdpProblem(psd_block_dims=[2])
    p2.constraints.append(trace_constraint(2, 1.0))
    p3 = SdpProblem(psd_block_dims=[3])
    p3.constraints.append(trace_constraint(3, 1.0))
    with pytest.raises(ValueError, match="layout"):
        sdp_solve_many([p2, p3])
    for dims, nonneg, free in (([2, 0], 0, 0), ([2], 1, 0), ([2], 0, 1)):
        other = SdpProblem(psd_block_dims=dims, nonneg_dim=nonneg, free_dim=free)
        other.constraints.append(trace_constraint(2, 1.0))
        with pytest.raises(ValueError, match="problems must share one block layout"):
            sdp_solve_many([p2, other])
    two_rows = SdpProblem(psd_block_dims=[2])
    two_rows.constraints += [trace_constraint(2, 1.0),
                             (LinExpr().add_psd_entry(0, 0, 1, 1.0), 0.25)]
    with pytest.raises(ValueError, match="rows"):
        sdp_solve_many([p2, two_rows])
    # two rows as given on both sides, but a repeated row leaves one
    repeated = SdpProblem(psd_block_dims=[2])
    repeated.constraints += [trace_constraint(2, 1.0), trace_constraint(2, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(ValueError,
                           match="problems must keep the same number of rows after presolve"):
            sdp_solve_many([repeated, two_rows])
    assert sdp_solve_many([]) == []


def test_bitwise_reproducibility():
    p = SdpProblem(psd_block_dims=[3], nonneg_dim=2)
    rng = np.random.RandomState(5)
    m = rng.randn(3, 3)
    m = 0.5 * (m + m.T)
    p.constraints.append((LinExpr().add_matrix_pairing(0, m).add_nonneg(0, 1.2), 2.0))
    p.constraints.append((LinExpr().add_matrix_pairing(0, np.eye(3)).add_nonneg(1, 1.0), 3.0))
    p.objective = LinExpr().add_matrix_pairing(0, np.ones((3, 3)))
    a = sdp_solve(p)
    b = sdp_solve(p)
    assert a.status == b.status
    assert a.residuals == b.residuals
    assert np.array_equal(a.psd_blocks[0], b.psd_blocks[0])
    assert np.array_equal(a.y, b.y)


def test_presolve_drops_duplicates_and_dependent_rows():
    p = SdpProblem(psd_block_dims=[2])
    e1 = trace_constraint(2, 1.0)
    e1_dup = trace_constraint(2, 1.0)
    e2 = LinExpr().add_psd_entry(0, 0, 0, 2.0).add_psd_entry(0, 1, 1, 2.0)
    p.constraints += [e1, e1_dup, (e2, 2.0)]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sol = sdp_solve(p)
    assert sol.status == SdpStatus.FEASIBLE_POINT
    assert any("dependent" in str(w.message) for w in rec)


def test_presolve_detects_inconsistent_dependent_rows():
    p = SdpProblem(psd_block_dims=[2])
    e2 = LinExpr().add_psd_entry(0, 0, 0, 2.0).add_psd_entry(0, 1, 1, 2.0)
    p.constraints += [trace_constraint(2, 1.0), (e2, 3.0)]
    sol = sdp_solve(p)
    assert sol.status == SdpStatus.INFEASIBLE
    assert sol.dual_ray.max_violation() <= 1e-8


def test_presolve_r_only_qr_matches_the_economic_reference():
    # the economic QR also forms Q, which presolve never reads; its R and
    # pivots are the reference for every output of presolve
    from scipy.linalg import qr

    def economic(a, mode, pivoting):
        _, r, piv = qr(a, mode="economic", pivoting=pivoting)
        return r, piv

    rng = np.random.RandomState(3)
    full, b = rng.standard_normal((6, 15)), rng.standard_normal(6)
    dependent = np.vstack([full, 2.0 * full[1], full[0] - full[4]])
    cases = [(full, b),                                                     # full rank
             (dependent, np.concatenate([b, [2.0 * b[1], b[0] - b[4]]])),        # dependent
             (dependent, np.concatenate([b, [2.0 * b[1], b[0] - b[4] + 1.0]])),  # inconsistent
             (rng.standard_normal((9, 4)), rng.standard_normal(9))]         # more rows than columns
    for A, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = sdp._presolve(A, b, qr)
            want = sdp._presolve(A, b, economic)
        for g, w in zip(got, want):
            assert (g is None and w is None) or np.array_equal(g, w)


def test_tolerance_validation():
    p = SdpProblem(psd_block_dims=[2])
    p.constraints.append(trace_constraint(2, 1.0))
    for tol in (1e-3, 0.0, -1e-9, 1.0001e-4, float("nan")):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1e-4\]"):
            sdp_solve(p, tol=tol)
    assert sdp_solve(p, tol=1e-4).status == SdpStatus.FEASIBLE_POINT


def one_key_problem(key, dims=(2,), nonneg=0, free=0, in_objective=False):
    """A trace row on the first nonempty block plus one term at key, in a
    second row or in the objective."""
    p = SdpProblem(psd_block_dims=list(dims), nonneg_dim=nonneg, free_dim=free)
    b = next(i for i, d in enumerate(dims) if d)
    p.constraints.append((LinExpr().add_psd_entry(b, 0, 0, 1.0), 1.0))
    if in_objective:
        p.objective = LinExpr({key: 1.0})
    else:
        p.constraints.append((LinExpr({key: 1.0}), 0.5))
    return p


MALFORMED = {
    "psd block out of range": (lambda: one_key_problem(("p", 1, 0, 0)), "bad psd key"),
    "negative psd block": (lambda: one_key_problem(("p", -1, 0, 0)), "bad psd key"),
    "psd i > j": (lambda: one_key_problem(("p", 0, 1, 0)), "bad psd key"),
    "psd j >= d": (lambda: one_key_problem(("p", 0, 0, 2)), "bad psd key"),
    "psd key into a zero-size block": (
        lambda: one_key_problem(("p", 0, 0, 0), dims=(0, 2)), "bad psd key"),
    "psd key in the objective": (
        lambda: one_key_problem(("p", 0, 2, 2), in_objective=True), "bad psd key"),
    "orthant index past the end": (lambda: one_key_problem(("n", 1), nonneg=1), "bad nonneg key"),
    "negative orthant index": (lambda: one_key_problem(("n", -1), nonneg=1), "bad nonneg key"),
    "orthant key with no orthant": (
        lambda: one_key_problem(("n", 0), in_objective=True), "bad nonneg key"),
    "free index past the end": (lambda: one_key_problem(("f", 2), free=2), "bad free key"),
    "negative free index": (lambda: one_key_problem(("f", -1), free=1), "bad free key"),
    "unknown key kind": (lambda: one_key_problem(("x", 0)), r"bad key \('x', 0\)"),
    "fractional orthant index": (lambda: one_key_problem(("n", 0.5), nonneg=1),
                                 r"bad key \('n', 0\.5\)"),
    "fractional psd row": (lambda: one_key_problem(("p", 0, 0.5, 1)),
                           r"bad key \('p', 0, 0\.5, 1\)"),
    "float psd column": (lambda: one_key_problem(("p", 0, 0, 1.0)),
                         r"bad key \('p', 0, 0, 1\.0\)"),
    "orthant key with no index": (lambda: one_key_problem(("n",), nonneg=1), r"bad key \('n',\)"),
    "empty key": (lambda: one_key_problem(()), r"bad key \(\)"),
    "negative psd dimension": (
        lambda: one_key_problem(("n", 0), dims=(-1, 2), nonneg=1), "dimensions must be nonnegative"),
    "negative orthant dimension": (
        lambda: SdpProblem(psd_block_dims=[2], nonneg_dim=-1), "dimensions must be nonnegative"),
    "negative free dimension": (
        lambda: SdpProblem(psd_block_dims=[2], free_dim=-1), "dimensions must be nonnegative"),
    "no block": (lambda: SdpProblem(psd_block_dims=[0, 0]), "at least one block required"),
    "no constraint": (lambda: SdpProblem(psd_block_dims=[2]), "at least one constraint required"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_front_end_rejects_malformed_problems(case):
    make, message = MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        sdp_solve(make())
    # a malformed problem anywhere in a stack stops the whole call
    good = SdpProblem(psd_block_dims=[2])
    good.constraints.append(trace_constraint(2, 1.0))
    bad = make()
    if bad.psd_block_dims == [2] and not bad.nonneg_dim and not bad.free_dim:
        with pytest.raises(ValueError, match=message):
            sdp_solve_many([good, bad])


def test_numpy_integer_keys_solve_as_python_integers():
    def problem(ix):
        p = one_key_problem(("p", ix(0), ix(0), ix(1)), nonneg=1, free=1)
        p.constraints.append((LinExpr({("n", ix(0)): 1.0, ("f", ix(0)): 1.0}), 2.0))
        p.objective = LinExpr({("n", ix(0)): 1.0, ("p", ix(0), ix(1), ix(1)): 1.0})
        return p
    want = sdp_solve(problem(int))
    assert want.status == SdpStatus.OPTIMAL
    for ix in (np.int64, np.int32, np.intp):
        got = sdp_solve(problem(ix))
        assert got.status == want.status
        for g, w in zip(got.psd_blocks + [got.nonneg, got.free, got.y],
                        want.psd_blocks + [want.nonneg, want.free, want.y]):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("where", ["coefficient", "negative coefficient", "rhs", "infinite rhs",
                                   "objective"])
def test_non_finite_data_is_rejected_up_front(where):
    p = SdpProblem(psd_block_dims=[2], nonneg_dim=1)
    p.constraints.append(trace_constraint(2, 1.0))
    coef = {"coefficient": np.inf, "negative coefficient": -np.inf}.get(where, 1.0)
    rhs = {"rhs": np.nan, "infinite rhs": np.inf}.get(where, 0.25)
    p.constraints.append((LinExpr().add_psd_entry(0, 0, 1, 1.0).add_nonneg(0, coef), rhs))
    message = "constraint 1 has a non-finite coefficient or right-hand side"
    if where == "objective":
        p.objective = LinExpr().add_psd_entry(0, 0, 0, 1.0).add_nonneg(0, np.nan)
        message = "the objective has a non-finite coefficient"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            sdp_solve(p)


def zero_rows_problem(rows):
    """rows copies of 0 = 0 over one 2x2 block: a pure feasibility problem
    whose KKT matrix AK H AK^T is zero at every step."""
    p = SdpProblem(psd_block_dims=[2])
    p.constraints += [(LinExpr(), 0.0) for _ in range(rows)]
    return p


def test_all_zero_rows_keep_one_row():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sols = [sdp_solve(zero_rows_problem(rows)) for rows in (1, 2, 3)]
    assert (sols[0].status, sols[0].iterations) == (SdpStatus.FEASIBLE_POINT, 7)
    for rows, sol in zip((2, 3), sols[1:]):
        assert (sol.status, sol.message, sol.iterations) == (
            sols[0].status, sols[0].message, sols[0].iterations)
        assert sol.residuals == sols[0].residuals
        assert np.array_equal(sol.psd_blocks[0], sols[0].psd_blocks[0])
        assert sol.y.shape == (rows,) and sol.y[0] == sols[0].y[0] and not sol.y[1:].any()
    # an all-zero row with a nonzero right-hand side still has its certificate
    p = zero_rows_problem(2)
    p.constraints[1] = (LinExpr(), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sol = sdp_solve(p)
    assert sol.status == SdpStatus.INFEASIBLE
    assert sol.dual_ray.y @ np.array([0.0, 1.0]) == 1.0 and sol.dual_ray.max_violation() == 0.0


def test_zero_kkt_matrix_is_regularized(monkeypatch):
    # the one-row 0 = 0 problem's KKT matrix is the 1x1 zero: getrf reports
    # a zero pivot at every step, and the retry with reg = 1e-13 factors it
    import scipy.linalg.lapack as lapack
    getrf, infos = lapack.dgetrf, []

    def spy(a, *args, **kwargs):
        lu, piv, info = getrf(a, *args, **kwargs)
        infos.append(info)
        return lu, piv, info

    monkeypatch.setattr(lapack, "dgetrf", spy)
    sol = sdp_solve(zero_rows_problem(1))
    assert (sol.status, sol.iterations) == (SdpStatus.FEASIBLE_POINT, 7)
    # one zero pivot and one regularized factorization at each of six steps
    assert infos == [1, 0] * 6


def test_unfactorable_kkt_matrix_is_indeterminate(monkeypatch):
    import scipy.linalg.lapack as lapack
    getrf, calls = lapack.dgetrf, []

    def singular(a, *args, **kwargs):
        lu, piv, _ = getrf(a, *args, **kwargs)
        calls.append(None)
        return lu, piv, 1

    monkeypatch.setattr(lapack, "dgetrf", singular)
    p = SdpProblem(psd_block_dims=[2])
    p.constraints.append(trace_constraint(2, 1.0))
    p.objective = LinExpr().add_psd_entry(0, 0, 0, 1.0)
    sol = sdp_solve(p)
    assert (sol.status, sol.message, sol.iterations) == (
        SdpStatus.INDETERMINATE, "KKT factorization failed", 1)
    # five tries, the last four regularized, before the problem ends
    assert len(calls) == 5


def test_zero_dimensional_blocks_elided():
    p = SdpProblem(psd_block_dims=[0, 2], nonneg_dim=0)
    p.constraints.append((LinExpr().add_psd_entry(1, 0, 0, 1.0).add_psd_entry(1, 1, 1, 1.0), 1.0))
    sol = sdp_solve(p)
    assert sol.status == SdpStatus.FEASIBLE_POINT
    assert len(sol.psd_blocks) == 1


# ---------------------------------------------------------------------------
# SOS assembly
# ---------------------------------------------------------------------------

def test_sos_x4_plus_y4_feasible():
    basis = [(2, 0), (0, 2), (1, 1)]
    target = {(4, 0): 1.0, (0, 4): 1.0}
    prob = sos_gram_assemble(target, basis)
    sol = sdp_solve(prob)
    assert sol.status == SdpStatus.FEASIBLE_POINT
    got = gram_form_coeffs(basis, sol.psd_blocks[0])
    assert max(abs(got.get(k, 0.0) - v) for k, v in target.items()) < 1e-7


def test_sos_negative_form_infeasible():
    # x^2 y^2 - x^4 is negative at (1, 0)
    basis = [(2, 0), (0, 2), (1, 1)]
    target = {(2, 2): 1.0, (4, 0): -1.0}
    prob = sos_gram_assemble(target, basis)
    sol = sdp_solve(prob)
    assert sol.status == SdpStatus.INFEASIBLE
    assert sol.dual_ray is not None


def test_sos_structural_basis_deficiency():
    with pytest.raises(BasisDeficiencyError):
        sos_gram_assemble({(4, 0): 1.0, (0, 4): 1.0}, [(1, 1)])


def test_sos_roundtrip_50_random_grams():
    rng = np.random.RandomState(9)
    basis = monomials(3, 2)  # 6 monomials in 3 variables
    for _ in range(50):
        k = len(basis)
        g = rng.randn(k, k)
        b0 = g @ g.T
        target = gram_form_coeffs(basis, b0)
        prob = sos_gram_assemble(target, basis)
        sol = sdp_solve(prob, tol=1e-9)
        assert sol.status == SdpStatus.FEASIBLE_POINT
        got = gram_form_coeffs(basis, sol.psd_blocks[0])
        scale = max(abs(v) for v in target.values())
        err = max(abs(got.get(kk, 0.0) - target.get(kk, 0.0))
                  for kk in set(got) | set(target))
        assert err <= 1e-7 * (1 + scale)


def test_even_sos_rejects_odd_target():
    with pytest.raises(ValueError, match="odd exponent"):
        even_sos_assemble(monomials(2, 2), {(4, 0): 1.0, (3, 1): 0.5})
    with pytest.raises(ValueError, match="odd exponent"):
        even_sos_assemble(monomials(2, 2), {}, {(1, 3): {0: 1.0}}, 1)


def test_even_sos_splits_by_parity_class():
    # degree-3 basis in 5 variables: x_j^3 and x_i^2 x_j share the parity of
    # x_j (five 5x5 blocks); each x_i x_j x_k is alone (ten orthant scalars)
    basis = monomials(5, 3)
    target = {tuple(6 if t == i else 0 for t in range(5)): 1.0 for i in range(5)}
    prob, layout = even_sos_assemble(basis, target)
    assert prob.psd_block_dims == [5] * 5
    assert prob.nonneg_dim == 10
    assert len(prob.constraints) == len(monomials(5, 3))  # one row per even monomial
    assert sorted(sum(layout.blocks, []) + layout.singles) == list(range(len(basis)))
    sol = sdp_solve(prob)
    assert sol.status == SdpStatus.FEASIBLE_POINT
    gram = layout.gram(sol)
    assert gram.shape == (len(basis), len(basis))
    got = gram_form_coeffs(basis, gram)
    assert max(abs(got.get(k, 0.0) - target.get(k, 0.0)) for k in set(got) | set(target)) < 1e-7


def _lift_ray_reference(layout, ray):
    # the monomial-by-monomial statement of a block ray read back on the
    # dense rows
    sums = [[tuple(a + b for a, b in zip(m, w)) for w in layout.basis] for m in layout.basis]
    gammas = sorted({g for row in sums for g in row} | set(layout.rows), reverse=True)
    pos = {g: i for i, g in enumerate(gammas)}
    nrows = len(layout.rows)
    y = np.zeros(len(gammas) + len(ray.y) - nrows)
    y[[pos[g] for g in layout.rows]] = ray.y[:nrows]
    y[len(gammas):] = ray.y[nrows:]
    return y, -y[np.array([[pos[g] for g in row] for row in sums])]


def test_kr_answer_ray_equals_the_monomial_loop(monkeypatch):
    # cones._kr_answer's readback of a stub infeasible solve; a random ray
    # refutes nothing, so the at-scale rule only records b
    seen = []
    monkeypatch.setattr(cones, "_ray_at_scale", lambda ray, b: seen.append(b) or ray)
    rng = np.random.RandomState(5)
    n = 4
    basis = monomials(n, 3)
    # the K^(1) matrix model: free scalars on the rows and an appended row
    even = [tuple(2 * e for e in m) for m in basis]
    free_coef = {}
    for k in range(3):
        for i in rng.permutation(len(even))[:5]:
            free_coef.setdefault(even[i], {})[k] = 1.0
    target = {tuple(6 if t == i else 0 for t in range(n)): 1.0 for i in range(n)}
    for coef, dim in (({}, 0), (free_coef, 3)):
        prob, layout = even_sos_assemble(basis, target, coef, dim)
        if dim:
            prob.constraints.append((LinExpr().add_free(0, 1.0), 1.0))
        ray = sdp.DualRay(y=rng.randn(len(prob.constraints)), psd_operators=[],
                          nonneg_part=np.zeros(0), free_part=rng.randn(dim))
        sol = SdpSolution(status=SdpStatus.INFEASIBLE, psd_blocks=[], nonneg=np.zeros(0),
                          free=np.zeros(0), y=np.zeros(0), residuals=(0.0, 0.0, 0.0),
                          objective_value=None, iterations=0, dual_ray=ray)
        got = cones._kr_answer(prob, layout, sol, target, "").ray
        y, z = _lift_ray_reference(layout, ray)
        assert got.y.tobytes() == y.tobytes()
        assert got.psd_operators[0].tobytes() == z.tobytes()
        assert got.free_part.tobytes() == ray.free_part.tobytes()
        appended = [1.0] if dim else []
        assert seen.pop().tolist() == [target.get(g, 0.0) for g in monomials(n, 6)] + appended


def test_gram_rows_is_the_decreasing_order_of_the_products():
    # a basis that is not a full monomial set: 4 of the 6 quadratics in 3
    # variables, whose products miss some quartics
    basis = tuple(monomials(3, 2)[k] for k in (0, 2, 3, 5))
    products = [tuple(a + b for a, b in zip(m, w)) for m in basis for w in basis]
    at, pos = sdp.gram_rows(basis)
    assert list(at) == sorted(set(products), reverse=True)
    assert list(at.values()) == list(range(len(at)))
    assert len(at) < len(monomials(3, 4))
    assert pos.tolist() == [[at[g] for g in products[4 * i:4 * i + 4]] for i in range(4)]
    assert not pos.flags.writeable
    assert sdp.gram_rows(basis)[1] is pos
    empty_at, empty_pos = sdp.gram_rows(())
    assert empty_at == {} and empty_pos.shape == (0, 0)


def _gram_form_loop(basis, b):
    # the pair-by-pair statement of gram_form_coeffs: the upper triangle only
    out = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            gamma = tuple(x + w for x, w in zip(basis[i], basis[j]))
            out[gamma] = out.get(gamma, 0.0) + (1.0 if i == j else 2.0) * float(b[i, j])
    return {g: v for g, v in out.items() if v != 0.0}


def test_gram_form_coeffs_equals_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    for n, d in ((2, 2), (3, 2), (4, 3), (5, 3)):
        basis = monomials(n, d)
        g = rng.standard_normal((len(basis), len(basis)))
        for b in (g @ g.T, g):  # a Gram, and an asymmetric B
            got, want = gram_form_coeffs(basis, b), _gram_form_loop(basis, b)
            assert got == want
            assert all(np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes() for k in got)
    # only the upper triangle counts: a strictly lower B expands to nothing
    basis = monomials(3, 2)
    assert gram_form_coeffs(basis, np.tril(np.ones((6, 6)), -1)) == {}
    assert gram_form_coeffs([], np.zeros((0, 0))) == {}


def test_sdp_problem_json_dump(tmp_path):
    p = SdpProblem(psd_block_dims=[2], nonneg_dim=1)
    p.constraints.append((LinExpr().add_psd_entry(0, 0, 1, 2.0).add_nonneg(0, -1.0), 0.5))
    path = tmp_path / "prob.json"
    p.dump_json(path)
    d = json.loads(path.read_text())
    assert d["psd_block_dims"] == [2]
    assert d["nonneg_dim"] == 1
    assert d["constraints"][0]["rhs"] == 0.5
    assert sorted(t[0] for t in d["constraints"][0]["terms"]) == ["n", "p"]
