import json
import warnings

import numpy as np
import pytest

from coposlab import sdp
from coposlab.quartic import monomials
from coposlab.sdp import (BasisDeficiencyError, LinExpr, SdpProblem,
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
        k = w.shape[0] * (w.shape[0] + 1) // 2
        return np.full((k, k), np.inf)

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


def test_stack_rejects_mixed_layouts():
    p2 = SdpProblem(psd_block_dims=[2])
    p2.constraints.append(trace_constraint(2, 1.0))
    p3 = SdpProblem(psd_block_dims=[3])
    p3.constraints.append(trace_constraint(3, 1.0))
    with pytest.raises(ValueError, match="layout"):
        sdp_solve_many([p2, p3])
    two_rows = SdpProblem(psd_block_dims=[2])
    two_rows.constraints += [trace_constraint(2, 1.0),
                             (LinExpr().add_psd_entry(0, 0, 1, 1.0), 0.25)]
    with pytest.raises(ValueError, match="rows"):
        sdp_solve_many([p2, two_rows])
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


def test_tolerance_validation():
    p = SdpProblem(psd_block_dims=[2])
    p.constraints.append(trace_constraint(2, 1.0))
    with pytest.raises(ValueError):
        sdp_solve(p, tol=1e-3)
    with pytest.raises(ValueError):
        sdp_solve(p, tol=0.0)


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
