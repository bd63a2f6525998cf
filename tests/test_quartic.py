import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coposlab.numerics import SymMatrix
from coposlab.quartic import (EvenQuartic, GeneralQuartic, apply_T, basis_M,
                              classify_subspaces, diff_inner, dim_M,
                              group_action, harmonic_decompose, l2_inner,
                              linear_form_power4, matrix_of_quartic, monomials,
                              project_pr_Q, quartic_of_matrix, r_squared,
                              sphere_moment, v4_project)


def rand_even_quartic(rng, n, lo=-8, hi=8, den=4) -> EvenQuartic:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    return EvenQuartic(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

def test_sphere_moment_quartic_values():
    # int x1^4 = 3/(n(n+2)), int x1^2 x2^2 = 1/(n(n+2))
    assert sphere_moment((4, 0, 0)) == Fraction(1, 5)
    for n in range(3, 11):
        a4 = tuple([4] + [0] * (n - 1))
        a22 = tuple([2, 2] + [0] * (n - 2))
        assert sphere_moment(a4) == Fraction(3, n * (n + 2))
        assert sphere_moment(a22) == Fraction(1, n * (n + 2))


def test_sphere_moment_degree8_example():
    assert sphere_moment((8, 0, 0, 0, 0)) == Fraction(1, 33)  # 105/(5*7*9*11)


def test_sphere_moment_odd_exponent_vanishes():
    assert sphere_moment((3, 1, 0)) == 0
    assert sphere_moment((1, 1, 1, 1)) == 0


def _gamma_moment_oracle(alpha):
    """Gaussian-moment identity via symbolic Gamma functions (sympy)."""
    import sympy
    n = len(alpha)
    if any(e % 2 for e in alpha):
        return Fraction(0)
    b = sum(alpha) // 2
    num = sympy.Integer(1)
    for e in alpha:
        num *= sympy.gamma(sympy.Rational(e, 2) + sympy.Rational(1, 2)) / sympy.gamma(sympy.Rational(1, 2))
    val = num * sympy.gamma(sympy.Rational(n, 2)) / sympy.gamma(sympy.Rational(n, 2) + b)
    val = sympy.nsimplify(sympy.simplify(val), rational=True)
    return Fraction(int(val.p), int(val.q))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.lists(st.integers(0, 3), min_size=2, max_size=4))
def test_sphere_moment_matches_gamma_oracle(n, halves):
    alpha = [2 * h for h in halves[:n]] + [0] * max(0, n - len(halves))
    alpha = tuple(alpha[:n])
    assert sphere_moment(alpha) == _gamma_moment_oracle(alpha)


@pytest.mark.parametrize("n", [3, 5])
def test_sphere_moment_monte_carlo_degree_4_and_8(n):
    rng = np.random.RandomState(2024)
    pts = rng.standard_normal((10 ** 6, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    partitions = {
        4: [(4,), (2, 2)],
        8: [(8,), (6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)],
    }
    for deg, parts in partitions.items():
        for part in parts:
            if len(part) > n:
                continue
            alpha = tuple(list(part) + [0] * (n - len(part)))
            vals = np.ones(len(pts))
            for i, e in enumerate(alpha):
                if e:
                    vals = vals * pts[:, i] ** e
            mean = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(pts))
            exact = float(sphere_moment(alpha))
            assert abs(mean - exact) <= 3.0 * se, (alpha, mean, exact, se)


# ---------------------------------------------------------------------------
# matrix <-> form correspondence and evaluation
# ---------------------------------------------------------------------------

def test_quartic_of_identity_two_vars():
    f = quartic_of_matrix(SymMatrix([[1, 0], [0, 1]], "exact"))
    assert f.monomial_coeffs() == {(4, 0): Fraction(1), (0, 4): Fraction(1)}


def test_quartic_of_ones_is_r_squared():
    f = quartic_of_matrix(SymMatrix([[1, 1], [1, 1]], "exact"))
    assert f == r_squared(2)
    # (x^2+y^2)^2 at a few rational points
    for x, y in [(1, 2), (3, -1)]:
        assert f.eval((Fraction(x), Fraction(y))) == (x * x + y * y) ** 2


def test_quartic_horn_monomial_coefficient():
    from coposlab.cones import horn_matrix
    q = quartic_of_matrix(horn_matrix())
    assert q.monomial_coeffs()[(2, 2, 0, 0, 0)] == -2


def test_eval_examples():
    n = 5
    qi = quartic_of_matrix(SymMatrix.identity(n, "exact"))
    assert qi.eval([Fraction(1)] * n) == n
    from coposlab.cones import horn_matrix
    h = horn_matrix()
    qh = quartic_of_matrix(h)
    # independent oracle: e^T H e = sum of all entries of H
    total = sum(int(h.to_numpy()[i, j]) for i in range(5) for j in range(5))
    assert qh.eval([Fraction(1)] * 5) == total == 5
    assert qh.eval([Fraction(0)] * 5) == 0
    assert quartic_of_matrix(matrix_of_quartic(qh)) == qh  # round trip


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_l2_inner_r2_normalized():
    for n in (2, 5):
        assert l2_inner(r_squared(n), r_squared(n)) == 1


def test_l2_inner_pure_quartics():
    f = EvenQuartic(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    g = EvenQuartic(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
    # n = 5 versions
    rows_f = [[Fraction(0)] * 5 for _ in range(5)]
    rows_f[0][0] = Fraction(1)
    rows_g = [[Fraction(0)] * 5 for _ in range(5)]
    rows_g[1][1] = Fraction(1)
    f5 = EvenQuartic(tuple(map(tuple, rows_f)))
    g5 = EvenQuartic(tuple(map(tuple, rows_g)))
    assert l2_inner(f5, g5) == Fraction(9, 3465) == Fraction(3, 1155)


def test_l2_inner_against_r2_is_sphere_average():
    rng = random.Random(5)
    for n in (3, 5):
        f = rand_even_quartic(rng, n)
        assert l2_inner(f, r_squared(n)) == f.sphere_average()


def test_diff_inner_pure_power():
    f = GeneralQuartic(2, {(4, 0): Fraction(1)})
    assert diff_inner(f, f) == 24


def test_diff_inner_monomial_pairings():
    rng = random.Random(11)
    n = 4
    f = rand_even_quartic(rng, n)
    a = f.a
    for k in range(n):
        mono = GeneralQuartic(n, {tuple(4 if t == k else 0 for t in range(n)): Fraction(1)})
        assert diff_inner(f, mono) == 24 * a[k][k]
    for k in range(n):
        for l in range(k + 1, n):
            key = tuple((2 if t == k else 0) + (2 if t == l else 0) for t in range(n))
            mono = GeneralQuartic(n, {key: Fraction(1)})
            assert diff_inner(f, mono) == 8 * a[k][l]


def test_diff_inner_v4_reproduces_evaluation():
    rng = random.Random(23)
    n = 5
    for _ in range(20):
        f = rand_even_quartic(rng, n)
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        assert diff_inner(f, v4_project(v)) == 24 * f.eval(v)


def _sympy_diff_oracle(f: EvenQuartic, g: EvenQuartic) -> Fraction:
    """Apolar pairing via symbolic fourth derivatives."""
    import sympy
    n = f.n
    xs = sympy.symbols(f"x0:{n}")
    gf = sum(sympy.Rational(c.numerator, c.denominator)
             * sympy.prod([xs[i] ** e for i, e in enumerate(k)])
             for k, c in g.monomial_coeffs().items())
    total = sympy.Integer(0)
    for k, c in f.monomial_coeffs().items():
        d = gf
        for i, e in enumerate(k):
            for _ in range(e):
                d = sympy.diff(d, xs[i])
        total += sympy.Rational(c.numerator, c.denominator) * d
    total = sympy.nsimplify(total)
    return Fraction(int(sympy.Integer(total.p)), int(sympy.Integer(total.q)))


def test_diff_inner_matches_symbolic_fourth_derivatives():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice([2, 3])
        f = rand_even_quartic(rng, n, lo=-4, hi=4, den=3)
        g = rand_even_quartic(rng, n, lo=-4, hi=4, den=3)
        assert diff_inner(f, g) == _sympy_diff_oracle(f, g)


def test_diff_inner_closed_form_on_matrices():
    rng = random.Random(37)
    n = 5
    f = rand_even_quartic(rng, n)
    g = rand_even_quartic(rng, n)
    a, b = f.a, g.a
    want = 24 * sum(a[k][k] * b[k][k] for k in range(n)) + \
        16 * sum(a[k][l] * b[k][l] for k in range(n) for l in range(k + 1, n))
    assert diff_inner(f, g) == want


def test_nn_selfduality_in_apolar_metric():
    rng = random.Random(41)
    n = 4
    for _ in range(25):
        f = rand_even_quartic(rng, n, lo=0, hi=8)
        g = rand_even_quartic(rng, n, lo=0, hi=8)
        assert diff_inner(f, g) >= 0
    f = rand_even_quartic(rng, n, lo=0, hi=8)
    rows = [list(r) for r in f.a]
    rows[0][1] = rows[1][0] = Fraction(-1)
    f = EvenQuartic(tuple(map(tuple, rows)))
    key = (2, 2, 0, 0)
    mono = GeneralQuartic(n, {key: Fraction(1)})
    assert diff_inner(f, mono) < 0


# ---------------------------------------------------------------------------
# projection pr_Q
# ---------------------------------------------------------------------------

def test_pr_q_binomial_expansion():
    g = linear_form_power4([Fraction(1), Fraction(1)])
    f = project_pr_Q(g)
    assert f.monomial_coeffs() == {(4, 0): Fraction(1), (2, 2): Fraction(6),
                                   (0, 4): Fraction(1)}


def test_pr_q_idempotent_on_even_quartics():
    rng = random.Random(3)
    f = rand_even_quartic(rng, 4)
    assert project_pr_Q(f.to_general()) == f


def test_pr_q_kills_odd_monomials():
    g = GeneralQuartic(2, {(3, 1): Fraction(1)})
    assert project_pr_Q(g).is_zero()


def test_pr_q_is_l2_orthogonal_projection():
    # <f - pr(f), q> = 0 for every even quartic q
    rng = random.Random(8)
    n = 3
    g = GeneralQuartic(n, {(3, 1, 0): Fraction(2), (2, 1, 1): Fraction(-1),
                           (4, 0, 0): Fraction(1), (2, 2, 0): Fraction(5, 2)})
    p = project_pr_Q(g)
    for _ in range(10):
        q = rand_even_quartic(rng, n)
        lhs = l2_inner(g, q)
        rhs = l2_inner(p, q)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# harmonic decomposition and T
# ---------------------------------------------------------------------------

def test_harmonic_decompose_r2():
    parts = harmonic_decompose(r_squared(4))
    assert parts.c0 == 1
    assert all(c == 0 for c in parts.h2)
    assert parts.h4.is_zero()


def test_harmonic_decompose_reconstructs_exactly():
    rng = random.Random(17)
    for n in (2, 3, 5):
        for _ in range(10):
            f = rand_even_quartic(rng, n)
            parts = harmonic_decompose(f)
            assert parts.reconstruct() == f
            assert sum(parts.h2) == 0  # traceless quadratic part
            in_l, in_m, in_h4 = classify_subspaces(parts.h4)
            assert in_h4 and in_m
            assert parts.h4.sphere_average() == 0


def test_harmonic_x4_n2_example():
    rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    f = EvenQuartic(rows)
    parts = harmonic_decompose(f)
    assert parts.reconstruct() == f


def test_apply_T_fixes_r2_direction():
    for n in (3, 5, 7):
        tf = apply_T(r_squared(n))
        assert tf == r_squared(n).scale(Fraction(3, n * (n + 2)))


def test_apolarity_bridge_exact():
    rng = random.Random(19)
    n = 5
    for _ in range(20):
        f = rand_even_quartic(rng, n)
        g = rand_even_quartic(rng, n)
        assert diff_inner(apply_T(f), g) == 24 * l2_inner(f, g)


def test_T_injective_on_random_sample():
    rng = random.Random(29)
    for _ in range(20):
        f = rand_even_quartic(rng, 4)
        if f.is_zero():
            continue
        assert not apply_T(f).is_zero()


# ---------------------------------------------------------------------------
# subspace classification
# ---------------------------------------------------------------------------

def test_classify_r2():
    in_l, in_m, _ = classify_subspaces(r_squared(5))
    assert in_l and not in_m


def test_classify_extreme_nn_point_in_M():
    n = 5
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = Fraction(n * (n + 2), 3)
    p = EvenQuartic(tuple(map(tuple, rows))) - r_squared(n)
    _, in_m, _ = classify_subspaces(p)
    assert in_m


def test_classify_h4_construction():
    rng = random.Random(43)
    n = 5
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    for i in range(n):
        rows[i][i] = -Fraction(1, 3) * sum(rows[i][j] for j in range(n) if j != i)
    f = EvenQuartic(tuple(map(tuple, rows)))
    in_l, in_m, in_h4 = classify_subspaces(f)
    assert in_h4 and in_m


def test_h4_constraint_rank_is_n():
    # dim(H4 cap Q) = n(n+1)/2 - n, i.e. the constraint system has full rank n
    for n in range(3, 9):
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        rows = []
        for i in range(n):
            row = []
            for (p, q) in keys:
                if p == q == i:
                    c = Fraction(3)
                elif p == i or q == i:
                    c = Fraction(1)
                else:
                    c = Fraction(0)
                row.append(c)
            rows.append(row)
        # exact rank by Gaussian elimination
        m = [r[:] for r in rows]
        rank = 0
        for col in range(len(keys)):
            piv = next((r for r in range(rank, n) if m[r][col] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = 1 / m[rank][col]
            for r in range(n):
                if r != rank and m[r][col] != 0:
                    fct = m[r][col] * inv
                    for c in range(col, len(keys)):
                        m[r][c] -= fct * m[rank][c]
            rank += 1
        assert rank == n
        # hence dim(H4 cap Q) = dim Q - n = n(n-1)/2
        assert n * (n + 1) // 2 - rank == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# basis of M
# ---------------------------------------------------------------------------

def test_basis_M_count_and_orthonormality():
    for n in (3, 5):
        basis = basis_M(n)
        assert len(basis) == dim_M(n)
        from coposlab.quartic import l2_inner_float
        for i, bi in enumerate(basis):
            for j in range(i, len(basis)):
                val = l2_inner_float(bi.to_numpy(), basis[j].to_numpy())
                want = 1.0 if i == j else 0.0
                assert abs(val - want) < 1e-12
            _, in_m, _ = classify_subspaces(bi, tol=1e-10)
            assert in_m


def _gram_schmidt_with_l2_inner(n: int) -> list:
    """Reference: Gram-Schmidt on EvenQuartic objects, pairings by `l2_inner`."""
    pivots = []
    for i in range(n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        rows[i][i] = Fraction(1)
        pivots.append(EvenQuartic(tuple(map(tuple, rows))))
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[Fraction(0)] * n for _ in range(n)]
            rows[i][j] = rows[j][i] = Fraction(1, 2)  # the monomial x_i^2 x_j^2
            pivots.append(EvenQuartic(tuple(map(tuple, rows))))
    r2 = r_squared(n)
    out = []
    for mono in pivots:
        v = mono - r2.scale(mono.sphere_average())
        for b, n2 in out:
            v = v - b.scale(l2_inner(v, b) / n2)
        if not v.is_zero():
            out.append((v, l2_inner(v, v)))
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_basis_M_exact_equals_gram_schmidt_with_l2_inner(n):
    from coposlab.quartic import _basis_M_exact
    assert list(_basis_M_exact(n)) == _gram_schmidt_with_l2_inner(n)


# ---------------------------------------------------------------------------
# fourth powers of linear forms
# ---------------------------------------------------------------------------

def test_v4_project_axis():
    f = v4_project([Fraction(1), Fraction(0)])
    assert f.monomial_coeffs() == {(4, 0): Fraction(1)}


def test_v4_project_diagonal_direction():
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    f = v4_project(list(v))
    want = np.array([[0.25, 0.75], [0.75, 0.25]])  # (x^4 + 6x^2y^2 + y^4)/4
    assert np.abs(f.to_numpy() - want).max() < 1e-14


def test_v4_project_agrees_with_expansion():
    rng = random.Random(51)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        assert v4_project(v) == project_pr_Q(linear_form_power4(v))


# ---------------------------------------------------------------------------
# orthogonal substitution action
# ---------------------------------------------------------------------------

def test_group_action_fixes_r2():
    rng = np.random.RandomState(61)
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    f = EvenQuartic(np.ones((n, n)))
    out = group_action(q, f)
    assert np.abs(out.to_numpy() - np.ones((n, n))).max() < 1e-12


def test_group_action_permutation_exact():
    rng = random.Random(67)
    n = 4
    f = rand_even_quartic(rng, n)
    perm = [2, 0, 3, 1]
    o = [[Fraction(1) if perm[j] == i else Fraction(0) for j in range(n)] for i in range(n)]
    out = group_action(o, f)
    # (L_O f) coefficient matrix is the permuted coefficient matrix
    for i in range(n):
        for j in range(n):
            assert out.a[i][j] == f.a[perm[i]][perm[j]]


def test_group_action_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        group_action(np.array([[1.0, 0.1], [0.0, 1.0]]), EvenQuartic(np.eye(2)))


def test_substituted_fourth_power_projects_to_v4_of_rotated_vector():
    # pr_Q((v . Ox)^4) = v4(O^T v): substitution before projection
    rng = random.Random(71)
    n = 3
    o = [[Fraction(3, 5), Fraction(-4, 5), Fraction(0)],
         [Fraction(4, 5), Fraction(3, 5), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    for _ in range(5):
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        otv = [sum(o[i][k] * v[i] for i in range(n)) for k in range(n)]
        lhs = project_pr_Q(linear_form_power4(otv))
        assert lhs == v4_project(otv)
        # and the substituted expansion agrees: (v . Ox)^4 has linear form O^T v
        w = [sum(v[i] * o[i][k] for i in range(n)) for k in range(n)]
        assert project_pr_Q(linear_form_power4(w)) == lhs


def test_group_action_on_v4_commutes_for_signed_permutations():
    # after projection, only parity-preserving maps commute with pr_Q;
    # signed permutations do, and the compressed action then matches the
    # vector-level action exactly
    rng = np.random.RandomState(71)
    n = 4
    for _ in range(10):
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        o = np.zeros((n, n))
        for j in range(n):
            o[perm[j], j] = signs[j]
        v = rng.standard_normal(n)
        lhs = group_action(o, v4_project(list(v)))
        rhs = v4_project(list(o.T @ v))
        assert np.abs(lhs.to_numpy() - rhs.to_numpy()).max() < 1e-12 * (1 + np.abs(v).max() ** 4)


def test_group_action_after_projection_mixes_parity_for_generic_rotations():
    # exact witness that pr(U_O(pr(v^4))) differs from pr(U_O(v^4)) in general
    o = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    v = [Fraction(1), Fraction(2)]
    otv = [o[0][0] * v[0] + o[1][0] * v[1], o[0][1] * v[0] + o[1][1] * v[1]]
    assert group_action(o, v4_project(v)) != v4_project(otv)


def test_group_action_exact_rotation_oracle():
    # rational rotation by the (3/5, 4/5) Pythagorean block: compare against a
    # direct expansion of f(Ox) followed by projection
    from coposlab.quartic import poly_mul
    n = 3
    o = [[Fraction(3, 5), Fraction(-4, 5), Fraction(0)],
         [Fraction(4, 5), Fraction(3, 5), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    rng = random.Random(73)
    f = rand_even_quartic(rng, n)
    # oracle: substitute y_i = sum_k O_ik x_k, expand monomials, project
    lin = []
    for i in range(n):
        d = {}
        for k in range(n):
            if o[i][k] != 0:
                key = tuple(1 if t == k else 0 for t in range(n))
                d[key] = o[i][k]
        lin.append(d)
    total = {}
    for i in range(n):
        for j in range(n):
            c = f.a[i][j]
            if c == 0:
                continue
            prod = poly_mul(poly_mul(lin[i], lin[i]), poly_mul(lin[j], lin[j]))
            for k, v in prod.items():
                total[k] = total.get(k, Fraction(0)) + c * v
    oracle = project_pr_Q(GeneralQuartic(n, total))
    assert group_action(o, f) == oracle


# ---------------------------------------------------------------------------
# the two exact dilation identities
# ---------------------------------------------------------------------------

def _identity_parts(n, i, j):
    r2 = r_squared(n)
    c = Fraction(n * (n + 2))
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = rows[j][i] = c / 2
    lhs = EvenQuartic(tuple(map(tuple, rows))) - r2

    def axis4(k, coef):
        rr = [[Fraction(0)] * n for _ in range(n)]
        rr[k][k] = coef
        return EvenQuartic(tuple(map(tuple, rr)))

    v = [Fraction(1) if t in (i, j) else Fraction(0) for t in range(n)]
    p1 = v4_project(v).scale(c / 12) - r2
    p2 = axis4(i, c / 3) - r2
    p3 = axis4(j, c / 3) - r2
    rr = [[Fraction(0)] * n for _ in range(n)]
    rr[i][i] = rr[j][j] = c / 8
    rr[i][j] = rr[j][i] = c / 8
    p4 = EvenQuartic(tuple(map(tuple, rr))) - r2  # (n(n+2)/8)(x_i^2+x_j^2)^2 - r^2
    return lhs, p1, p2, p3, p4


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dilation_identity_constant_two(n):
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs, p1, p2, p3, _ = _identity_parts(n, i, j)
            rhs = p1.scale(Fraction(2)) - p2.scale(Fraction(1, 2)) - p3.scale(Fraction(1, 2))
            assert lhs == rhs


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dilation_identity_constant_seven(n):
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs, _, p2, p3, p4 = _identity_parts(n, i, j)
            rhs = p4.scale(Fraction(4)) - p2.scale(Fraction(3, 2)) - p3.scale(Fraction(3, 2))
            assert lhs == rhs
