import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coposlab.cones import horn_matrix, quartic_target
from coposlab.numerics import QSqrt2, SymMatrix
from coposlab.quartic import (EvenQuartic, _l2_gram_float, basis_M,
                              coeff_vector, dim_M, l2_inner, poly_mul,
                              r_squared, sphere_moment, sum_of_squares_poly)
from coposlab.volume import lf_generators


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
# matrix <-> form correspondence
# ---------------------------------------------------------------------------

def test_quartic_of_identity_two_vars():
    q = quartic_target(SymMatrix([[1, 0], [0, 1]], "exact"), 0)
    assert q == {(4, 0): Fraction(1), (0, 4): Fraction(1)}


def test_quartic_of_ones_is_r_squared():
    q = quartic_target(SymMatrix([[1, 1], [1, 1]], "exact"), 0)
    s = sum_of_squares_poly(2)
    assert q == poly_mul(s, s) == r_squared(2).monomial_coeffs()


def test_quartic_horn_monomial_coefficient():
    assert quartic_target(horn_matrix(), 0)[(2, 2, 0, 0, 0)] == -2


def _quartic_target_reference(a, r):
    """(sum x_i^2)^r q_A by r products with sum x_i^2 (poly_mul), the
    expansion quartic_target made before it read one shared table."""
    n = a.n
    q = {}
    exact = a.flavor == "exact"
    for i in range(n):
        for j in range(i, n):
            v = a[i, j]
            if exact:
                if isinstance(v, QSqrt2):
                    if v.is_zero():
                        continue
                    coef = float(v) if not v.is_rational() else v.rat
                else:
                    coef = v
            else:
                coef = float(v)
            if coef == 0:
                continue
            key = tuple((2 if t == i else 0) + (2 if t == j else 0) for t in range(n))
            q[key] = coef if i == j else 2 * coef
    out = q
    for _ in range(r):
        out = poly_mul(out, sum_of_squares_poly(n))
    return out


def _sparse_symmetric(rng, n, draw):
    """A symmetric n x n list of draw() values, about a fifth of them zero."""
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw() if rng.random() >= 0.2 else 0
    return a


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_quartic_target_equals_the_poly_mul_expansion(n, r):
    # exact input gives the same Fractions; float input the same floats at
    # r <= 1, and at r = 2, where the sums run in another order, values
    # within 1e-15 of the coefficient's scale sum_k c_k |a_k|
    rng = np.random.default_rng(40 + 3 * n + r)
    for _ in range(5):
        exact = SymMatrix(_sparse_symmetric(rng, n, lambda: Fraction(int(rng.integers(-50, 51)),
                                                                     int(rng.integers(1, 9)))),
                          "exact")
        assert quartic_target(exact, r) == _quartic_target_reference(exact, r)
        arr = np.array(_sparse_symmetric(rng, n, rng.standard_normal), dtype=float)
        got = quartic_target(SymMatrix(arr), r)
        want = _quartic_target_reference(SymMatrix(arr), r)
        if r <= 1:
            assert got == want
            continue
        scale = _quartic_target_reference(SymMatrix(np.abs(arr)), r)
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-15 * scale[k] for k in want)
    assert quartic_target(horn_matrix(), r) == _quartic_target_reference(horn_matrix(), r)


def _eval_coeffs(coeffs, x):
    """Evaluate a monomial coefficient map at the point x."""
    total = Fraction(0)
    for alpha, c in coeffs.items():
        term = Fraction(c)
        for xi, e in zip(x, alpha):
            term *= xi ** e
        total += term
    return total


def test_eval_examples():
    n = 5
    qi = quartic_target(SymMatrix([[int(i == j) for j in range(n)] for i in range(n)], "exact"), 0)
    assert _eval_coeffs(qi, [Fraction(1)] * n) == n
    h = horn_matrix()
    hn = h.to_numpy()
    qh = quartic_target(h, 0)
    # independent oracle: e^T H e = sum of all entries of H
    total = sum(int(hn[i, j]) for i in range(5) for j in range(5))
    assert _eval_coeffs(qh, [Fraction(1)] * 5) == total == 5
    assert _eval_coeffs(qh, [Fraction(0)] * 5) == 0
    # q_H(x) = (x o x)^T H (x o x) at a rational point
    x = [Fraction(1), Fraction(-2, 3), Fraction(1, 2), Fraction(3), Fraction(0)]
    want = sum(int(hn[i, j]) * x[i] ** 2 * x[j] ** 2 for i in range(5) for j in range(5))
    assert _eval_coeffs(qh, x) == want
    # the SOS assembly's matrix -> form map agrees with EvenQuartic's
    assert EvenQuartic([[int(v) for v in row] for row in hn]).monomial_coeffs() == qh


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


def _exact_rank(rows) -> int:
    """Rank of a list of Fraction rows by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                fct = m[r][col] / m[rank][col]
                m[r] = [a - fct * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _r2_times_square(n: int, i: int) -> EvenQuartic:
    """r^2 x_i^2 = x_i^4 + sum_{j != i} x_i^2 x_j^2."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][i] = Fraction(1)
    for j in range(n):
        if j != i:
            rows[i][j] = rows[j][i] = Fraction(1, 2)
    return EvenQuartic(tuple(map(tuple, rows)))


@lru_cache(maxsize=None)
def _gram_schmidt_with_l2_inner(n: int) -> tuple:
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
    return tuple(out)


def _in_span_of_M(f: EvenQuartic) -> bool:
    """f equals its L2 projection onto the exact basis of M."""
    proj = f.scale(0)
    for b, n2 in _gram_schmidt_with_l2_inner(f.n):
        proj = proj - b.scale(-l2_inner(f, b) / n2)
    return proj == f


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
        rank = _exact_rank(rows)
        assert rank == n
        # hence dim(H4 cap Q) = dim Q - n = n(n-1)/2
        assert n * (n + 1) // 2 - rank == n * (n - 1) // 2
        if n > 5:
            continue
        # the Laplacian rows span the same space as the L2 pairings with
        # r^2 x_i^2: harmonic quartics are L2-orthogonal to r^2 * quadratics
        l2_rows = []
        for i in range(n):
            g = _r2_times_square(n, i)
            row = []
            for (p, q) in keys:
                unit = [[Fraction(0)] * n for _ in range(n)]
                unit[p][q] = unit[q][p] = Fraction(1)
                row.append(l2_inner(EvenQuartic(tuple(map(tuple, unit))), g))
            l2_rows.append(row)
        assert _exact_rank(l2_rows) == n
        assert _exact_rank(rows + l2_rows) == n


def test_classify_r2():
    # r^2 has sphere average one (in L), and it is L2-orthogonal to all of M
    n = 5
    r2 = r_squared(n)
    assert r2.sphere_average() == 1
    assert all(l2_inner(r2, b) == 0 for b, _ in _gram_schmidt_with_l2_inner(n))
    assert not _in_span_of_M(r2)


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
    # harmonic: L2-orthogonal to every r^2 x_i^2, hence to r^4 as well
    assert all(l2_inner(f, _r2_times_square(n, i)) == 0 for i in range(n))
    assert f.sphere_average() == 0
    assert _in_span_of_M(f)


def test_classify_extreme_nn_point_in_M():
    # the NN simplex vertices of vrad_nn_exact, n(n+2)/3 x_i^4 and
    # n(n+2) x_i^2 x_j^2, have sphere average one: minus r^2 they lie in M
    for n in (3, 5):
        c = Fraction(n * (n + 2))
        diag = [[Fraction(0)] * n for _ in range(n)]
        diag[0][0] = c / 3
        off = [[Fraction(0)] * n for _ in range(n)]
        off[0][1] = off[1][0] = c / 2
        for vertex in (diag, off):
            assert (EvenQuartic(vertex) - r_squared(n)).sphere_average() == 0


# ---------------------------------------------------------------------------
# fourth powers of linear forms (the lf generators)
# ---------------------------------------------------------------------------

def test_v4_project_axis():
    # pr_Q((v.x)^4) has diagonal v_i^4 and off-diagonal entries 3 v_i^2 v_j^2
    gens = lf_generators(2, 3, seed=0)
    assert np.array_equal(gens[0], np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(gens[1], np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_v4_project_diagonal_direction():
    gens = lf_generators(2, 3, seed=0)
    want = np.array([[0.25, 0.75], [0.75, 0.25]])  # (x^4 + 6x^2y^2 + y^4)/4
    assert np.abs(gens[2] - want).max() < 1e-15


# ---------------------------------------------------------------------------
# basis of M
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_l2_gram_float_entries_are_the_rounded_sphere_moments(n):
    # basis_M and every vrad estimate read this table, so its entries stay
    # the correctly rounded exact moments
    keys, gam = _l2_gram_float(n)
    assert not gam.flags.writeable and gam.shape == (len(keys), len(keys))
    for p, (i, j) in enumerate(keys):
        for q, (k, l) in enumerate(keys):
            alpha = [0] * n
            for idx in (i, j, k, l):
                alpha[idx] += 2
            assert gam[p, q] == float(sphere_moment(tuple(alpha)))


def test_basis_M_count_and_orthonormality():
    # one pass of Cholesky QR misses the 3e-14 bound from n = 7 on
    for n in range(3, 13):
        basis = basis_M(n)
        assert basis.shape == (dim_M(n), n, n)
        _, gam = _l2_gram_float(n)
        t = np.array([coeff_vector(b, n) for b in basis])
        assert np.abs(t @ gam @ t.T - np.eye(dim_M(n))).max() < 3e-14
        # zero sphere average: each b pairs to zero with r^2
        assert np.abs(t @ gam @ coeff_vector(np.ones((n, n)), n)).max() < 3e-14


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_M_matches_gram_schmidt_with_l2_inner(n):
    # the float Cholesky QR keeps the pivot order, so it is the exact basis
    # up to roundoff
    want = np.array([b.to_numpy() / math.sqrt(n2) for b, n2 in _gram_schmidt_with_l2_inner(n)])
    assert np.abs(basis_M(n) - want).max() <= 1e-13


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

    # pr_Q((x_i + x_j)^4) = x_i^4 + 6 x_i^2 x_j^2 + x_j^4
    rr = [[Fraction(0)] * n for _ in range(n)]
    rr[i][i] = rr[j][j] = Fraction(1)
    rr[i][j] = rr[j][i] = Fraction(3)
    p1 = EvenQuartic(rr).scale(c / 12) - r2
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
