import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coposlab.numerics import (CholeskyFactor, NegVector, PivotList, QSqrt2,
                               Refutation, SymMatrix, exact_ldl_psd,
                               matrix_dumps, matrix_loads, psd_certificate,
                               sym_eigen, MatrixFormatError)

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=50)


# ---------------------------------------------------------------------------
# QSqrt2 scalar arithmetic
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(fracs, fracs, fracs, fracs)
def test_qsqrt2_ring_ops_match_floats(a, b, c, d):
    x = QSqrt2(a, b)
    y = QSqrt2(c, d)
    assert abs(float(x + y) - (float(x) + float(y))) < 1e-9 * (1 + abs(float(x)) + abs(float(y)))
    assert abs(float(x * y) - float(x) * float(y)) < 1e-6 * (1 + abs(float(x) * float(y)))
    if not y.is_zero():
        z = x / y
        assert (z * y - x).is_zero()


def test_qsqrt2_sign_against_200_digit_evaluation():
    import mpmath
    mpmath.mp.dps = 200
    s2 = mpmath.sqrt(2)
    rng = random.Random(12345)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        x = QSqrt2(a, b)
        hp = mpmath.mpf(a.numerator) / a.denominator + (mpmath.mpf(b.numerator) / b.denominator) * s2
        want = 0 if hp == 0 else (1 if hp > 0 else -1)
        assert x.sign() == want


def test_qsqrt2_sign_adversarial():
    # continued-fraction convergents straddle sqrt2: 239/169 < sqrt2 < 99/70
    assert QSqrt2(Fraction(-239, 169), Fraction(1)).sign() > 0
    assert QSqrt2(Fraction(-99, 70), Fraction(1)).sign() < 0
    assert QSqrt2(Fraction(99, 70), Fraction(-1)).sign() > 0
    assert QSqrt2(Fraction(0), Fraction(0)).sign() == 0
    assert QSqrt2(Fraction(0), Fraction(-3)).sign() < 0


def test_qsqrt2_equality_coerces_rationals():
    assert QSqrt2.of(Fraction(3, 2)) == Fraction(3, 2)
    assert QSqrt2(Fraction(0), Fraction(1)) != 1
    assert QSqrt2.sqrt2() * QSqrt2.sqrt2() == 2


# ---------------------------------------------------------------------------
# symmetric eigensolver
# ---------------------------------------------------------------------------

def test_sym_eigen_identity():
    w, v = sym_eigen(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_sym_eigen_diagonal():
    w, v = sym_eigen(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(w, [1, 2, 3])
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def _charpoly_exact(m):
    """Characteristic polynomial coefficients by exact expansion (Leibniz)."""
    import itertools
    n = len(m)
    # det(lambda I - M) as a polynomial: expand over permutations with
    # entries (lambda delta_ij - M_ij), each a linear polynomial in lambda
    def poly_mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    total = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # permutation sign by cycle counting
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = [Fraction(sign)]
        for i in range(n):
            entry = [-Fraction(m[i][perm[i]])] + ([Fraction(1)] if perm[i] == i else [])
            term = poly_mul(term, entry)
        for k, c in enumerate(term):
            total[k] += c
    return total  # total[k] = coefficient of lambda^k


def _poly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        q = a[-1] / b[-1]
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    return out, a


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = _poly_divmod(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def _squarefree(coeffs):
    deriv = [coeffs[k] * k for k in range(1, len(coeffs))]
    g = _poly_gcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    q, _ = _poly_divmod(coeffs, g)
    return q


def _smallest_root(coeffs, lo, hi):
    """Bisection root isolation of the smallest real root in [lo, hi].

    Works on the square-free part, so roots of even multiplicity (the Horn
    spectrum has double eigenvalues) still produce sign changes.
    """
    coeffs = _squarefree(coeffs)

    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    # scan for the first sign change on a fine grid
    steps = 4000
    prev = ev(lo)
    a, b = lo, hi
    found = False
    for k in range(1, steps + 1):
        x = lo + (hi - lo) * Fraction(k, steps)
        cur = ev(x)
        if prev == 0:
            return float(lo + (hi - lo) * Fraction(k - 1, steps))
        if (prev < 0) != (cur < 0):
            a = lo + (hi - lo) * Fraction(k - 1, steps)
            b = x
            found = True
            break
        prev = cur
    assert found, "no sign change in scan"
    for _ in range(80):
        mid = (a + b) / 2
        if (ev(a) < 0) != (ev(mid) < 0):
            b = mid
        else:
            a = mid
    return float((a + b) / 2)


def test_sym_eigen_horn_smallest_eigenvalue_vs_charpoly_oracle():
    from coposlab.cones import horn_matrix
    h = horn_matrix().to_numpy()
    coeffs = _charpoly_exact([[int(x) for x in row] for row in h])
    oracle = _smallest_root(coeffs, Fraction(-6), Fraction(6))
    w, _ = sym_eigen(h)
    assert w[0] < 0
    assert abs(w[0] - oracle) < 1e-10
    # the exact value is 1 - sqrt(5)
    assert abs(oracle - (1 - 5 ** 0.5)) < 1e-9


def test_sym_eigen_reconstruction_200_random():
    rng = np.random.RandomState(7)
    for _ in range(200):
        a = rng.randn(5, 5)
        a = 0.5 * (a + a.T)
        w, v = sym_eigen(a)
        rel = np.linalg.norm(v @ np.diag(w) @ v.T - a) / max(np.linalg.norm(a), 1e-30)
        assert rel < 1e-9
        assert np.abs(v.T @ v - np.eye(5)).max() < 1e-12
        assert all(w[i] <= w[i + 1] + 1e-15 for i in range(4))


def test_sym_eigen_rejects_nonfinite():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("kind", ["random", "identity-plus-ones"])
def test_sym_eigen_contract_at_certify_sizes(kind, n):
    if kind == "random":
        a = np.random.RandomState(n).randn(n, n)
        a = 0.5 * (a + a.T)
    else:
        a = np.eye(n) + np.ones((n, n))  # eigenvalue 1 repeated n - 1 times
    w, v = sym_eigen(SymMatrix(a))
    assert np.abs(v @ np.diag(w) @ v.T - a).max() <= 1e-12 * np.abs(a).max()
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12
    assert np.all(np.diff(w) >= 0)
    if kind == "identity-plus-ones":
        assert np.allclose(w, [1.0] * (n - 1) + [n + 1.0], rtol=0, atol=1e-12)


def test_sym_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        sym_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError):
        psd_certificate(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# float PSD certificate
# ---------------------------------------------------------------------------

def test_psd_certificate_identity():
    cert = psd_certificate(np.eye(4), 1e-9)
    assert isinstance(cert, CholeskyFactor)
    assert np.allclose(cert.L, np.eye(4))


def test_psd_certificate_indefinite_two_by_two():
    cert = psd_certificate(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-9)
    assert isinstance(cert, NegVector)
    assert cert.value < -1e-9
    # the witness is re-checkable
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert abs(cert.v @ a @ cert.v - cert.value) < 1e-12


def test_psd_certificate_reference_a5():
    from coposlab.exceptional import load_reference_a5
    a5 = load_reference_a5()
    cert = psd_certificate(a5, 1e-9)
    assert isinstance(cert, CholeskyFactor)
    assert cert.residual(a5.to_numpy()) <= 1e-9


def test_psd_certificate_singular_psd():
    g = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    cert = psd_certificate(g, 1e-10)
    assert isinstance(cert, CholeskyFactor)
    assert cert.residual(g) <= 1e-10


def test_psd_certificate_mixed_sign_rank_one():
    rng = np.random.RandomState(3)
    for n in range(3, 41):
        v = rng.randn(n)
        a = np.outer(v, v)
        cert = psd_certificate(a, 1e-9)
        assert isinstance(cert, CholeskyFactor), n
        assert cert.residual(a) <= 1e-9 * (1.0 + np.abs(a).max()), n


@pytest.mark.parametrize("n", [5, 20, 40])
def test_psd_certificate_indefinite_witness(n):
    rng = np.random.RandomState(100 + n)
    g = rng.randn(n, n)
    a = g @ g.T - 2.0 * np.outer(g[:, 0], g[:, 0])  # one negative eigenvalue
    cert = psd_certificate(a, 1e-9)
    assert isinstance(cert, NegVector)
    assert cert.value == cert.v @ a @ cert.v
    assert cert.value < -1e-9


# ---------------------------------------------------------------------------
# exact LDL^T
# ---------------------------------------------------------------------------

def test_exact_ldl_zero_matrix():
    m = SymMatrix([[0, 0], [0, 0]], "exact")
    res = exact_ldl_psd(m)
    assert isinstance(res, PivotList)
    assert all(p.is_zero() for p in res.pivots)


def test_exact_ldl_diag_refutation():
    m = SymMatrix([[1, 0], [0, -1]], "exact")
    res = exact_ldl_psd(m)
    assert isinstance(res, Refutation)
    assert res.check(m)


def test_exact_ldl_zero_pivot_nonzero_row():
    m = SymMatrix([[0, 1], [1, 0]], "exact")
    res = exact_ldl_psd(m)
    assert isinstance(res, Refutation)
    assert res.check(m)


def test_exact_ldl_reference_gram_psd():
    from coposlab.exceptional import load_reference_gram
    res = exact_ldl_psd(load_reference_gram())
    assert isinstance(res, PivotList)


def test_exact_ldl_singular_psd_decided_correctly():
    # rank-deficient PSD: leading-minor tests would be fooled, pivoting is not
    rows = [[1, 1, 0], [1, 1, 0], [0, 0, 2]]
    res = exact_ldl_psd(SymMatrix(rows, "exact"))
    assert isinstance(res, PivotList)


def test_exact_ldl_agrees_with_float_certificate_100_random():
    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(2, 5)
        if trial % 3 == 0:
            g = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            rows = [[sum(g[i][k] * g[j][k] for k in range(n)) for j in range(n)]
                    for i in range(n)]
        elif trial % 3 == 1:
            # rank-deficient PSD
            r = max(1, n - 2)
            g = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r)]
                 for _ in range(n)]
            rows = [[sum(g[i][k] * g[j][k] for k in range(r)) for j in range(n)]
                    for i in range(n)]
        else:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        m = SymMatrix(rows, "exact")
        exact = exact_ldl_psd(m)
        cert = psd_certificate(m.to_numpy(), 1e-8)
        if isinstance(exact, PivotList):
            assert isinstance(cert, CholeskyFactor), "exact says PSD, float disagrees"
        else:
            assert exact.check(m)
            assert isinstance(cert, NegVector), "exact refutes, float disagrees"


def test_refutation_value_exactly_negative_on_reference_like_matrix():
    rows = [[Fraction(1), Fraction(3)], [Fraction(3), Fraction(1)]]
    res = exact_ldl_psd(SymMatrix(rows, "exact"))
    assert isinstance(res, Refutation)
    assert res.value.sign() < 0
    assert res.check(SymMatrix(rows, "exact"))


# ---------------------------------------------------------------------------
# matrix JSON
# ---------------------------------------------------------------------------

def test_matrix_json_roundtrip_exact_bit_exact():
    rows = [[QSqrt2(Fraction(1, 3), Fraction(-2, 7)), QSqrt2(Fraction(0), Fraction(5))],
            [QSqrt2(Fraction(0), Fraction(5)), QSqrt2(Fraction(-4), Fraction(0))]]
    m = SymMatrix(rows, "exact")
    again = matrix_loads(matrix_dumps(m))
    assert again == m


def test_matrix_json_roundtrip_float():
    a = np.array([[1.25, -0.3], [-0.3, 7.125]])
    m = SymMatrix(a)
    again = matrix_loads(matrix_dumps(m))
    assert np.array_equal(again.to_numpy(), a)


def test_matrix_json_upper_triangle_accepted():
    text = json.dumps({"n": 2, "flavor": "float", "entries": [[1.0, 2.0], [3.0]]})
    m = matrix_loads(text)
    assert m[0, 1] == 2.0 and m[1, 0] == 2.0 and m[1, 1] == 3.0


def test_matrix_json_rejects_asymmetry_with_position():
    text = json.dumps({"n": 2, "flavor": "float", "entries": [[1.0, 2.0], [2.5, 3.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_loads(text)


def test_matrix_json_reports_parse_position():
    with pytest.raises(MatrixFormatError, match="line"):
        matrix_loads("{not json")
