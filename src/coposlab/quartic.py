"""Even quartic forms f = sum_{ij} a_ij x_i^2 x_j^2 and their L2 geometry.

An even quartic is identified with its symmetric coefficient matrix, so the
matrix cones under study become cones of forms.  This module holds what the
library computes with them: monomial lists and products for the SOS
assembly, exact sphere moments, the L2 Gram table of the aggregated
coordinates (`_l2_gram_float`, the exact moments rounded to floats), and a
float orthonormal basis of the zero-average hyperplane M built from it.
The table commutes with coordinate permutations; its three S_n eigen-blocks
give det Gamma in closed form, which `volume.vrad_nn_exact` uses.

`EvenQuartic`, `l2_inner` and `r_squared` are an exact-rational reference:
`l2_inner` pairs two forms monomial by monomial, an independent route to
the Gram table, and Gram-Schmidt with it gives the exact basis that
`basis_M` equals up to roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

Monomial = Tuple[int, ...]  # exponent vector


# ---------------------------------------------------------------------------
# monomial helpers (shared with the SOS assembly)
# ---------------------------------------------------------------------------

def monomials(n: int, degree: int) -> List[Monomial]:
    """All exponent vectors of the given total degree, graded-lex order."""
    out: List[Monomial] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, n)
    return out


def poly_mul(a: Dict[Monomial, object], b: Dict[Monomial, object]) -> Dict[Monomial, object]:
    out: Dict[Monomial, object] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(k)
            out[k] = va * vb if cur is None else cur + va * vb
    return {k: v for k, v in out.items() if v != 0}


def sum_of_squares_poly(n: int) -> Dict[Monomial, object]:
    """Coefficient dict of sum_i x_i^2, with exact coefficients."""
    return {tuple(2 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}


def _double_factorial(k: int) -> int:
    # (-1)!! = 1
    p = 1
    while k > 1:
        p *= k
        k -= 2
    return p


def sphere_moment(alpha: Monomial) -> Fraction:
    """Exact integral of x^alpha over the unit sphere S^{n-1} (probability measure).

    Vanishes unless every exponent is even; for alpha = 2*beta with |beta| = b,

        integral = prod_i (2 beta_i - 1)!!  /  prod_{j=0}^{b-1} (n + 2 j).
    """
    n = len(alpha)
    if any(e % 2 for e in alpha):
        return Fraction(0)
    beta = [e // 2 for e in alpha]
    b = sum(beta)
    num = 1
    for bi in beta:
        num *= _double_factorial(2 * bi - 1)
    den = 1
    for j in range(b):
        den *= n + 2 * j
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# exact even quartics
# ---------------------------------------------------------------------------

class EvenQuartic:
    """Even quartic with a symmetric rational coefficient matrix a
    (f = sum a_ij x_i^2 x_j^2), exact arithmetic throughout."""

    __slots__ = ("n", "a")

    def __init__(self, a):
        rows = tuple(tuple(Fraction(x) for x in row) for row in a)
        self.n = len(rows)
        self.a = rows
        for i in range(self.n):
            if len(rows[i]) != self.n:
                raise ValueError("coefficient matrix must be square")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.a])

    def monomial_coeffs(self) -> Dict[Monomial, Fraction]:
        """Aggregated monomial map: x_i^4 -> a_ii, x_i^2 x_j^2 -> 2 a_ij (i<j)."""
        n = self.n
        out: Dict[Monomial, Fraction] = {}
        for i in range(n):
            for j in range(i, n):
                v = self.a[i][j]
                if v == 0:
                    continue
                alpha = [0] * n
                alpha[i] += 2
                alpha[j] += 2
                out[tuple(alpha)] = v if i == j else 2 * v
        return out

    def __sub__(self, other: "EvenQuartic") -> "EvenQuartic":
        if self.n != other.n:
            raise ValueError("operands must share n")
        return EvenQuartic(tuple(tuple(x - y for x, y in zip(r1, r2))
                                 for r1, r2 in zip(self.a, other.a)))

    def scale(self, c) -> "EvenQuartic":
        return EvenQuartic(tuple(tuple(c * x for x in row) for row in self.a))

    def __eq__(self, other):
        if not isinstance(other, EvenQuartic):
            return NotImplemented
        return self.a == other.a

    def is_zero(self) -> bool:
        return not any(x for row in self.a for x in row)

    def sphere_average(self) -> Fraction:
        """Integral over the unit sphere: [3 tr(a) + offdiag sum] / (n (n+2))."""
        n = self.n
        total = sum(3 * self.a[i][j] if i == j else self.a[i][j]
                    for i in range(n) for j in range(n))
        return total * Fraction(1, n * (n + 2))

    def __repr__(self):
        return f"EvenQuartic(n={self.n})"


def r_squared(n: int) -> EvenQuartic:
    """(x_1^2 + ... + x_n^2)^2, the all-ones coefficient matrix."""
    return EvenQuartic([[1] * n for _ in range(n)])


def l2_inner(f: EvenQuartic, g: EvenQuartic) -> Fraction:
    """L2 pairing int fg dsigma over the unit sphere, exact."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return sum((va * vb * sphere_moment(tuple(x + y for x, y in zip(ka, kb)))
                for ka, va in f.monomial_coeffs().items()
                for kb, vb in g.monomial_coeffs().items()), Fraction(0))


# ---------------------------------------------------------------------------
# orthonormal basis of the zero-average hyperplane M
# ---------------------------------------------------------------------------

def dim_M(n: int) -> int:
    return n * (n + 1) // 2 - 1


def basis_M(n: int) -> np.ndarray:
    """Orthonormal basis of M as the coefficient matrices of its d = dim_M(n)
    even quartics, an array of shape (d, n, n).

    Gram-Schmidt in floats on the aggregated coordinates t (see
    `_l2_gram_float`), where the L2 pairing is t_f^T Gamma t_g.  The pivots
    are x_1^4 .. x_n^4, then x_i^2 x_j^2 (i < j) lexicographic, each less
    its r^2 component; the last one depends on the others and is dropped.
    Two passes of Cholesky QR, t <- t L^{-T} with L L^T = t^T Gamma t, keep
    the basis orthonormal to roundoff.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    keys, gam = _l2_gram_float(n)
    # the sphere average of f is <f, r^2>, r^2 has t = 1 (diagonal), 2 (off)
    # and ||r^2||_2 = 1
    r2 = np.array([1.0 if i == j else 2.0 for (i, j) in keys])
    pivots = sorted(range(len(keys)), key=lambda p: (keys[p][0] != keys[p][1], keys[p]))[:dim_M(n)]
    t = np.eye(len(keys))[:, pivots] - np.outer(r2, gam[pivots] @ r2)
    for _ in range(2):
        chol = np.linalg.cholesky(t.T @ gam @ t)
        t = np.linalg.solve(chol, t.T).T
    rows, cols = np.array(keys).T
    out = np.zeros((len(pivots), n, n))
    out[:, rows, cols] = out[:, cols, rows] = t.T * np.where(rows == cols, 1.0, 0.5)
    return out


@lru_cache(maxsize=None)
def _l2_gram_float(n: int) -> tuple:
    """L2 Gram of the aggregated q-monomial coordinates, plus the key order.

    Keys are (i, j) with i <= j; coordinate value t_ij is a_ii for i == j and
    2 a_ij otherwise, so <f, g> = t_f^T Gamma t_g.  Each entry is the exact
    sphere moment of x_i^2 x_j^2 x_k^2 x_l^2 rounded to a float, and the
    table is read-only.  Its determinant has a closed form (see
    `volume.vrad_nn_exact`).
    """
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    gam = np.empty((len(keys), len(keys)))
    for p, (i, j) in enumerate(keys):
        for q, (k, l) in enumerate(keys):
            alpha = [0] * n
            alpha[i] += 2
            alpha[j] += 2
            alpha[k] += 2
            alpha[l] += 2
            gam[p, q] = float(sphere_moment(tuple(alpha)))
    gam.setflags(write=False)
    return tuple(keys), gam


def coeff_vector(a: np.ndarray, n: int) -> np.ndarray:
    keys, _ = _l2_gram_float(n)
    return np.array([a[i, j] * (1.0 if i == j else 2.0) for (i, j) in keys])
