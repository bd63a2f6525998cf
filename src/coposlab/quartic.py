"""Calculus of even quartic forms f = sum_{ij} a_ij x_i^2 x_j^2.

An even quartic is identified with its symmetric coefficient matrix, so the
matrix cones under study become cones of forms.  This module provides the
exact-rational toolbox on that space: evaluation, sphere moments, the L2 and
differential (apolar) inner products, the averaging operator T, harmonic
decomposition, orthonormal bases of the zero-average hyperplane, fourth
powers of linear forms, and the orthogonal-substitution action.

Everything defaults to exact arithmetic (Fraction, or Q(sqrt2) scalars);
floating mirrors exist where sampling workloads need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .numerics import QSqrt2, SymMatrix

Monomial = Tuple[int, ...]  # exponent vector


def _is_zero(x) -> bool:
    if isinstance(x, QSqrt2):
        return x.is_zero()
    return x == 0


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


def monomial_factorial(alpha: Monomial) -> int:
    p = 1
    for e in alpha:
        p *= math.factorial(e)
    return p


def poly_mul(a: Dict[Monomial, object], b: Dict[Monomial, object]) -> Dict[Monomial, object]:
    out: Dict[Monomial, object] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(k)
            out[k] = va * vb if cur is None else cur + va * vb
    return {k: v for k, v in out.items() if not _is_zero(v)}


def sum_of_squares_poly(n: int, exact: bool = True) -> Dict[Monomial, object]:
    """Coefficient dict of sum_i x_i^2."""
    one = Fraction(1) if exact else 1.0
    out = {}
    for i in range(n):
        key = tuple(2 if j == i else 0 for j in range(n))
        out[key] = one
    return out


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
# general quartic forms (sparse degree-4 polynomials)
# ---------------------------------------------------------------------------

class GeneralQuartic:
    """Homogeneous degree-4 form as a sparse exponent->coefficient map."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[Monomial, object]):
        self.n = n
        clean = {}
        for k, v in coeffs.items():
            if len(k) != n or sum(k) != 4:
                raise ValueError(f"monomial {k} is not degree 4 in {n} variables")
            if not _is_zero(v):
                clean[k] = v
        self.coeffs = clean

    def __add__(self, other: "GeneralQuartic") -> "GeneralQuartic":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v if k in out else v
        return GeneralQuartic(self.n, out)

    def scale(self, c) -> "GeneralQuartic":
        return GeneralQuartic(self.n, {k: c * v for k, v in self.coeffs.items()})

    def eval(self, x: Sequence) -> object:
        acc = None
        for k, v in self.coeffs.items():
            term = v
            for i, e in enumerate(k):
                for _ in range(e):
                    term = term * x[i]
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)


def linear_form_power4(v: Sequence) -> GeneralQuartic:
    """(v . x)^4 expanded as a GeneralQuartic."""
    n = len(v)
    out: Dict[Monomial, object] = {}
    for idx in combinations_with_replacement(range(n), 4):
        alpha = [0] * n
        for i in idx:
            alpha[i] += 1
        key = tuple(alpha)
        if key in out:
            continue
        c = Fraction(24, monomial_factorial(key))
        term = c
        for i, e in enumerate(key):
            for _ in range(e):
                term = term * v[i]
        out[key] = term
    return GeneralQuartic(n, out)


# ---------------------------------------------------------------------------
# even quartic forms
# ---------------------------------------------------------------------------

class EvenQuartic:
    """Even quartic with symmetric coefficient matrix a (f = sum a_ij x_i^2 x_j^2)."""

    __slots__ = ("n", "a", "flavor")

    def __init__(self, a, flavor: str | None = None):
        if isinstance(a, SymMatrix):
            if a.flavor == "float":
                self.n = a.n
                self.a = tuple(tuple(float(x) for x in row) for row in a.rows())
                self.flavor = "float"
            else:
                self.n = a.n
                self.a = tuple(tuple(x if not x.is_rational() else x.rat for x in row)
                               for row in a.rows())
                self.flavor = "exact"
            return
        if isinstance(a, np.ndarray) or flavor == "float":
            arr = np.asarray(a, dtype=float)
            self.n = arr.shape[0]
            self.a = tuple(tuple(float(x) for x in row) for row in arr)
            self.flavor = "float"
        else:
            rows = tuple(tuple(x if isinstance(x, QSqrt2) else Fraction(x) for x in row)
                         for row in a)
            self.n = len(rows)
            self.a = rows
            self.flavor = "exact"
        for i in range(self.n):
            if len(self.a[i]) != self.n:
                raise ValueError("coefficient matrix must be square")
            for j in range(i):
                if self.a[i][j] != self.a[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")

    # -- conversions ---------------------------------------------------------
    def to_matrix(self) -> SymMatrix:
        if self.flavor == "float":
            return SymMatrix(np.array(self.a, dtype=float))
        return SymMatrix(self.a, "exact")

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.a])

    def monomial_coeffs(self) -> Dict[Monomial, object]:
        """Aggregated monomial map: x_i^4 -> a_ii, x_i^2 x_j^2 -> 2 a_ij (i<j)."""
        n = self.n
        out: Dict[Monomial, object] = {}
        for i in range(n):
            for j in range(i, n):
                v = self.a[i][j]
                if _is_zero(v):
                    continue
                alpha = [0] * n
                alpha[i] += 2
                alpha[j] += 2
                out[tuple(alpha)] = v if i == j else 2 * v
        return out

    def to_general(self) -> GeneralQuartic:
        return GeneralQuartic(self.n, self.monomial_coeffs())

    # -- arithmetic ----------------------------------------------------------
    def _binop(self, other: "EvenQuartic", op):
        if self.n != other.n or self.flavor != other.flavor:
            raise ValueError("operands must share n and flavor")
        return EvenQuartic(
            tuple(tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(self.a, other.a)),
            self.flavor)

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def scale(self, c) -> "EvenQuartic":
        return EvenQuartic(tuple(tuple(c * x for x in row) for row in self.a), self.flavor)

    def __eq__(self, other):
        if not isinstance(other, EvenQuartic):
            return NotImplemented
        return self.n == other.n and self.flavor == other.flavor and self.a == other.a

    def is_zero(self) -> bool:
        return all(_is_zero(x) for row in self.a for x in row)

    def eval(self, x: Sequence) -> object:
        sq = [xi * xi for xi in x]
        acc = None
        for i in range(self.n):
            row = self.a[i]
            for j in range(self.n):
                if _is_zero(row[j]):
                    continue
                t = row[j] * sq[i] * sq[j]
                acc = t if acc is None else acc + t
        if acc is None:
            return 0.0 if self.flavor == "float" else Fraction(0)
        return acc

    def sphere_average(self) -> object:
        """Integral over the unit sphere: [3 tr(a) + offdiag sum] / (n (n+2))."""
        n = self.n
        diag = None
        off = None
        for i in range(n):
            for j in range(n):
                v = self.a[i][j]
                if i == j:
                    diag = v if diag is None else diag + v
                else:
                    off = v if off is None else off + v
        total = 3 * diag if off is None else 3 * diag + off
        if self.flavor == "float":
            return total / (n * (n + 2))
        return total * Fraction(1, n * (n + 2))

    def __repr__(self):
        return f"EvenQuartic(n={self.n}, flavor={self.flavor})"


def quartic_of_matrix(m: SymMatrix) -> EvenQuartic:
    """The even quartic q_A(x) = sum a_ij x_i^2 x_j^2 of a symmetric matrix."""
    return EvenQuartic(m)


def matrix_of_quartic(f: EvenQuartic) -> SymMatrix:
    return f.to_matrix()


def r_squared(n: int, flavor: str = "exact") -> EvenQuartic:
    """(x_1^2 + ... + x_n^2)^2, the all-ones coefficient matrix."""
    if flavor == "float":
        return EvenQuartic(np.ones((n, n)))
    return EvenQuartic(tuple(tuple(Fraction(1) for _ in range(n)) for _ in range(n)))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def _mono_map(f) -> Tuple[int, Dict[Monomial, object]]:
    if isinstance(f, EvenQuartic):
        return f.n, f.monomial_coeffs()
    if isinstance(f, GeneralQuartic):
        return f.n, f.coeffs
    raise TypeError("expected EvenQuartic or GeneralQuartic")


def l2_inner(f, g):
    """L2 pairing int fg dsigma over the unit sphere, exact for exact inputs."""
    nf, mf = _mono_map(f)
    ng, mg = _mono_map(g)
    if nf != ng:
        raise ValueError("dimension mismatch")
    acc = None
    for ka, va in mf.items():
        for kb, vb in mg.items():
            mom = sphere_moment(tuple(x + y for x, y in zip(ka, kb)))
            if mom == 0:
                continue
            t = va * vb * mom
            acc = t if acc is None else acc + t
    return acc if acc is not None else Fraction(0)


def diff_inner(f, g):
    """Apolar pairing <f,g>_d = D_f(g) = sum_alpha f_alpha g_alpha alpha!.

    On even quartics this reduces to 24 sum_k a_kk b_kk + 16 sum_{k<l} a_kl b_kl.
    """
    nf, mf = _mono_map(f)
    ng, mg = _mono_map(g)
    if nf != ng:
        raise ValueError("dimension mismatch")
    acc = None
    for k, va in mf.items():
        vb = mg.get(k)
        if vb is None:
            continue
        t = va * vb * monomial_factorial(k)
        acc = t if acc is None else acc + t
    return acc if acc is not None else Fraction(0)


def project_pr_Q(f: GeneralQuartic) -> EvenQuartic:
    """Orthogonal projection onto even quartics: keep the x_i^2 x_j^2 monomials."""
    n = f.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    floaty = any(isinstance(v, float) for v in f.coeffs.values())
    if floaty:
        rows = [[0.0] * n for _ in range(n)]
    for k, v in f.coeffs.items():
        support = [i for i, e in enumerate(k) if e]
        if any(e % 2 for e in k):
            continue
        if len(support) == 1:
            i = support[0]
            rows[i][i] += v
        else:
            i, j = support
            half = v / 2 if floaty else v * Fraction(1, 2)
            rows[i][j] += half
            rows[j][i] += half
    return EvenQuartic(np.array(rows, dtype=float) if floaty else tuple(map(tuple, rows)))


def v4_project(v: Sequence) -> EvenQuartic:
    """pr_Q((v.x)^4): diagonal v_i^4, off-diagonal entries 3 v_i^2 v_j^2."""
    n = len(v)
    floaty = any(isinstance(x, (float, np.floating)) for x in v)
    sq = [x * x for x in v]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = sq[i] * sq[i]
        for j in range(i + 1, n):
            val = 3 * sq[i] * sq[j]
            rows[i][j] = rows[j][i] = val
    if floaty:
        return EvenQuartic(np.array(rows, dtype=float))
    return EvenQuartic(tuple(tuple(Fraction(x) if not isinstance(x, (Fraction, QSqrt2)) else x
                                   for x in row) for row in rows))


# ---------------------------------------------------------------------------
# harmonic decomposition and the operator T
# ---------------------------------------------------------------------------

@dataclass
class HarmonicParts:
    """f = c0 * r^2 + (sum x_i^2) * h2 + h4 with tr(h2) = 0 and h4 harmonic."""

    n: int
    c0: object
    h2: tuple  # diagonal coefficients c_i of the traceless quadratic h2
    h4: EvenQuartic

    def reconstruct(self) -> EvenQuartic:
        n = self.n
        half = Fraction(1, 2)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                v = self.c0 + (self.h2[i] + self.h2[j]) * half + self.h4.a[i][j]
                row.append(v)
            rows.append(tuple(row))
        return EvenQuartic(tuple(rows))


def harmonic_decompose(f: EvenQuartic) -> HarmonicParts:
    """Exact split f = c0 r^2 + r^2-weighted harmonic quadratic + harmonic quartic.

    Writing t_i = 3 a_ii + sum_{j != i} a_ij, the solution is closed form:
    c0 = (sum_i t_i) / (n(n+2)) and h2 diagonal c_i = 2 (t_i - (n+2) c0) / (n+4).
    """
    if f.flavor != "exact":
        raise ValueError("exact flavor required")
    n = f.n
    t = []
    for i in range(n):
        ti = 3 * f.a[i][i]
        for j in range(n):
            if j != i:
                ti = ti + f.a[i][j]
        t.append(ti)
    s = t[0]
    for ti in t[1:]:
        s = s + ti
    c0 = s * Fraction(1, n * (n + 2))
    c = tuple((ti - (n + 2) * c0) * Fraction(2, n + 4) for ti in t)
    half = Fraction(1, 2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(f.a[i][j] - c0 - (c[i] + c[j]) * half)
        rows.append(tuple(row))
    h4 = EvenQuartic(tuple(rows))
    return HarmonicParts(n=n, c0=c0, h2=c, h4=h4)


def apply_T(f: EvenQuartic) -> EvenQuartic:
    """The averaging operator T(f)(x) = int f(v) pr-free (v.x)^4 dsigma(v).

    Diagonal on harmonic components:
    T = (3/(n(n+2))) [ l0 + 4/(n+4) l1 + 8/((n+4)(n+6)) l2 ].
    """
    parts = harmonic_decompose(f)
    n = f.n
    lead = Fraction(3, n * (n + 2))
    c1 = Fraction(4, n + 4)
    c2 = Fraction(8, (n + 4) * (n + 6))
    scaled = HarmonicParts(
        n=n,
        c0=parts.c0 * lead,
        h2=tuple(ci * lead * c1 for ci in parts.h2),
        h4=parts.h4.scale(lead * c2),
    )
    return scaled.reconstruct()


def classify_subspaces(f: EvenQuartic, tol: float | None = None):
    """Flags (in_L, in_M, in_H4); exact tests for exact inputs, tol for float.

    in_L:  3 sum a_ii + sum_{i!=j} a_ij = n(n+2)   (sphere average one)
    in_M:  the same sum vanishes                    (sphere average zero)
    in_H4: a_ii = -(1/6) sum_{j!=i}(a_ij + a_ji)    (Laplacian vanishes)
    """
    n = f.n
    diag = sum(float(f.a[i][i]) for i in range(n)) if f.flavor == "float" else None
    if f.flavor == "float":
        if tol is None:
            tol = 1e-10
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += f.a[i][j] if i != j else 3.0 * f.a[i][j]
        in_l = abs(total - n * (n + 2)) <= tol * n * (n + 2)
        in_m = abs(total) <= tol * n * (n + 2)
        in_h4 = True
        for i in range(n):
            s = sum(f.a[i][j] for j in range(n) if j != i)
            if abs(f.a[i][i] + s / 3.0) > tol * (1.0 + abs(f.a[i][i])):
                in_h4 = False
                break
        return in_l, in_m, in_h4
    total = None
    for i in range(n):
        for j in range(n):
            term = 3 * f.a[i][j] if i == j else f.a[i][j]
            total = term if total is None else total + term
    in_l = total == n * (n + 2)
    in_m = _is_zero(total)
    in_h4 = True
    for i in range(n):
        s = None
        for j in range(n):
            if j == i:
                continue
            s = f.a[i][j] if s is None else s + f.a[i][j]
        lhs = 3 * f.a[i][i] + s
        if not _is_zero(lhs):
            in_h4 = False
            break
    return in_l, in_m, in_h4


# ---------------------------------------------------------------------------
# orthonormal basis of the zero-average hyperplane M
# ---------------------------------------------------------------------------

def dim_M(n: int) -> int:
    return n * (n + 1) // 2 - 1


@lru_cache(maxsize=None)
def _basis_M_exact(n: int) -> tuple:
    """Gram-Schmidt in exact arithmetic; unnormalized vectors plus norms squared.

    Runs on the aggregated coordinates t (see `_l2_gram_exact`), where the
    L2 pairing is t_f^T Gamma t_g; the result equals the same process run
    with `l2_inner` on `EvenQuartic` objects.
    """
    keys, gam = _l2_gram_exact(n)
    m = len(keys)
    # the sphere average of f is <f, r^2> and r^2 has t = 1 (diagonal), 2 (off)
    r2 = [Fraction(1) if i == j else Fraction(2) for (i, j) in keys]
    avg = [sum(gam[p][q] * r2[q] for q in range(m)) for p in range(m)]  # Gamma t_{r^2}
    basis: List[List[Fraction]] = []
    gam_basis: List[List[Fraction]] = []  # Gamma t_b, for the pairings with b
    norms2: List[Fraction] = []
    # pivot monomials x_1^4 .. x_n^4, then x_i^2 x_j^2 (i < j) lexicographic
    pivots = sorted(range(m), key=lambda p: (keys[p][0] != keys[p][1], keys[p]))
    for p in pivots:
        v = [-avg[p] * x for x in r2]  # ||r^2||_2 = 1
        v[p] += 1
        for b, gb, n2 in zip(basis, gam_basis, norms2):
            coef = sum(x * y for x, y in zip(v, gb)) / n2
            v = [x - coef * y for x, y in zip(v, b)]
        if not any(v):
            continue
        gv = [sum(gam[q][s] * v[s] for s in range(m)) for q in range(m)]
        basis.append(v)
        gam_basis.append(gv)
        norms2.append(sum(x * y for x, y in zip(v, gv)))
    assert len(basis) == dim_M(n)
    out = []
    for v, n2 in zip(basis, norms2):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), x in zip(keys, v):
            rows[i][j] = rows[j][i] = x if i == j else x / 2
        out.append((EvenQuartic(tuple(map(tuple, rows))), n2))
    return tuple(out)


def basis_M(n: int) -> List[EvenQuartic]:
    """Orthonormal (within float roundoff) basis of M as float even quartics."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out = []
    for v, n2 in _basis_M_exact(n):
        scale = 1.0 / math.sqrt(float(n2))
        out.append(EvenQuartic(v.to_numpy() * scale))
    return out


@lru_cache(maxsize=None)
def _l2_gram_exact(n: int) -> tuple:
    """Exact Gram of the aggregated q-monomial coordinates, plus the key order.

    Keys are (i, j) with i <= j; coordinate value t_ij is a_ii for i == j and
    2 a_ij otherwise, so <f, g> = t_f^T Gamma t_g.
    """
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    gam = []
    for (i, j) in keys:
        row = []
        for (k, l) in keys:
            alpha = [0] * n
            alpha[i] += 2
            alpha[j] += 2
            alpha[k] += 2
            alpha[l] += 2
            row.append(sphere_moment(tuple(alpha)))
        gam.append(tuple(row))
    return tuple(keys), tuple(gam)


@lru_cache(maxsize=None)
def _l2_gram_float(n: int) -> tuple:
    """`_l2_gram_exact` rounded to floats, read-only."""
    keys, gam_exact = _l2_gram_exact(n)
    gam = np.array([[float(x) for x in row] for row in gam_exact])
    gam.setflags(write=False)
    return keys, gam


def coeff_vector(a: np.ndarray, n: int) -> np.ndarray:
    keys, _ = _l2_gram_float(n)
    return np.array([a[i, j] * (1.0 if i == j else 2.0) for (i, j) in keys])


def l2_inner_float(a: np.ndarray, b: np.ndarray) -> float:
    """L2 pairing of two even quartics given by float coefficient matrices."""
    n = a.shape[0]
    _, gam = _l2_gram_float(n)
    return float(coeff_vector(a, n) @ gam @ coeff_vector(b, n))


# ---------------------------------------------------------------------------
# orthogonal-substitution action
# ---------------------------------------------------------------------------

def group_action(o, f: EvenQuartic) -> EvenQuartic:
    """L_O f = pr_Q(f(O x)) for orthogonal O; rejects non-orthogonal inputs."""
    exact = not isinstance(o, np.ndarray) and f.flavor == "exact"
    if exact:
        n = len(o)
        rows = [[Fraction(x) if not isinstance(x, (Fraction, QSqrt2)) else x for x in r]
                for r in o]
        for i in range(n):
            for j in range(n):
                dot = None
                for k in range(n):
                    t = rows[k][i] * rows[k][j]
                    dot = t if dot is None else dot + t
                want = 1 if i == j else 0
                if dot != want:
                    raise ValueError("matrix is not orthogonal")
        a = f.a
        out = [[Fraction(0)] * n for _ in range(n)]
        half = Fraction(1, 2)
        for k in range(n):
            for l in range(k, n):
                acc = None
                for i in range(n):
                    for j in range(n):
                        if _is_zero(a[i][j]):
                            continue
                        if k == l:
                            term = a[i][j] * (rows[i][k] * rows[i][k]) * (rows[j][k] * rows[j][k])
                        else:
                            t1 = (rows[i][k] * rows[i][k]) * (rows[j][l] * rows[j][l])
                            t2 = (rows[i][l] * rows[i][l]) * (rows[j][k] * rows[j][k])
                            t3 = 4 * rows[i][k] * rows[i][l] * rows[j][k] * rows[j][l]
                            term = a[i][j] * (t1 + t2 + t3) * half
                        acc = term if acc is None else acc + term
                out[k][l] = acc
                out[l][k] = acc
        return EvenQuartic(tuple(map(tuple, out)))
    O = np.asarray(o, dtype=float)
    n = O.shape[0]
    if np.abs(O.T @ O - np.eye(n)).max() > 1e-12:
        raise ValueError("matrix is not orthogonal")
    a = f.to_numpy()
    W = O * O
    waw = W.T @ a @ W
    out = np.array(waw)
    for k in range(n):
        for l in range(k + 1, n):
            g = O[:, k] * O[:, l]
            h = float(g @ a @ g)
            out[k, l] = out[l, k] = waw[k, l] + 2.0 * h
    return EvenQuartic(out)
