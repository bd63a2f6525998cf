"""Exact scalars over Q and Q(sqrt2), symmetric matrices, and PSD machinery.

Everything downstream (cone certificates, the cosine-compression matrices,
sphere-moment calculus) runs either on float symmetric matrices or on exact
entries of the form r + s*sqrt(2) with rational r, s.  The exact flavor is
what makes the shipped reference matrices verifiable with zero tolerance:
ring operations are closed, equality is componentwise, and the sign of
r + s*sqrt(2) is decidable by comparing r^2 against 2 s^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Rational = Fraction  # always reduced, positive denominator: fractions.Fraction guarantees both

_SQRT2 = math.sqrt(2.0)


class MatrixFormatError(ValueError):
    """Malformed matrix JSON; carries a human-readable position."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


@dataclass(frozen=True, eq=False)
class QSqrt2:
    """Exact scalar rat + irr*sqrt(2) with rational components."""

    rat: Fraction
    irr: Fraction

    def __eq__(self, other):
        if isinstance(other, QSqrt2):
            return self.rat == other.rat and self.irr == other.irr
        if isinstance(other, (int, Fraction)):
            return self.irr == 0 and self.rat == other
        return NotImplemented

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self):
        return hash((self.rat, self.irr))

    @staticmethod
    def of(x) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        return QSqrt2(_as_fraction(x), Fraction(0))

    @staticmethod
    def sqrt2(scale=1) -> "QSqrt2":
        return QSqrt2(Fraction(0), _as_fraction(scale))

    def __add__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        return QSqrt2(self.rat + o.rat, self.irr + o.irr)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        return QSqrt2(self.rat - o.rat, self.irr - o.irr)

    def __rsub__(self, other) -> "QSqrt2":
        return QSqrt2.of(other) - self

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.rat, -self.irr)

    def __mul__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        return QSqrt2(self.rat * o.rat + 2 * self.irr * o.irr,
                      self.rat * o.irr + self.irr * o.rat)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # (r + s√2)^-1 = (r - s√2) / (r^2 - 2 s^2); the norm vanishes only at 0
        nrm = self.rat * self.rat - 2 * self.irr * self.irr
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QSqrt2(self.rat / nrm, -self.irr / nrm)

    def __truediv__(self, other) -> "QSqrt2":
        return self * QSqrt2.of(other).inverse()

    def __rtruediv__(self, other) -> "QSqrt2":
        return QSqrt2.of(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign: compare rat^2 with 2*irr^2 when the components disagree."""
        r, s = self.rat, self.irr
        if r == 0 and s == 0:
            return 0
        if r >= 0 and s >= 0:
            return 1
        if r <= 0 and s <= 0:
            return -1
        big = r * r > 2 * s * s  # |r| dominates |s*sqrt2|
        if r > 0:
            return 1 if big else -1
        return -1 if big else 1

    def is_zero(self) -> bool:
        return self.rat == 0 and self.irr == 0

    def is_rational(self) -> bool:
        return self.irr == 0

    def __lt__(self, other):
        return (self - QSqrt2.of(other)).sign() < 0

    def __le__(self, other):
        return (self - QSqrt2.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QSqrt2.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - QSqrt2.of(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.rat) + float(self.irr) * _SQRT2

    def __str__(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        if self.rat == 0:
            return f"{self.irr}√2"
        sep = "+" if self.irr > 0 else "-"
        return f"{self.rat}{sep}{abs(self.irr)}√2"

    __repr__ = __str__


ExactScalar = Union[QSqrt2, Fraction, int]


def _exact_rows(entries: Iterable[Iterable]) -> tuple:
    return tuple(tuple(QSqrt2.of(x) for x in row) for row in entries)


class SymMatrix:
    """Dense real symmetric matrix; flavor 'float' (numpy) or 'exact' (QSqrt2)."""

    __slots__ = ("n", "flavor", "_rows", "_arr")

    def __init__(self, entries, flavor: str | None = None):
        if isinstance(entries, SymMatrix):
            other = entries
            self.n, self.flavor = other.n, other.flavor
            self._rows, self._arr = other._rows, other._arr
            return
        if flavor is None:
            flavor = "float" if isinstance(entries, np.ndarray) else "exact"
        if flavor == "float":
            arr = np.asarray(entries, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("entries must be a square matrix")
            if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(arr).max())):
                raise ValueError("entries are not symmetric")
            arr = 0.5 * (arr + arr.T)
            arr.setflags(write=False)
            self.n = arr.shape[0]
            self.flavor = "float"
            self._rows = None
            self._arr = arr
        elif flavor == "exact":
            rows = _exact_rows(entries)
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise ValueError("entries must be a square matrix")
            for i in range(n):
                for j in range(i):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(f"entries are not symmetric at ({i},{j})")
            self.n = n
            self.flavor = "exact"
            self._rows = rows
            self._arr = None
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def identity(n: int, flavor: str = "float") -> "SymMatrix":
        if flavor == "float":
            return SymMatrix(np.eye(n))
        return SymMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], "exact")

    @staticmethod
    def zeros(n: int, flavor: str = "float") -> "SymMatrix":
        if flavor == "float":
            return SymMatrix(np.zeros((n, n)))
        return SymMatrix([[0] * n for _ in range(n)], "exact")

    @staticmethod
    def ones(n: int, flavor: str = "float") -> "SymMatrix":
        if flavor == "float":
            return SymMatrix(np.ones((n, n)))
        return SymMatrix([[1] * n for _ in range(n)], "exact")

    # -- access -------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        if self.flavor == "float":
            return self._arr[i, j]
        return self._rows[i][j]

    def rows(self):
        if self.flavor == "exact":
            return self._rows
        return self._arr

    def to_numpy(self) -> np.ndarray:
        if self.flavor == "float":
            return np.array(self._arr)
        return np.array([[float(x) for x in row] for row in self._rows])

    def to_exact(self) -> "SymMatrix":
        if self.flavor == "exact":
            return self
        return SymMatrix([[Fraction(v) for v in row] for row in self._arr.tolist()], "exact")

    def __eq__(self, other):
        if not isinstance(other, SymMatrix) or self.n != other.n or self.flavor != other.flavor:
            return NotImplemented if not isinstance(other, SymMatrix) else False
        if self.flavor == "float":
            return bool(np.array_equal(self._arr, other._arr))
        return self._rows == other._rows

    def __repr__(self):
        return f"SymMatrix(n={self.n}, flavor={self.flavor})"

    def min_entry_sign(self) -> int:
        """Exact flavor only: sign of the minimal entry (for NN checks)."""
        if self.flavor != "exact":
            raise ValueError("exact flavor required")
        best = 1
        for row in self._rows:
            for x in row:
                best = min(best, x.sign())
        return best


# ---------------------------------------------------------------------------
# matrix JSON (bit-exact for the exact flavor)
# ---------------------------------------------------------------------------

def _frac_pair(f: Fraction) -> list:
    return [f.numerator, f.denominator]


def matrix_to_json_dict(m: SymMatrix) -> dict:
    if m.flavor == "float":
        entries = [[float(v) for v in row] for row in m._arr]
    else:
        entries = [[{"r": _frac_pair(x.rat), "s": _frac_pair(x.irr)} for x in row]
                   for row in m._rows]
    return {"n": m.n, "flavor": m.flavor, "entries": entries}


def matrix_dumps(m: SymMatrix) -> str:
    return json.dumps(matrix_to_json_dict(m))


def _parse_exact_entry(e, where: str) -> QSqrt2:
    if isinstance(e, dict):
        try:
            r = Fraction(int(e["r"][0]), int(e["r"][1]))
            s = Fraction(int(e.get("s", [0, 1])[0]), int(e.get("s", [0, 1])[1]))
        except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            raise MatrixFormatError(f"bad exact entry at {where}: {e!r}") from exc
        return QSqrt2(r, s)
    if isinstance(e, int):
        return QSqrt2.of(e)
    raise MatrixFormatError(f"bad exact entry at {where}: {e!r}")


def matrix_from_json_dict(d: dict) -> SymMatrix:
    try:
        n = int(d["n"])
        flavor = d["flavor"]
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"missing field: {exc}") from exc
    if flavor not in ("exact", "float"):
        raise MatrixFormatError(f"unknown flavor {flavor!r}")
    if len(entries) != n:
        raise MatrixFormatError(f"expected {n} rows, got {len(entries)}")
    ragged = all(len(entries[i]) == n - i for i in range(n)) and n > 1
    full = [[None] * n for _ in range(n)]
    for i, row in enumerate(entries):
        if not ragged and len(row) != n:
            raise MatrixFormatError(f"row {i} has {len(row)} entries, expected {n}")
        for k, e in enumerate(row):
            j = i + k if ragged else k
            where = f"row {i}, column {j}"
            if flavor == "float":
                if not isinstance(e, (int, float)):
                    raise MatrixFormatError(f"bad float entry at {where}: {e!r}")
                v = float(e)
            else:
                v = _parse_exact_entry(e, where)
            full[i][j] = v
            if ragged:
                full[j][i] = v
    if flavor == "float":
        arr = np.array(full, dtype=float)
        if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(arr).max())):
            raise MatrixFormatError("matrix is not symmetric")
        return SymMatrix(arr)
    for i in range(n):
        for j in range(i):
            if full[i][j] != full[j][i]:
                raise MatrixFormatError(f"matrix is not symmetric at row {i}, column {j}")
    return SymMatrix(full, "exact")


def matrix_loads(text: str) -> SymMatrix:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return matrix_from_json_dict(d)


def matrix_load_file(path) -> SymMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_loads(fh.read())


# ---------------------------------------------------------------------------
# floating eigensolver: LAPACK
# ---------------------------------------------------------------------------

def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (eigenvalues ascending, V) with A V = V diag(w) and V orthonormal.
    The routine is backward stable: the residual of A V = V diag(w) and the
    departure of V from orthonormality are a small multiple of n * eps * ||A||
    and n * eps, e.g. ~1e-14 * ||A|| at the certify sizes (n <= 40).
    """
    if isinstance(a, SymMatrix):
        a = a.to_numpy()
    A = np.array(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(0.5 * (A + A.T))


# ---------------------------------------------------------------------------
# float PSD certificate
# ---------------------------------------------------------------------------

@dataclass
class CholeskyFactor:
    L: np.ndarray  # lower triangular, ||A - L L^T||_inf <= tol

    def residual(self, a: np.ndarray) -> float:
        return float(np.abs(a - self.L @ self.L.T).max())


@dataclass
class NegVector:
    v: np.ndarray
    value: float  # v^T A v < -tol


def psd_certificate(a, tol: float = 1e-9):
    """Two-sided PSD check: CholeskyFactor on success, NegVector on failure.

    Both come from one `sym_eigen` of the symmetrized input.  The failure
    witness is the eigenvector of the smallest eigenvalue, with
    v^T A v < -tol.  On success the factor is built from the
    eigendecomposition with negative eigenvalues clipped to zero, so
    ||A - L L^T|| is at most |lambda_min| <= tol plus the eigensolver's
    rounding, a small multiple of n * eps * ||A||.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(a, SymMatrix):
        a = a.to_numpy()
    w, V = sym_eigen(a)
    if w[0] < -tol:
        v = V[:, 0]
        A = np.asarray(a, float)
        return NegVector(v=v, value=float(v @ (0.5 * (A + A.T)) @ v))
    Wh = V * np.sqrt(np.clip(w, 0.0, None))[None, :]
    # lower-triangular L with L L^T = V clip(w) V^T via LQ of Wh
    q, r = np.linalg.qr(Wh.T)
    L = r.T
    # fix signs so the diagonal is nonnegative (cosmetic, keeps output canonical)
    signs = np.sign(np.diag(L))
    signs[signs == 0] = 1.0
    L = L * signs[None, :]
    return CholeskyFactor(L=L)


# ---------------------------------------------------------------------------
# exact LDL^T decision for Q(sqrt2) matrices
# ---------------------------------------------------------------------------

@dataclass
class PivotList:
    perm: list  # original index of each elimination step
    pivots: list  # QSqrt2 diagonal pivots, all >= 0


@dataclass
class Refutation:
    x: tuple  # QSqrt2 vector with x^T A x = value < 0, exactly
    value: QSqrt2

    def check(self, m: SymMatrix) -> bool:
        n = m.n
        acc = QSqrt2.of(0)
        for i in range(n):
            for j in range(n):
                acc = acc + self.x[i] * m[i, j] * self.x[j]
        return acc == self.value and acc.sign() < 0


def _pullback_witness(lcols, perm, n, z):
    """Solve L^T y = z for unit-lower L given by elimination columns, then unpermute."""
    y = list(z)
    for i in range(n - 1, -1, -1):
        if lcols[i] is None:
            continue
        s = y[i]
        for j in range(i + 1, n):
            s = s - lcols[i][j] * y[j]
        y[i] = s
    x = [QSqrt2.of(0)] * n
    for pos in range(n):
        x[perm[pos]] = y[pos]
    return tuple(x)


def exact_ldl_psd(m: SymMatrix):
    """Decide PSD-ness of an exact matrix by symmetric-pivoted LDL^T.

    At every step the largest remaining diagonal is selected exactly.  A
    negative pivot, or a zero pivot with a nonzero row, yields a Refutation
    whose witness vector has an exactly negative quadratic value.  Symmetric
    pivoting (rather than leading minors) decides singular PSD inputs
    correctly.
    """
    if m.flavor != "exact":
        raise ValueError("exact flavor required")
    n = m.n
    M = [[m[i, j] for j in range(n)] for i in range(n)]
    perm = list(range(n))
    # lcols[k][i] = multiplier of row i against pivot k (unit lower triangular)
    lcols = [None] * n
    pivots = []

    def swap(k, p):
        if k == p:
            return
        M[k], M[p] = M[p], M[k]
        for r in range(n):
            M[r][k], M[r][p] = M[r][p], M[r][k]
        perm[k], perm[p] = perm[p], perm[k]
        for col in lcols:
            if col is not None:
                col[k], col[p] = col[p], col[k]

    for k in range(n):
        best = k
        for p in range(k + 1, n):
            if (M[p][p] - M[best][best]).sign() > 0:
                best = p
        swap(k, best)
        d = M[k][k]
        sg = d.sign()
        if sg < 0:
            z = [QSqrt2.of(0)] * n
            z[k] = QSqrt2.of(1)
            x = _pullback_witness(lcols, perm, n, z)
            return Refutation(x=x, value=d)
        if sg == 0:
            bad = None
            for j in range(k + 1, n):
                if M[k][j].sign() != 0:
                    bad = j
                    break
            if bad is not None:
                # trailing 2x2 [[0, s],[s, dq]]: pick t with 2 t s + dq = -1
                s_ = M[k][bad]
                dq = M[bad][bad]
                t = (QSqrt2.of(-1) - dq) / (QSqrt2.of(2) * s_)
                z = [QSqrt2.of(0)] * n
                z[k] = t
                z[bad] = QSqrt2.of(1)
                x = _pullback_witness(lcols, perm, n, z)
                return Refutation(x=x, value=QSqrt2.of(-1))
            pivots.append(d)
            lcols[k] = None
            continue
        pivots.append(d)
        inv = d.inverse()
        colk = [M[i][k] for i in range(n)]
        lc = [QSqrt2.of(0)] * n
        for i in range(k + 1, n):
            lc[i] = colk[i] * inv
        lcols[k] = lc
        for i in range(k + 1, n):
            fi = lc[i]
            if fi.is_zero():
                continue
            for j in range(k + 1, n):
                M[i][j] = M[i][j] - fi * colk[j]
    return PivotList(perm=perm, pivots=pivots)
