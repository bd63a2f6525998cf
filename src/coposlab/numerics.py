"""Exact scalars over Q and Q(sqrt2), symmetric matrices, and PSD machinery.

Everything downstream (cone certificates, the cosine-compression matrices,
sphere-moment calculus) runs either on float symmetric matrices or on exact
entries of the form r + s*sqrt(2) with rational r, s.  The exact flavor is
what makes the shipped reference matrices verifiable with zero tolerance:
ring operations are closed, equality is componentwise, and the sign of
r + s*sqrt(2) is decidable by comparing r^2 against 2 s^2.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

_SQRT2 = math.sqrt(2.0)
_ZERO = Fraction(0)


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

    # +, - and * take a rational fast path when both irrational parts are
    # zero: the same exact value, with the Fraction work on zeros skipped

    def __add__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        if not (self.irr or o.irr):
            return QSqrt2(self.rat + o.rat, _ZERO)
        return QSqrt2(self.rat + o.rat, self.irr + o.irr)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        if not (self.irr or o.irr):
            return QSqrt2(self.rat - o.rat, _ZERO)
        return QSqrt2(self.rat - o.rat, self.irr - o.irr)

    def __rsub__(self, other) -> "QSqrt2":
        return QSqrt2.of(other) - self

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.rat, -self.irr)

    def __mul__(self, other) -> "QSqrt2":
        o = QSqrt2.of(other)
        if not (self.irr or o.irr):
            return QSqrt2(self.rat * o.rat, _ZERO)
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



def _exact_rows(entries: Iterable[Iterable]) -> tuple:
    return tuple(tuple(QSqrt2.of(x) for x in row) for row in entries)


def _symmetric_part(arr: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 as a new array, halved before the sum, which would
    overflow for entries above half the float range.  An exactly symmetric
    A is copied bit for bit."""
    return arr.copy() if np.array_equal(arr, arr.T) else 0.5 * arr + 0.5 * arr.T


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
            # allclose takes about 50 us, three times the rest of the
            # constructor; an exactly symmetric input needs no tolerance, and
            # NaN never compares equal, so it still meets allclose and fails
            if not np.array_equal(arr, arr.T) and not np.allclose(
                    arr, arr.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(arr).max())):
                raise ValueError("entries are not symmetric")
            arr = _symmetric_part(arr)
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
        except (KeyError, IndexError, TypeError, ValueError, OverflowError,
                ZeroDivisionError) as exc:
            raise MatrixFormatError(f"bad exact entry at {where}: {e!r}") from exc
        return QSqrt2(r, s)
    if isinstance(e, int):
        return QSqrt2.of(e)
    raise MatrixFormatError(f"bad exact entry at {where}: {e!r}")


def sym_from_upper(n: int, values) -> np.ndarray:
    """The symmetric n x n matrix whose upper entries (i, j), i <= j, row by
    row, are values."""
    m = np.zeros((n, n))
    iu = np.triu_indices(n)
    m[iu] = values
    m.T[iu] = values
    return m


def _bad_float_entry(entries: list, upper: bool) -> MatrixFormatError:
    """The error naming the first entry that is neither a float nor an
    integer numpy stores in 64 bits (-2**63 <= e < 2**64)."""
    for i, row in enumerate(entries):
        for k, e in enumerate(row):
            if not (isinstance(e, float) or (isinstance(e, int) and -2**63 <= e < 2**64)):
                j = i + k if upper else k
                return MatrixFormatError(f"bad float entry at row {i}, column {j}: {e!r}")
    return MatrixFormatError("float entries do not form a matrix")


def _float_matrix(entries: list, n: int, upper: bool) -> SymMatrix:
    """The float flavor from one numpy conversion of all the entries; the
    per-entry scan runs only to name a bad entry."""
    try:
        vals = np.array(list(itertools.chain.from_iterable(entries)) if upper else entries)
    except ValueError:  # a nested list among the entries
        vals = None
    shape = (n * (n + 1) // 2,) if upper else (n, n)
    if vals is None or vals.dtype.kind not in "biuf" or vals.shape != shape:
        raise _bad_float_entry(entries, upper)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = int(bad[0])
        i, j = (int(ix[k]) for ix in np.triu_indices(n)) if upper else divmod(k, n)
        raise MatrixFormatError(f"non-finite entry at row {i}, column {j}")
    try:
        return SymMatrix(sym_from_upper(n, vals) if upper else vals)
    except ValueError as exc:  # the shape is checked, so only symmetry can fail
        raise MatrixFormatError("matrix is not symmetric") from exc


def matrix_from_json_dict(d: dict) -> SymMatrix:
    """The SymMatrix a matrix JSON object describes.

    The object has the keys "n" (the size, >= 1), "flavor" ("float" or
    "exact") and "entries": either n full rows of n entries, or, for n > 1,
    the upper-triangular rows, row i holding the n - i entries from the
    diagonal on.  A float entry is a finite JSON number, and an integer
    entry must lie in -2**63 <= e < 2**64.  An exact entry is an int or an
    object {"r": [p, q], "s": [p', q']} standing for p/q + (p'/q')*sqrt(2),
    "s" defaulting to 0.  Full float rows must be symmetric to within
    1e-12 * (1 + max |a_ij|); exact rows, exactly.  Any other input raises
    MatrixFormatError naming the first bad row or entry.
    """
    try:
        n = int(d["n"])
        flavor = d["flavor"]
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"missing field: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"bad n: {exc}") from exc
    if flavor not in ("exact", "float"):
        raise MatrixFormatError(f"unknown flavor {flavor!r}")
    if n < 1:
        raise MatrixFormatError("n must be >= 1")
    if not isinstance(entries, list):
        raise MatrixFormatError(f"entries must be a list of rows, got {entries!r}")
    if len(entries) != n:
        raise MatrixFormatError(f"expected {n} rows, got {len(entries)}")
    upper = n > 1 and all(isinstance(row, list) and len(row) == n - i
                          for i, row in enumerate(entries))
    if not upper:
        for i, row in enumerate(entries):
            if not isinstance(row, list):
                raise MatrixFormatError(f"row {i} is not a list: {row!r}")
            if len(row) != n:
                raise MatrixFormatError(f"row {i} has {len(row)} entries, expected {n}")
    if flavor == "float":
        return _float_matrix(entries, n, upper)
    full = [[None] * n for _ in range(n)]
    for i, row in enumerate(entries):
        for k, e in enumerate(row):
            j = i + k if upper else k
            full[i][j] = _parse_exact_entry(e, f"row {i}, column {j}")
            if upper:
                full[j][i] = full[i][j]
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
    return np.linalg.eigh(_symmetric_part(A))


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
        return NegVector(v=v, value=float(v @ _symmetric_part(A) @ v))
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
# exact Schur step, quadratic form and LDL^T decision over Q(sqrt2)
# ---------------------------------------------------------------------------

def schur_complement(rows, k: int):
    """(S, l) for the pivot b_kk != 0 of the symmetric B whose rows are rows:
    the Schur complement S = B_-k,-k - b b^T / b_kk, b = B_-k,k, and the
    multipliers l = b / b_kk, both in the order of the indices other than k.

    Entries are Fraction or QSqrt2.  The pivot is inverted once (a QSqrt2
    division inverts its divisor every time, and 1 / b_kk would multiply the
    inverse by 1), and only the upper triangle of S is computed; it is
    mirrored into the lower.
    """
    col = rows[k]  # B is symmetric: row k is column k
    piv = col[k]
    inv = piv.inverse() if isinstance(piv, QSqrt2) else 1 / piv
    rest = [j for j in range(len(rows)) if j != k]
    b = [col[j] for j in rest]
    mult = [v * inv for v in b]
    s = [[None] * len(rest) for _ in rest]
    for p, j in enumerate(rest):
        row, lp = rows[j], mult[p]
        for q in range(p, len(rest)):
            s[p][q] = s[q][p] = row[rest[q]] - lp * b[q]
    return s, mult


def exact_quadratic(m: SymMatrix, x):
    """x^T M x in exact arithmetic, for x rational or in Q(sqrt2); a float
    entry of M is read exactly in Q, so the value is a Fraction when M is
    float and x rational, and a QSqrt2 otherwise."""
    rows = m.rows() if m.flavor == "exact" else [[Fraction(v) for v in row]
                                                 for row in m.rows().tolist()]
    acc = _ZERO
    for xi, row in zip(x, rows):
        acc = acc + xi * sum((mij * xj for mij, xj in zip(row, x)), _ZERO)
    return acc


@dataclass
class PivotList:
    perm: list  # original index of each elimination step
    pivots: list  # QSqrt2 diagonal pivots, all >= 0


@dataclass
class Refutation:
    x: tuple  # QSqrt2 vector with x^T A x = value < 0, exactly
    value: QSqrt2

    def check(self, m: SymMatrix) -> bool:
        q = exact_quadratic(m, self.x)
        return q == self.value and q < 0


def exact_ldl_psd(m: SymMatrix):
    """Decide PSD-ness of an exact matrix by symmetric-pivoted LDL^T.

    At every step the largest remaining diagonal is selected exactly and
    eliminated by `schur_complement`, with no row or column moved.  A
    negative pivot, or a zero pivot with a nonzero row, yields a Refutation
    whose witness vector has an exactly negative quadratic value: a vector
    z on the remaining indices, pulled back through the recorded
    multipliers by one backward pass.  Symmetric pivoting (rather than
    leading minors) decides singular PSD inputs correctly.
    """
    if m.flavor != "exact":
        raise ValueError("exact flavor required")
    block = m.rows()
    left = list(range(m.n))  # the original index of each row of block
    perm, pivots = [], []
    steps = []  # (pivot, the indices left after it, their multipliers)
    while left:
        k = max(range(len(left)), key=lambda i: block[i][i])
        d = block[k][k]
        sg = d.sign()
        if sg < 0:
            z, value = {left[k]: QSqrt2.of(1)}, d  # the witness on the indices left
            break
        if sg == 0:
            bad = next((j for j, v in enumerate(block[k]) if not v.is_zero()), None)
            if bad is not None:
                # trailing 2x2 [[0, s],[s, dq]]: pick t with 2 t s + dq = -1
                s_ = block[k][bad]
                dq = block[bad][bad]
                t = (QSqrt2.of(-1) - dq) / (QSqrt2.of(2) * s_)
                z, value = {left[k]: t, left[bad]: QSqrt2.of(1)}, QSqrt2.of(-1)
                break
            # a zero row is dropped; the witness is 0 at its index
            block = [[v for j, v in enumerate(row) if j != k]
                     for i, row in enumerate(block) if i != k]
        else:
            block, mult = schur_complement(block, k)
            steps.append((left[k], left[:k] + left[k + 1:], mult))
        pivots.append(d)
        perm.append(left.pop(k))
    else:
        return PivotList(perm=perm, pivots=pivots)
    x = [z.get(i, QSqrt2.of(0)) for i in range(m.n)]
    for p, rest, mult in reversed(steps):
        x[p] = -sum((lj * x[j] for lj, j in zip(mult, rest)), QSqrt2.of(0))
    return Refutation(x=tuple(x), value=value)
