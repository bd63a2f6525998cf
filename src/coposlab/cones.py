"""Membership tests, certificates and refutations for the matrix cone chain

    COP  >=  SPN  >=  PSD u NN  >=  DNN  >=  CP

together with the inner sums-of-squares hierarchy K^(r) approximating COP.
Every positive answer carries a certificate that can be re-checked without
the solver (factor, decomposition pair, Gram matrix, or witness vector);
every negative answer carries a refutation (separating matrix, improving
dual ray, or an explicit vector with negative quadratic value).

COP and CP membership are decidable but intractable in general: testing
copositivity is co-NP-complete (Murty & Kabadi 1987) and testing complete
positivity is NP-hard (Dickinson & Gijben 2014).  So the module offers
one-sided machinery for them: inner certificates via the hierarchy, outer
refutations via Kaplan's scan of the principal submatrices (COP, complete
at n <= 12) or separating hierarchy directions (CP).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .numerics import (CholeskyFactor, PivotList, QSqrt2, SymMatrix, exact_ldl_psd,
                       exact_quadratic, psd_certificate, schur_complement, sym_eigen,
                       sym_from_upper)
from .quartic import monomials, poly_mul, sum_of_squares_poly
from .sdp import (DualRay, EvenSosLayout, LinExpr, SdpProblem, SdpStatus, SdpSolution,
                  even_sos_assemble, gram_form_coeffs, gram_rows, sdp_solve)

BASIC_CONES = ("nn", "psd", "dnn")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class SpnPair:
    p: np.ndarray  # PSD part
    n: np.ndarray  # entrywise nonnegative part

    def check(self, a: np.ndarray, tol: float) -> bool:
        if np.abs(self.p + self.n - a).max() > 10 * tol * (1.0 + np.abs(a).max()):
            return False
        if self.n.min() < -tol:
            return False
        return isinstance(psd_certificate(self.p, max(tol, 1e-12)), CholeskyFactor)


@dataclass
class SosGram:
    basis: List[Tuple[int, ...]]
    gram: np.ndarray

    def residual(self, target: Dict[Tuple[int, ...], float]) -> float:
        got = gram_form_coeffs(self.basis, self.gram)
        keys = set(got) | set(target)
        return max(abs(got.get(k, 0.0) - float(target.get(k, 0))) for k in keys)

    def check(self, target: Dict[Tuple[int, ...], float], tol: float) -> bool:
        if not isinstance(psd_certificate(self.gram, max(tol, 1e-12)), CholeskyFactor):
            return False
        scale = 1.0 + max((abs(float(v)) for v in target.values()), default=0.0)
        return self.residual(target) <= tol * scale


@dataclass
class InfeasibilityCert:
    """Improving dual ray; `separator` is the cone-side matrix when meaningful.

    For SPN and level-0 refutations the separator M is doubly nonnegative
    with <A, M> < 0; for SOS refutations the ray is a moment-type functional
    that is nonnegative on the basis squares but negative on the target.
    """

    ray: DualRay
    separator: Optional[np.ndarray] = None
    note: str = ""

    def check(self, a: SymMatrix, r: int) -> bool:
        """Whether y alone refutes A at level r: y has the shape of the dense
        rows over the degree-(r + 2) monomials (gram_rows), and the moment
        matrix rebuilt from y (_moment_ray), never the stored psd_operators,
        refutes b = quartic_target(A, r) at b's scale (_ray_at_scale)."""
        basis = monomials(a.n, r + 2)
        at, _ = gram_rows(tuple(basis))
        y = np.asarray(self.ray.y, dtype=float)
        if y.shape != (len(at),):
            return False
        target = quartic_target(a, r)
        b = np.array([float(target.get(g, 0)) for g in at])
        try:
            _ray_at_scale(_moment_ray(basis, y, np.zeros(0)), b)
        except RuntimeError:
            return False
        return True


@dataclass
class CopRefutation:
    x: tuple  # rational vector in the simplex
    value: object  # exact x^T A x < 0, or None when no value is stated

    def check_exact(self, a: SymMatrix) -> bool:
        """x >= 0 and x^T A x < 0 (so x != 0), each decided exactly, and
        x^T A x equal to value exactly, unless value is None (none stated)."""
        if not all(t >= 0 for t in self.x):
            return False
        q = exact_quadratic(a, self.x)
        return q < 0 and (self.value is None or q == self.value)


@dataclass
class CpRefutation:
    m: np.ndarray                       # separating matrix, <A, M> < 0
    pairing: float
    level: int
    certificate: Union[SosGram, SpnPair]  # hierarchy certificate for M


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def horn_matrix() -> SymMatrix:
    """The 5x5 +-1 matrix that is copositive but not a PSD + NN sum."""
    h = [[1, -1, 1, 1, -1],
         [-1, 1, -1, 1, 1],
         [1, -1, 1, -1, 1],
         [1, 1, -1, 1, -1],
         [-1, 1, 1, -1, 1]]
    return SymMatrix(h, "exact")


def frobenius(a: SymMatrix, b: SymMatrix):
    """Trace pairing <A,B> = sum_ij A_ij B_ij; exact when both are exact."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.flavor == "exact" and b.flavor == "exact":
        acc = QSqrt2.of(0)
        for i in range(a.n):
            for j in range(a.n):
                acc = acc + a[i, j] * b[i, j]
        return acc
    return float((a.to_numpy() * b.to_numpy()).sum())


def membership_basic(a: SymMatrix, cone: str, tol: float = 1e-9):
    """Membership in NN / PSD / DNN with a re-checkable certificate."""
    if cone not in BASIC_CONES:
        raise ValueError(f"cone must be one of {BASIC_CONES}")
    arr = a.to_numpy()
    if cone == "nn":
        mn = float(arr.min())
        if mn >= -tol:
            return True, {"kind": "nn", "min_entry": mn}
        ij = np.unravel_index(int(np.argmin(arr)), arr.shape)
        return False, {"kind": "nn", "min_entry": mn, "position": tuple(int(v) for v in ij)}
    if cone == "psd":
        cert = psd_certificate(arr, tol)
        return isinstance(cert, CholeskyFactor), cert
    ok_nn, cert_nn = membership_basic(a, "nn", tol)
    ok_psd, cert_psd = membership_basic(a, "psd", tol)
    return ok_nn and ok_psd, {"kind": "dnn", "nn": cert_nn, "psd": cert_psd}


# ---------------------------------------------------------------------------
# SPN via feasibility SDP
# ---------------------------------------------------------------------------

def _upper_pairs(n: int) -> List[Tuple[int, int]]:
    """The upper entries (i, j), i <= j, of an n x n matrix, row by row."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _summand_split(arr: np.ndarray, tol: float) -> Optional[SpnPair]:
    """The P + N split of a matrix already in one summand cone, else None.

    An entrywise nonnegative A splits as P = diag(A), N = A - diag(A); a PSD
    A (psd_certificate gives a factor) as P = A, N = 0.
    """
    if arr.min() >= -tol:
        p = np.diag(np.diag(arr))
        return SpnPair(p=p, n=arr - p)
    if isinstance(psd_certificate(arr, tol), CholeskyFactor):
        return SpnPair(p=arr, n=np.zeros_like(arr))
    return None


def spn_decompose(a: SymMatrix, tol: float = 1e-9):
    """Split A = P + N with P PSD and N >= 0, or produce a separating matrix.

    The summand cones are tried first (_summand_split); only a matrix that
    is in neither goes to the feasibility SDP.  Either way a positive answer
    is an SpnPair, checked by SpnPair.check like any other.  Infeasibility
    yields M in DNN with <A, M> < 0 (the dual ray), which refutes membership
    against every conceivable P + N split.
    """
    arr = a.to_numpy()
    pair = _summand_split(arr, tol)
    return pair if pair is not None else _spn_sdp(arr, tol)


def pn_problem(c: np.ndarray, d: Optional[np.ndarray] = None) -> SdpProblem:
    """The P + N rows P_ij + N_ij = C_ij, i <= j, P PSD and N >= 0 entrywise.

    Given a direction D the rows become P + N - t D = C in one free variable
    t, and the objective maximizes t: the radius of C along D inside SPN.
    """
    n = c.shape[0]
    pairs = _upper_pairs(n)
    prob = SdpProblem(psd_block_dims=[n], nonneg_dim=len(pairs),
                      free_dim=0 if d is None else 1)
    for k, (i, j) in enumerate(pairs):
        expr = LinExpr().add_psd_entry(0, i, j, 1.0).add_nonneg(k, 1.0)
        if d is not None:
            expr.add_free(0, -float(d[i, j]))
        prob.constraints.append((expr, float(c[i, j])))
    if d is not None:
        prob.objective = LinExpr().add_free(0, -1.0)
    return prob


def _spn_sdp(arr: np.ndarray, tol: float):
    """The P + N feasibility SDP of spn_decompose, for any symmetric arr."""
    n = arr.shape[0]
    sol = sdp_solve(pn_problem(arr), tol=tol)
    if sol.status in (SdpStatus.FEASIBLE_POINT, SdpStatus.OPTIMAL):
        return SpnPair(p=sol.psd_blocks[0], n=sym_from_upper(n, sol.nonneg))
    if sol.status == SdpStatus.INFEASIBLE:
        ray = _ray_at_scale(sol.dual_ray, arr[np.triu_indices(n)])
        # row (i, j) pairs with M_ij once on the diagonal and twice off it
        m = sym_from_upper(n, -ray.y)
        m = (m + np.diag(np.diag(m))) / 2.0
        return InfeasibilityCert(ray=ray, separator=m, note="M is DNN with <A, M> = -1")
    raise _indeterminate(sol)


def _moment_ray(basis: List[Tuple[int, ...]], y: np.ndarray, free_part: np.ndarray) -> DualRay:
    """The ray of a moment functional y on the gram_rows rows of basis, then
    any appended rows: its moment matrix -A^T y = -y[pos], and free_part."""
    _, pos = gram_rows(tuple(basis))
    return DualRay(y=y, psd_operators=[-y[pos]], nonneg_part=np.zeros(0), free_part=free_part)


def _ray_at_scale(ray: DualRay, b: np.ndarray) -> DualRay:
    """The solver's ray for the right-hand side b if it refutes at b's scale:
    a point the size of b, paired with the ray's violation, must not make up
    b^T y, so violation * |b|_1 < b^T y / 2.  Else, as on badly scaled
    inputs, RuntimeError: the answer is unknown."""
    viol, size, by = ray.max_violation(), float(np.abs(b).sum()), float(b @ ray.y)
    if viol * size < 0.5 * by:
        return ray
    raise RuntimeError(f"solver ray does not refute at the input's scale: violation "
                       f"{viol:.3g}, |b|_1 {size:.3g}, b^T y {by:.3g}")


def _indeterminate(sol: SdpSolution) -> RuntimeError:
    return RuntimeError(f"solver indeterminate: {sol.message} (residuals {sol.residuals})")


# ---------------------------------------------------------------------------
# the SOS hierarchy
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _kr_coefficients(n: int, r: int) -> Dict[Tuple[int, ...], Dict[int, int]]:
    """The one expansion of (sum_i x_i^2)^r q_M: for each x^gamma the integer
    coefficients c_k, x^gamma's coefficient being sum_k c_k M_k over the
    upper entries M_k in _upper_pairs order.  Cached and shared: read-only."""
    rk = {(0,) * n: 1}
    for _ in range(r):
        rk = poly_mul(rk, sum_of_squares_poly(n))
    coef: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for k, (i, j) in enumerate(_upper_pairs(n)):
        base = tuple((2 if t == i else 0) + (2 if t == j else 0) for t in range(n))
        for gamma, c in poly_mul({base: 1 if i == j else 2}, rk).items():
            coef.setdefault(gamma, {})[k] = int(c)
    return coef


def quartic_target(a: SymMatrix, r: int) -> Dict[Tuple[int, ...], object]:
    """Coefficient map of (sum_i x_i^2)^r q_A, sum_k c_k a_k over _kr_coefficients
    with zeros dropped: Fractions for exact input (an irrational Q(sqrt2)
    entry enters as its float), floats for float input."""
    exact = a.flavor == "exact"
    vals = [(v.rat if v.is_rational() else float(v)) if exact else float(v)
            for v in (a[i, j] for i, j in _upper_pairs(a.n))]
    out = {}
    for gamma, row in _kr_coefficients(a.n, r).items():
        v = sum(c * vals[k] for k, c in row.items())
        if v != 0:
            out[gamma] = v
    return out


def _pairing_expr(a: np.ndarray) -> LinExpr:
    """<A, M> over the free scalars M_ij, i <= j, of a symmetric M."""
    expr = LinExpr()
    for k, (i, j) in enumerate(_upper_pairs(a.shape[0])):
        expr.add_free(k, float(a[i, j]) * (1.0 if i == j else 2.0))
    return expr


def kr_problem(n: int, r: int, target: Optional[Dict[Tuple[int, ...], object]] = None):
    """The K^(r) model: (sum_i x_i^2)^r q_M, as _kr_coefficients expands it,
    a sum of squares, solved block-diagonally by exponent parity
    (even_sos_assemble).  Without a target M is free, one scalar per upper
    entry (read it back with sym_from_upper), and callers append their rows
    and objective; a target, quartic_target(A, r), fixes M to A.  Returns
    the problem and its EvenSosLayout."""
    if target is not None:
        return even_sos_assemble(monomials(n, r + 2), target)
    return even_sos_assemble(monomials(n, r + 2), {}, _kr_coefficients(n, r), n * (n + 1) // 2)


def _kr_answer(prob: SdpProblem, layout: EvenSosLayout, sol: SdpSolution, target, note: str):
    """The one readback of a kr_problem solve: the Gram on a solution; on
    infeasibility y scattered onto the rows of gram_rows, plus any appended
    ones, with Z from y (_moment_ray), if it refutes at the scale of b, the
    target there followed by the appended right-hand sides (_ray_at_scale);
    else RuntimeError."""
    if sol.status in (SdpStatus.FEASIBLE_POINT, SdpStatus.OPTIMAL):
        return SosGram(basis=layout.basis, gram=layout.gram(sol))
    if sol.status != SdpStatus.INFEASIBLE:
        raise _indeterminate(sol)
    at, _ = gram_rows(tuple(layout.basis))
    ray, nrows = sol.dual_ray, len(layout.rows)
    y = np.r_[np.zeros(len(at)), ray.y[nrows:]]
    y[[at[g] for g in layout.rows]] = ray.y[:nrows]
    b = [float(target.get(g, 0)) for g in at] + [rhs for _, rhs in prob.constraints[nrows:]]
    moment = _moment_ray(layout.basis, y, ray.free_part.copy())
    return InfeasibilityCert(_ray_at_scale(moment, np.array(b)), note=note)


def parrilo_member(a: SymMatrix, r: int, tol: float = 1e-9):
    """Decide whether (sum x_i^2)^r q_A is a sum of squares.

    Level 0 is K^(0) = PSD + NN and solves the P + N SDP (_spn_sdp): a split
    becomes its Gram (_summand_gram) and a DNN separator its functional
    (_level0_ray).  Level 1 already contains the Horn matrix.  At r >= 1 a
    matrix in a summand cone (_summand_split at tol) lies in every K^(r),
    and its Gram is written down from the split without an SDP.  Likewise a
    matrix with a negative vertex (_negative_vertex) is not copositive, so
    it lies in no K^(r), and its separating functional is written down from
    the vertex (_vertex_ray).  Otherwise it solves kr_problem with M fixed
    to A, read back by _kr_answer: a Gram certificate over the full
    homogeneous monomial basis of degree r + 2, or the separating moment
    functional on the dense rows of gram_rows over that basis, which counts
    only at the input's scale; else RuntimeError.  Every level's functional
    y carries its moment matrix -y[pos] (_moment_ray), so
    InfeasibilityCert.check(A, r) re-checks it from y alone.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n = a.n
    arr = a.to_numpy()
    if r == 0:
        res = _spn_sdp(arr, tol)
        return _summand_gram(res, 0) if isinstance(res, SpnPair) else _level0_ray(res.separator)
    pair = _summand_split(arr, tol)
    if pair is not None:
        return _summand_gram(pair, r)
    vertex = _negative_vertex(arr, tol)
    if vertex is not None:
        return _vertex_ray(n, r, *vertex)
    target = quartic_target(a, r)
    prob, layout = kr_problem(n, r, target)
    return _kr_answer(prob, layout, sdp_solve(prob, tol=tol), target,
                      "moment functional separating the target from SOS")


def _level0_ray(m: np.ndarray) -> InfeasibilityCert:
    """parrilo_member's level-0 functional, over the dense rows of
    gram_rows, of a DNN M with <A, M> = -1: y = -M_ij on the row of
    x_i^2 x_j^2 and 0 elsewhere, so b^T y = 1, and -A^T y on the full Gram
    (_moment_ray) is M on the squares and M_ij on each x_i x_j, PSD as M
    is."""
    n = m.shape[0]
    basis = monomials(n, 2)
    at, _ = gram_rows(tuple(basis))
    y = np.zeros(len(at))
    for i, j in _upper_pairs(n):
        y[at[tuple(2 * (t == i) + 2 * (t == j) for t in range(n))]] = -m[i, j]
    return InfeasibilityCert(ray=_moment_ray(basis, y, np.zeros(0)), separator=m,
                             note="moment functional of the DNN M")


def _summand_gram(pair: SpnPair, r: int) -> SosGram:
    """The level-r Gram of (sum x_i^2)^r q_A, A = P + N, over the degree-(r + 2)
    monomials.

    Level 0 puts P + diag(N) on the squares x_i^2 and 2 N_ij on the diagonal
    entry of each x_i x_j, i < j; it is PSD because P is and N >= 0.  With
    (sum x_i^2)^r = sum over |alpha| = r of c_alpha x^(2 alpha), c_alpha the
    multinomial coefficient, level r places c_alpha times the level-0 Gram
    on the monomials x^alpha m, one PSD term per alpha.
    """
    n = pair.p.shape[0]
    quad = monomials(n, 2)
    at = {m: k for k, m in enumerate(quad)}
    squares = [at[tuple(2 if t == i else 0 for t in range(n))] for i in range(n)]
    level0 = np.zeros((len(quad), len(quad)))
    level0[np.ix_(squares, squares)] = pair.p + np.diag(np.diag(pair.n))
    for i, j in combinations(range(n), 2):
        k = at[tuple(1 if t in (i, j) else 0 for t in range(n))]
        level0[k, k] = 2.0 * pair.n[i, j]
    basis = monomials(n, r + 2)
    pos = {m: k for k, m in enumerate(basis)}
    gram = np.zeros((len(basis), len(basis)))
    for alpha in monomials(n, r):
        c = math.factorial(r) // math.prod(math.factorial(e) for e in alpha)
        idx = [pos[tuple(a + e for a, e in zip(alpha, m))] for m in quad]
        gram[np.ix_(idx, idx)] += c * level0
    return SosGram(basis=basis, gram=gram)


def _negative_vertex(arr: np.ndarray, tol: float) -> Optional[Tuple[Tuple[int, ...], float]]:
    """A support S, |S| <= 3, whose indicator x has x^T A x = sum of A over
    S x S negative beyond tol times the sum of |A| there, and that value;
    None when there is none.

    These are the vertices, edge midpoints and triangle centroids of the
    simplex: a negative diagonal, a_ii + a_jj + 2 a_ij < 0, or a triangle as
    in the +-1 matrices with three -1 entries.  Of several, the one most
    negative at the simplex point x / |S| is returned.
    """
    n = arr.shape[0]
    sups = [s for k in (1, 2, 3) for s in combinations(range(n), k)]
    x = np.zeros((len(sups), n))
    for row, s in enumerate(sups):
        x[row, list(s)] = 1.0
    vals = np.einsum("ki,ij,kj->k", x, arr, x)
    mags = np.einsum("ki,ij,kj->k", x, np.abs(arr), x)
    scaled = np.where(vals < -tol * mags, vals / x.sum(axis=1) ** 2, np.inf)
    k = int(np.argmin(scaled))
    return None if scaled[k] == np.inf else (sups[k], float(vals[k]))


def _vertex_ray(n: int, r: int, support: Tuple[int, ...], value: float) -> InfeasibilityCert:
    """The separating functional of parrilo_member for x = 1_S with
    x^T A x = value < 0, over the dense rows of gram_rows.

    L averages the evaluations at the sign flips of x: L(x^gamma) = 1 for an
    even gamma supported in S and 0 otherwise.  It is nonnegative on every
    square, being an average of evaluations, and on the target it is
    |S|^r value < 0; y = -L / (|S|^r |value|) makes b^T y = 1.  -A^T y on
    the full Gram is then L(m_i m_j) / (|S|^r |value|): one all-ones block
    per exponent-parity class of the monomials supported in S, so PSD.
    """
    scale = len(support) ** r * -value
    outside = [t for t in range(n) if t not in support]
    basis = monomials(n, r + 2)
    at, _ = gram_rows(tuple(basis))
    moments = [all(e % 2 == 0 for e in g) and not any(g[t] for t in outside) for g in at]
    ray = _moment_ray(basis, np.where(moments, -1.0 / scale, 0.0), np.zeros(0))
    return InfeasibilityCert(ray=ray, note=f"moment functional of the sign flips of x = 1 on "
                                           f"{list(support)}, where x^T A x = {value:.6g} < 0")


def cop_inner(a: SymMatrix, tol: float = 1e-9) -> Optional[Tuple[int, SosGram]]:
    """The lowest level r <= 1 at which (sum x_i^2)^r q_A is a sum of
    squares, with its Gram certificate; None when neither level certifies.

    A matrix in a summand cone (_summand_split at tol) gets its level-0 Gram
    (_summand_gram at r = 0) here, without the P + N SDP that parrilo_member
    solves at level 0.  A matrix with a negative vertex (_negative_vertex at
    the levels' tolerance) is not copositive and lies in no K^(r), so it
    gets None without an SDP.  Otherwise parrilo_member runs at r = 0 and
    then r = 1, at tol raised to 1e-7 at least, and a level that leaves the
    solver indeterminate counts as not certified.
    Level 1 runs only for n >= 5: for n <= 4 every copositive matrix is
    PSD + NN (Diananda 1962), so every level of the hierarchy equals K^(0)
    and no level certifies a matrix that level 0 does not.
    """
    arr = a.to_numpy()
    pair = _summand_split(arr, tol)
    if pair is not None:
        return 0, _summand_gram(pair, 0)
    level_tol = max(tol, 1e-7)
    if _negative_vertex(arr, level_tol) is not None:
        return None
    for r in ((0, 1) if a.n >= 5 else (0,)):
        try:
            res = parrilo_member(a, r, level_tol)
        except RuntimeError:
            continue
        if isinstance(res, SosGram):
            return r, res
    return None


# ---------------------------------------------------------------------------
# copositivity refutation: Kaplan's support scan, simplex descent above it
# ---------------------------------------------------------------------------

# Kaplan's scan runs over all 2^n - 1 principal submatrices, so it stops here
KAPLAN_MAX_N = 12
_DESCENT_STARTS, _DESCENT_SEED = 64, 0  # cop_refute's simplex descent above it


def _supports(n: int) -> Iterator[np.ndarray]:
    """The supports S of {0, ..., n - 1} as rows of indices, one array per
    size 1..n, each built only when the iteration reaches it."""
    return (np.array(list(combinations(range(n), size))) for size in range(1, n + 1))


def _kaplan_eigh(blocks: np.ndarray, linv: Optional[np.ndarray] = None):
    """Per gathered principal submatrix A_S of a stack, shape (..., s, s):
    the eigenvalues mu of W_S = L_S^{-1} A_S L_S^{-T}, their eigenvectors w
    mapped to x = L_S^{-T} w (columns), and whether each x is strictly
    one-signed.  `linv` stacks the L_S^{-1}, broadcast against `blocks`;
    None for L_S = I."""
    w = blocks
    if linv is not None:
        w = linv @ w @ np.swapaxes(linv, -1, -2)
        w = 0.5 * (w + np.swapaxes(w, -1, -2))
    mu, vec = np.linalg.eigh(w)
    x = vec if linv is None else np.swapaxes(linv, -1, -2) @ vec
    return mu, x, np.all(x > 0, axis=-2) | np.all(x < 0, axis=-2)


def _gather(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The principal submatrices A_S of a stack, shape (..., n, n), one per
    support S, a row of idx: shape (..., supports, s, s)."""
    return mats[..., idx[:, :, None], idx[:, None, :]]


def _kaplan_min(mats: np.ndarray, supports, support_inv=None) -> np.ndarray:
    """Per matrix of a stack, the smallest mu of `_kaplan_eigh` with a
    one-signed x, over the supports of every size (`supports`, with the
    stacks of their L_S^{-1} in `support_inv`); +inf when there is none.
    Every support goes to `eigh`; the cop radius prunes this scan
    (`volume._radial_cop`), while the peel of `volume._peel_certifies`,
    which judges at a tolerance, keeps it whole."""
    low = np.full(len(mats), np.inf)
    for idx, linv in zip(supports, support_inv or [None] * len(supports)):
        mu, _, signed = _kaplan_eigh(_gather(mats, idx), linv)
        low = np.minimum(low, np.where(signed, mu, np.inf).reshape(len(mats), -1).min(axis=1))
    return low


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto the probability simplex."""
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, v.shape[1] + 1) > 0
    # rho: one past the last True of cond in each row
    rho = v.shape[1] - np.argmax(cond[:, ::-1], axis=1)
    theta = np.take_along_axis(css, rho[:, None] - 1, axis=1) / rho[:, None]
    return np.clip(v - theta, 0.0, None)


def _simplex_descent(arr: np.ndarray) -> Tuple[np.ndarray, float]:
    """The lowest x^T A x, with its x, that projected-gradient descent on the
    simplex reaches from `_DESCENT_STARTS` seeded starts, stepped together as
    the rows of one array; a local search, so a value >= 0 proves nothing."""
    rng = np.random.RandomState(_DESCENT_SEED)
    eta = 0.5 / max(float(np.abs(arr).sum(axis=1).max()), 1e-12)  # row sums bound ||A||_2
    x = rng.exponential(size=(_DESCENT_STARTS, arr.shape[0]))
    x /= x.sum(axis=1, keepdims=True)
    for _ in range(250):
        x = _project_simplex(x - eta * 2.0 * (x @ arr))
    vals = np.einsum("ai,ij,aj->a", x, arr, x)
    k = int(np.argmin(vals))
    return x[k], float(vals[k])


def cop_refute(a: SymMatrix, tol: float = 1e-9) -> Optional[CopRefutation]:
    """A rational x >= 0 with x^T A x < 0, re-checked exactly, or None.

    At n <= KAPLAN_MAX_N the scan is complete (Kaplan 2000, LAA 313): A is
    copositive iff no A_S has a strictly one-signed eigenvector v with
    eigenvalue mu < 0.  On the first support size, built one at a time,
    where the least such mu is below -tol (1 + max |a_ij|), x = |v| / sum |v|
    on S is the witness; None means copositive within tol.
    Above KAPLAN_MAX_N only `_negative_vertex` and `_simplex_descent` search,
    and None proves nothing.

    The scan is not pruned as the cop radius's is (`volume._radial_cop`).
    The Cottle-Habetler-Lemke test that prunes there needs every smaller
    support copositive, but one whose least mu lies in [-tol (1 + max |a_ij|),
    0) passes here without being copositive, so the test could drop the
    support that refutes; and one matrix sends at most 2^n - 1 blocks to
    `eigh`, about 25 ms at n = 12.
    """
    n = a.n
    arr = a.to_numpy()
    if n <= KAPLAN_MAX_N:
        bound = -tol * (1.0 + np.abs(arr).max())
        for idx in _supports(n):
            mu, x, signed = _kaplan_eigh(_gather(arr, idx))
            s, k = np.unravel_index(int(np.argmin(np.where(signed, mu, np.inf))), mu.shape)
            if signed[s, k] and mu[s, k] < bound:
                v = np.zeros(n)
                v[idx[s]] = np.abs(x[s][:, k])
                cert = _exact_witness(a, v)
                if cert is not None:
                    return cert
        return None
    vertex = _negative_vertex(arr, tol)
    cert = vertex and _exact_witness(a, np.isin(np.arange(n), vertex[0]) / len(vertex[0]))
    if cert is not None:
        return cert
    x, value = _simplex_descent(arr)
    return _exact_witness(a, x) if value < -tol else None


def _exact_witness(a: SymMatrix, x: np.ndarray) -> Optional[CopRefutation]:
    """x >= 0 scaled onto the simplex and rounded to k / den, den = 10^6 then
    10^12, with integers k >= 0 whose rounding shortfall goes to the largest,
    so sum k = den; with its exact x^T A x, when that is negative."""
    x = x / x.sum()
    for den in (10 ** 6, 10 ** 12):
        k = [int(t) for t in np.rint(x * den)]
        k[int(np.argmax(k))] += den - sum(k)
        xr = tuple(Fraction(t, den) for t in k)
        value = exact_quadratic(a, xr)
        if value < 0:
            return CopRefutation(x=xr, value=value)
    return None


# ---------------------------------------------------------------------------
# complete-positivity refutation via hierarchy separators
# ---------------------------------------------------------------------------

def _cp_threshold(arr: np.ndarray, tol: float) -> float:
    # a refutation must be negative beyond solver noise: boundary-CP inputs
    # (rank-one J, say) have a true optimum of zero that the solver reports
    # as a tiny negative number
    return max(100.0 * tol, 1e-6) * (1.0 + float(np.abs(arr).max()))


def _exact_schur(block: List[List[Fraction]], i: int) -> Optional[List[List[Fraction]]]:
    """S = B_-i,-i - b_-i,i b_-i,i^T / b_ii when b_ii > 0 and S >= 0
    entrywise, both exactly; else None."""
    if block[i][i] <= 0:
        return None
    s, _ = schur_complement(block, i)
    return s if all(v >= 0 for row in s for v in row) else None


def _cp_peel(arr: np.ndarray) -> Optional[List[int]]:
    """The pivots (indices of arr) of an exact proof that arr, read exactly
    in Q, is completely positive; None when the greedy peel finds none.

    A nonnegative A and a pivot i with a_ii > 0 split A into the nonnegative
    rank one a_.i a_.i^T / a_ii and 0 (+) S, where
    S = A_-i,-i - a_-i,i a_-i,i^T / a_ii is the Schur complement.  While S
    is nonnegative, nonzero and of order above 4, it is peeled in turn.  The
    last block is nonnegative, and exact_ldl_psd decides whether it is PSD;
    A is PSD exactly when it is, every pivot being > 0.  A PSD last block is
    DNN of order <= 4, hence CP (Maxfield & Minc 1962), and A is a sum of CP
    matrices (the reduction of Berman & Shaked-Monderer 2003).  Every sign
    is decided exactly, on Fraction(float), which is exact.

    Pivots are taken greedily, the one whose float S has the largest least
    entry first.  A float screen skips a pivot whose float S has an entry
    below -1e-12 (1 + max |a|).  Where S >= 0 exactly, every term it
    subtracts is at most the entry it comes from, so rounding moves the
    float S by a few ulps of max |a|: the screen skips only pivots that the
    exact test would refuse.
    """
    if not np.isfinite(arr).all() or arr.min() < 0:
        return None
    slack = -1e-12 * (1.0 + float(arr.max()))
    idx = list(range(arr.shape[0]))
    block = [[Fraction(v) for v in row] for row in arr.tolist()]
    pivots: List[int] = []
    while len(idx) > 4 and any(map(any, block)):  # a zero block is CP at any order
        f = np.array(block, dtype=float)
        d, k = np.diag(f), np.arange(len(idx))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = f - f[:, :, None] * f[:, None, :] / d[:, None, None]  # s[i]: 0 (+) S of pivot i
        s[k, k, :] = s[k, :, k] = np.inf
        least = s.min(axis=(1, 2))
        least[d <= 0] = -np.inf
        for i in np.argsort(-least, kind="stable").tolist():
            if not least[i] >= slack:  # NaN fails too
                return None
            schur = _exact_schur(block, i)
            if schur is not None:
                pivots.append(idx.pop(i))
                block = schur
                break
        else:
            return None
    return pivots if isinstance(exact_ldl_psd(SymMatrix(block, "exact")), PivotList) else None


def cp_refute(a: SymMatrix, r: int = 1, tol: float = 1e-8) -> Optional[CpRefutation]:
    """Look for M in K^(r) with <M, I + J> = 1 and <A, M> < 0.

    A strictly negative pairing separates A from the completely positive
    cone (CP is dual to COP and K^(r) sits inside COP); the witness M ships
    with its own hierarchy certificate.  Returns None when min <A, M> over
    that slice is not negative beyond solver resolution.  The steps, in
    order; the first M that refutes is the answer, so its pairing need not
    be the minimum:

    1. NN vertex.  The entrywise nonnegative M lie in K^(0) and so in every
       K^(r); over them the minimum is at a vertex M with M_ij = M_ji = 1/2
       and zeros elsewhere, which pairs with A as a_ij off the diagonal and
       as a_ii / 2 on it.  If that is negative beyond solver resolution, the
       answer is a level-0 refutation with the certificate SpnPair(0, M).
    2. PSD slice, at every n.  The slice of K^(0) = PSD + NN is the convex
       hull of its PSD and NN slices, so its minimum is the smaller of the
       NN vertex value and the PSD minimum; with I + J = L L^T the latter is
       lambda_min(L^-1 A L^-T), attained at the rank-one M = L^-T v v^T L^-1
       for the bottom eigenvector v, which comes with SpnPair(M, 0).  A
       negative value refutes at level 0 for every r, as K^(0) is inside
       K^(r).  For n <= 4 every copositive matrix is PSD + NN (Diananda
       1962), so K^(1) = K^(0) and r = 1 ends here too.
    3. Peel (r = 1, n >= 5).  When _cp_peel proves A completely positive,
       no M in COP pairs negatively with it, and the answer is None with no
       SDP.  This None is exact: A, read exactly in Q, is CP.
    4. Horn orbit (r = 1, n = 5).  Each P H P^T / 10 of the Horn orbit
       (_horn_orbit, <H, I + J> = 10) lies in K^(1) by Parrilo's integer
       identity (_horn_gram) and meets the row <I + J, M> = 1, so it is a
       feasible point of the SDP below.  If the least of their pairings is
       negative beyond solver resolution, it is the answer, a level-1
       refutation whose Gram is exact up to the division by 10 and needs no
       solver.  The SDP would refute every such input too.  Only at n = 5:
       for n >= 6, H (+) 0 is not in K^(1), as the coefficient of x_6^2 in
       (sum x_i^2) q would be q_H itself, which is not SOS.
    5. SDP (r = 1, n >= 5).  kr_problem's free-M model at r = 1 with the row
       <I + J, M> = 1 appended (_cp_sdp); the certificate is a Gram matrix
       over the full degree-3 basis.
    """
    if r not in (0, 1):
        raise ValueError("r must be 0 or 1 at desk scale")
    n = a.n
    arr = a.to_numpy()
    weighted = arr - 0.5 * np.diag(np.diag(arr))  # <A, M> of each vertex M
    i, j = np.unravel_index(int(np.argmin(weighted)), arr.shape)
    if weighted[i, j] < -_cp_threshold(arr, tol):
        m = np.zeros_like(arr)
        m[i, j] = m[j, i] = 0.5
        return CpRefutation(m=m, pairing=float((arr * m).sum()), level=0,
                            certificate=SpnPair(p=np.zeros_like(arr), n=m))
    # the NN vertices did not refute, so at level 0 only the PSD slice can:
    # with M = L^-T X L^-1 it is trace(X) = 1, X PSD, minimized at X = v v^T
    lower = np.linalg.cholesky(np.eye(n) + 1.0)
    w = np.linalg.solve(lower, np.linalg.solve(lower, arr).T)
    _, vecs = sym_eigen(w)
    u = np.linalg.solve(lower.T, vecs[:, 0])
    m = np.outer(u, u)
    pairing = float((arr * m).sum())
    if pairing < -_cp_threshold(arr, tol):
        return CpRefutation(m=m, pairing=pairing, level=0,
                            certificate=SpnPair(p=m, n=np.zeros_like(arr)))
    if r == 0 or n <= 4 or _cp_peel(arr) is not None:
        return None
    if n == 5 and (res := _horn_refutation(arr, tol)) is not None:
        return res
    return _cp_sdp(arr, tol)


@functools.lru_cache(maxsize=None)
def _horn_orbit() -> np.ndarray:
    """The 12 distinct P H P^T over the 120 permutation matrices P, H the
    Horn matrix, stacked (12, 5, 5) in integers in the order the
    permutations first reach them.  Built on first use; read-only."""
    h = horn_matrix().to_numpy().astype(np.int64)  # entries +-1, exact in floats
    orbit: Dict[bytes, np.ndarray] = {}
    for p in permutations(range(5)):
        m = h[np.ix_(p, p)]
        orbit.setdefault(m.tobytes(), m)
    out = np.array(list(orbit.values()))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _horn_gram(k: int) -> np.ndarray:
    """The integer Gram, over monomials(5, 3), of Parrilo's identity for
    M = _horn_orbit()[k]:

        (sum_i x_i^2) q_M = sum_i (sum_j M_ij x_i x_j^2)^2 + 4 sum_T (x_a x_b x_c)^2,

    T over the five triples {a, b, c} with exactly one -1 entry of M.  A sum
    of rank ones with integer vectors, so PSD exactly.  Read-only."""
    m = _horn_orbit()[k]
    pos = {g: t for t, g in enumerate(monomials(5, 3))}
    gram = np.zeros((len(pos), len(pos)), dtype=np.int64)
    for i in range(5):
        v = np.zeros(len(pos), dtype=np.int64)
        for j in range(5):
            v[pos[tuple((t == i) + 2 * (t == j) for t in range(5))]] += m[i, j]
        gram += np.outer(v, v)
    for tri in combinations(range(5), 3):
        if sum(m[a, b] < 0 for a, b in combinations(tri, 2)) == 1:
            t = pos[tuple(int(s in tri) for s in range(5))]
            gram[t, t] += 4
    gram.flags.writeable = False
    return gram


def _horn_refutation(arr: np.ndarray, tol: float) -> Optional[CpRefutation]:
    """Step 4 of cp_refute at n = 5: the orbit matrix M = P H P^T / 10 with
    the least <A, M>, with its Gram _horn_gram / 10, when that pairing is
    negative beyond _cp_threshold; else None."""
    orbit = _horn_orbit()
    pairings = np.einsum("kij,ij->k", orbit, arr)
    k = int(np.argmin(pairings))
    if not pairings[k] / 10.0 < -_cp_threshold(arr, tol):  # NaN refutes nothing
        return None
    m = orbit[k] / 10.0
    return CpRefutation(m=m, pairing=float((arr * m).sum()), level=1,
                        certificate=SosGram(basis=monomials(5, 3), gram=_horn_gram(k) / 10.0))


def _cp_sdp(arr: np.ndarray, tol: float) -> Optional[CpRefutation]:
    """Step 5 of cp_refute: min <A, M> over kr_problem's free M at r = 1
    with the row <I + J, M> = 1; a level-1 refutation when the optimum is
    negative beyond _cp_threshold, None when it is not, RuntimeError when
    the solver ends short of an optimum."""
    n = arr.shape[0]
    prob, layout = kr_problem(n, 1)
    prob.constraints.append((_pairing_expr(np.eye(n) + 1.0), 1.0))
    prob.objective = _pairing_expr(arr)
    sol = sdp_solve(prob, tol=tol)
    if sol.status != SdpStatus.OPTIMAL:
        raise _indeterminate(sol)
    if sol.objective_value >= -_cp_threshold(arr, tol):
        return None
    m = sym_from_upper(n, sol.free)
    return CpRefutation(m=m, pairing=float((arr * m).sum()), level=1,
                        certificate=SosGram(basis=layout.basis, gram=layout.gram(sol)))
