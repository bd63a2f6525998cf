"""Small dense semidefinite programming over products of PSD blocks,
a nonnegative orthant and free scalars, plus SOS Gram-matrix assembly.

Every SOS target of the hierarchy, (sum x_i^2)^r q_A, is even in each
variable, so its Gram matrix splits into one block per exponent-parity class
of the monomial basis (Gatermann and Parrilo 2004).  even_sos_assemble builds
that block problem: one PSD block per class of two or more monomials, an
orthant scalar per class of one, and rows only for even monomials.  Its
certificates are still given on the full monomial basis (a K x K Gram
matrix) and, for infeasibility, on the dense coefficient rows.  gram_rows
is the one home of that row order: it maps each product monomial of the
basis to its dense row, and sos_gram_assemble, gram_form_coeffs and every
moment matrix -A^T y read it.  The dense problem stays as the reference
form.

The solver is a primal-dual path-following method on the homogeneous
self-dual embedding (HSDE).  The embedding is what turns infeasibility into
a certificate: when tau -> 0 with kappa > 0 the iterate yields an improving
dual ray y with b^T y > 0 whose pulled-back operator -A^T y lies in the
cone, re-checkable independently of the solver.  Each PSD block is scaled
by Nesterov and Todd, computed from Cholesky factors of X and S and an SVD
(Todd, Toh and Tutuncu 1998; Vandenberghe 2010, section 4), so no square
root or inverse of a nearly singular block is formed.  In the scaled space
X and S are the same diagonal matrix; there the complementarity is
linearized and the step to the boundary is read off.  Each step is a
Mehrotra predictor-corrector: an affine direction fixes the centering
parameter and its second-order term corrects the combined direction.
Each KKT solve is one LU solve in double precision.  Both the affine and
the combined direction are refined on the full Newton system (Vandenberghe
2010, section 4), at most two rounds each: a correction is kept only if it
lowers the residual of the whole system, so no worse direction is accepted,
and a direction stops refining at its first rejected round.  The affine
direction is refined like the combined one because its error enters the
corrector.  The complementarity rows of every right-hand side are formed in
the scaled space, as R Q R^T, so they match the scaling H is built from.
When the combined direction's step collapses, a nearly pure centering
direction is tried before the solve gives up.  A scaling, KKT matrix or
direction that is not finite ends the solve as INDETERMINATE with the
reason.

Problems here are tiny (total block size <= ~100, a few hundred equality
constraints), so everything is dense numpy and deterministic: identical
inputs produce bitwise-identical iterates.  _Layout is the one place that
knows a block layout: it checks each row of a problem as it writes it into
the standard form, and it places each problem's iterate in one flat vector
(x, y, tau, kappa, s).  A problem's data is one matrix
E = [[A, b], [c^T, 0]], so the loop's residuals and objectives are two
matvecs (_linear_rows); the step reuses them as the linear rows of its
right-hand sides, and the update is one axpy.  H and the KKT matrix are
written into arrays allocated once per solve.  At these sizes a step costs
its numpy calls, not its flops.  The K^(1) solve of the bundled C at n = 5
(five 5x5 blocks, 10 orthant scalars, 35 rows, 11 iterations) takes, on a
2-core x86-64 host, the least of three runs:

    problems in the stack     1     2     4     8    16
    ms                      9.5  12.6  16.8  26.1  44.1

so a solo solve takes about 0.85 ms an iteration, and each further problem
of a stack about 2.3 ms.

The interior-point loop works on a leading stack axis: sdp_solve_many solves
problems of one layout (block sizes, orthant and free dimensions, rows kept
by presolve) together, and sdp_solve is a stack of one.  Each problem
decides for itself.  Its convergence, certificate and unboundedness tests,
its KKT factorization and regularization retries, its refinement and
centering fallback and its breakdowns are masks over the stack or loops over
the problems concerned, and a problem leaves the stack when it ends.
Within a problem, the PSD blocks of one size share a second stack axis, so
the cone work of a Newton step (NT scalings, the H blocks, the scaled
directions, the step-length eigenvalues) is one call per block size on
(problems, blocks, d, d) arrays: the five 5x5 parity blocks of a level-1
certificate at n = 5 take one call, not five.  Nothing reduces across
either axis: stacked matmul and the np.linalg gufuncs (cholesky, svd,
eigvalsh) act slice by slice however many leading axes there are, the H
blocks are elementwise products written to their own entries, each KKT
matrix has its own LAPACK getrf/getrs, and scalar powers use libm.  So a
problem's iterates, and its solution, are the same bits whatever else is in
the stack, and the same as with one call per block.

scipy.linalg is imported by sdp_solve_many, once per solve, not with the
module: the commands that never solve an SDP never load scipy.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]

_SQRT2 = math.sqrt(2.0)


class BasisDeficiencyError(ValueError):
    """The SOS basis cannot produce a monomial carried by the target."""

    def __init__(self, monomial):
        self.monomial = monomial
        super().__init__(f"no basis pair produces monomial {monomial}")


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------

class LinExpr:
    """Sparse linear functional over the blocks of an SdpProblem.

    Keys: ("p", block, i, j) with i <= j acting once on the symmetric entry
    X_ij; ("n", k) on the nonnegative scalar k; ("f", k) on free scalar k.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[tuple, float]] = None):
        self.terms = dict(terms) if terms else {}

    def add(self, key: tuple, coef: float) -> "LinExpr":
        if coef != 0.0:
            self.terms[key] = self.terms.get(key, 0.0) + float(coef)
        return self

    def add_psd_entry(self, block: int, i: int, j: int, coef) -> "LinExpr":
        if i > j:
            i, j = j, i
        return self.add(("p", block, i, j), float(coef))

    def add_matrix_pairing(self, block: int, m: np.ndarray) -> "LinExpr":
        """Add <M, X_block> = sum_ij M_ij X_ij for symmetric M."""
        d = m.shape[0]
        for i in range(d):
            for j in range(i, d):
                c = m[i, i] if i == j else 2.0 * m[i, j]
                if c != 0.0:
                    self.add(("p", block, i, j), float(c))
        return self

    def add_nonneg(self, k: int, coef) -> "LinExpr":
        return self.add(("n", k), float(coef))

    def add_free(self, k: int, coef) -> "LinExpr":
        return self.add(("f", k), float(coef))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"LinExpr({len(self.terms)} terms)"


@dataclass
class SdpProblem:
    psd_block_dims: List[int]
    nonneg_dim: int = 0
    free_dim: int = 0
    constraints: List[Tuple[LinExpr, float]] = field(default_factory=list)
    objective: LinExpr = field(default_factory=LinExpr)

    def to_json_dict(self) -> dict:
        cons = []
        for expr, rhs in self.constraints:
            cons.append({
                "rhs": rhs,
                "terms": [list(k) + [v] for k, v in sorted(expr.terms.items())],
            })
        return {
            "psd_block_dims": list(self.psd_block_dims),
            "nonneg_dim": self.nonneg_dim,
            "free_dim": self.free_dim,
            "objective": [list(k) + [v] for k, v in sorted(self.objective.terms.items())],
            "constraints": cons,
        }

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_POINT = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass
class DualRay:
    """Improving ray: b^T y = 1 > 0 and -A^T y in the dual cone within tol."""

    y: np.ndarray
    psd_operators: List[np.ndarray]  # Z_b = -(A^T y) on block b, PSD within tol
    nonneg_part: np.ndarray          # -(A^T y) on the orthant, >= -tol
    free_part: np.ndarray            # -(A^T y) on free scalars, ~ 0

    def max_violation(self) -> float:
        viol = 0.0
        for z in self.psd_operators:
            if z.size:
                viol = max(viol, float(max(0.0, -np.linalg.eigvalsh(z)[0])))
        if self.nonneg_part.size:
            viol = max(viol, float(max(0.0, -self.nonneg_part.min())))
        if self.free_part.size:
            viol = max(viol, float(np.abs(self.free_part).max()))
        return viol


@dataclass
class SdpSolution:
    status: SdpStatus
    psd_blocks: List[np.ndarray]
    nonneg: np.ndarray
    free: np.ndarray
    y: np.ndarray
    residuals: Tuple[float, float, float]  # (primal_res, dual_res, gap)
    objective_value: Optional[float]
    iterations: int
    dual_ray: Optional[DualRay] = None
    message: str = ""


# ---------------------------------------------------------------------------
# svec helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _svec_indices(d: int):
    """Row-major upper-triangle indices (ii, jj) of a d x d matrix and the svec
    scale of each entry (1 on the diagonal, sqrt 2 off it); read-only arrays,
    built once per d."""
    ii, jj = np.triu_indices(d)
    scale = np.where(ii == jj, 1.0, _SQRT2)
    for a in (ii, jj, scale):
        a.flags.writeable = False
    return ii, jj, scale


def svec(m: np.ndarray) -> np.ndarray:
    """svec of a symmetric matrix, or of each matrix of a stack (..., d, d)."""
    ii, jj, scale = _svec_indices(m.shape[-1])
    return m[..., ii, jj] * scale


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec, for one vector or a stack (..., d(d+1)/2)."""
    ii, jj, scale = _svec_indices(d)
    m = np.zeros(v.shape[:-1] + (d, d))
    vals = v / scale
    m[..., ii, jj] = vals
    m[..., jj, ii] = vals
    return m


def _nt_operator(w: np.ndarray) -> np.ndarray:
    """Dense svec-space matrix of X -> W X W for each symmetric W of a stack
    (..., d, d); elementwise, so each matrix's bits do not depend on the
    stack."""
    ii, jj, sc = _svec_indices(w.shape[-1])
    n = len(ii)
    # the rows and columns (i, j) of W: r[p, q] = W[i_p, i_q], r[n + p, q] =
    # W[j_p, i_q], and so on, read as one row take and one column take
    ij = np.concatenate([ii, jj])
    r = np.take(np.take(w, ij, axis=-2), ij, axis=-1)
    t1 = r[..., :n, :n] * r[..., n:, n:]
    t2 = r[..., :n, n:] * r[..., n:, :n]
    return (sc[:, None] * sc[None, :]) * (t1 + t2) * 0.5


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Nesterov-Todd scaling of positive definite pairs (X, S), stacked on
    the leading axes.

    With Cholesky factors L_x L_x^T = X, L_s L_s^T = S and the SVD
    L_s^T L_x = U diag(lam) V^T, the matrix R = L_x V diag(lam)^{-1/2}
    satisfies R^{-1} X R^{-T} = R^T S R = diag(lam), so W = R R^T is the NT
    point (W S W = X).  Returns (R, R^{-1}, lam) with
    R^{-1} = diag(lam)^{-1/2} U^T L_s^T; no square root or inverse of X or S
    is formed.  Raises LinAlgError when some X or S is not numerically PD.
    """
    lx, ls = np.linalg.cholesky(np.stack([x, s]))
    u, lam, vt = np.linalg.svd(_t(ls) @ lx)
    rt = np.sqrt(lam)
    return (lx @ _t(vt)) / rt[..., None, :], (_t(u) @ _t(ls)) / rt[..., :, None], lam


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_i @ x_i for each problem i of a stack: (k, m, n), (k, n) -> (k, m)."""
    return (a @ x[..., None])[..., 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i . y_i for each problem i of a stack: (k, n), (k, n) -> (k,)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# the block layout: standard form and flat vectors
# ---------------------------------------------------------------------------

class _Layout:
    """The one place that knows a block layout: where each part of a problem
    lies in the standard form and in the solver's flat vectors.  One is built
    per sdp_solve_many call, for the layout its problems share.

    The standard form is min c.x, Ax = b, x in (psd blocks x orthant) x R^f;
    its N columns are the svec'd PSD blocks, then the orthant (`lin`), then
    the free scalars.  Free scalars are kept native (their dual slack is
    identically zero) and are handled through an augmented KKT system rather
    than a u - v split, which would destroy strict dual feasibility.
    `standard` checks a problem against the layout and writes its rows.

    `place_rows` lays out the flat vectors once presolve has fixed the m
    rows.  An iterate is one vector v = (x, y, tau, kappa, s): the N
    standard-form columns (so x_K and x_F are views of one array), the
    multipliers of the m rows, tau and kappa, and the cone slack s.  A Newton
    direction has the same layout, and so do the right-hand sides and
    residuals of the Newton system, each row at the unknown it pairs with:
    the dual rows at x, the primal rows at y, the gap row at tau, the
    linearized tau kappa = mu at kappa and the linearized X S = mu I at s.
    `groups` maps each PSD block size d to the columns of its blocks, an int
    array (blocks, d(d+1)/2), so the blocks of one size are one more stack
    axis for the solver.  `blocks` holds, per size, those columns, the same
    columns of s in v, and, as (2, blocks, d, d), the entries of v that make
    the X and S matrices of its blocks, with their svec scale (d, d).
    """

    def __init__(self, p: SdpProblem):
        self.dims = list(p.psd_block_dims)
        if any(d < 0 for d in self.dims) or p.nonneg_dim < 0 or p.free_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if sum(self.dims) + p.nonneg_dim + p.free_dim == 0:
            raise ValueError("at least one block required")
        self.start: List[int] = []  # the first column of each PSD block
        groups: Dict[int, list] = {}
        pos = 0
        for d in self.dims:
            self.start.append(pos)
            if d > 0:
                sz = d * (d + 1) // 2
                groups.setdefault(d, []).append(np.arange(pos, pos + sz))
                pos += sz
        self.groups = {d: np.array(cols) for d, cols in groups.items()}
        self.cn = pos + p.nonneg_dim
        self.lin = np.arange(pos, self.cn)
        self.f = p.free_dim
        self.N = self.cn + self.f
        self.nu = sum(self.dims) + p.nonneg_dim
        # the first column and the number of scalars of each scalar key kind
        self.scalars = {"n": (pos, p.nonneg_dim, "nonneg"), "f": (self.cn, self.f, "free")}
        # the cone's identity: I on each PSD block and ones on the orthant
        self.e = np.concatenate([svec(np.eye(d)) for d in self.dims if d] + [np.ones(p.nonneg_dim)])

    def standard(self, p: SdpProblem):
        """(A, b, c) of p in the standard form, from one pass over the rows
        and the objective that checks each key as it writes it; ValueError
        on no row, on a key outside the layout, or on data that is not
        finite."""
        if not p.constraints:
            raise ValueError("at least one constraint required")
        A, c = np.zeros((len(p.constraints), self.N)), np.zeros(self.N)
        b = np.array([float(rhs) for _, rhs in p.constraints])
        rows = [(A[i], expr) for i, (expr, _) in enumerate(p.constraints)] + [(c, p.objective)]
        for row, expr in rows:
            for key, coef in expr.terms.items():
                try:  # a kind, then Python or numpy integers
                    kind, *idx = key
                    idx = list(map(operator.index, idx))
                except (TypeError, ValueError):
                    raise ValueError(f"bad key {key}") from None
                if kind == "p" and len(idx) == 3:
                    k, i, j = idx
                    if not (0 <= k < len(self.dims) and 0 <= i <= j < self.dims[k]):
                        raise ValueError(f"bad psd key {key}")
                    # position of (i,j), i<=j, in row-major upper triangle
                    posn = i * self.dims[k] - i * (i - 1) // 2 + (j - i)
                    row[self.start[k] + posn] += coef if i == j else coef / _SQRT2
                elif kind in self.scalars and len(idx) == 1:
                    start, dim, name = self.scalars[kind]
                    if not 0 <= idx[0] < dim:
                        raise ValueError(f"bad {name} key {key}")
                    row[start + idx[0]] += coef
                else:
                    raise ValueError(f"bad key {key}")
        bad = ~(np.isfinite(A).all(axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError(f"constraint {bad.argmax()} has a non-finite coefficient "
                             "or right-hand side")
        if not np.isfinite(c).all():
            raise ValueError("the objective has a non-finite coefficient")
        return A, b, c

    def split(self, x: np.ndarray):
        """The PSD blocks, the orthant part and the free part of a
        standard-form vector x, as new arrays."""
        blocks = [smat(x[s:s + d * (d + 1) // 2], d) for d, s in zip(self.dims, self.start) if d]
        return blocks, x[self.lin], x[self.cn:].copy()

    def ray(self, A_orig: np.ndarray, y: np.ndarray) -> DualRay:
        """The DualRay of y on the rows as given."""
        return DualRay(y, *self.split(-(A_orig.T @ y)))

    def violation(self, z: np.ndarray) -> np.ndarray:
        """How far each row of a stack z (k, N) lies outside the dual cone:
        the cone's part must be in the cone and the free part zero."""
        viol = np.maximum(0.0, -z[:, self.lin].min(axis=1, initial=np.inf))
        for d, cols in self.groups.items():
            lam = np.linalg.eigvalsh(smat(z[:, cols], d))[..., 0]
            viol = np.maximum(viol, -lam.min(axis=1))
        return np.maximum(viol, np.abs(z[:, self.cn:]).max(axis=1, initial=0.0))

    def place_rows(self, m: int) -> None:
        """Lay out the flat vectors for m rows after presolve."""
        self.m = m
        self.tau, self.kappa = self.N + m, self.N + m + 1
        self.n1 = self.N + m + 2
        self.L = self.n1 + self.cn
        self.s = slice(self.n1, self.L)
        self.lin_s = self.n1 + self.lin
        # tau, kappa and the orthant's x and s: one ratio test
        self.ratio = np.concatenate([[self.tau, self.kappa], self.lin, self.lin_s])
        self.blocks = []
        for d, cols in self.groups.items():
            # the svec position and scale of each entry (i, j) of a block
            ii, jj, scale = _svec_indices(d)
            pos = np.empty((d, d), dtype=np.intp)
            pos[ii, jj] = pos[jj, ii] = np.arange(len(ii))
            at = cols[:, pos]
            self.blocks.append((d, cols, self.n1 + cols, np.stack([at, self.n1 + at]),
                                scale[pos]))


def _presolve(A: np.ndarray, b: np.ndarray, qr):
    """Row scaling and rank filtering; qr is scipy.linalg.qr.

    A row that repeats another after scaling is a dependent row, so the
    pivoted QR of A^T drops it with the others.  Returns
    (A2, b2, keep, scales, bad) where bad is None or a tuple (y_certificate)
    exposing inconsistent dependent rows.
    """
    m = A.shape[0]
    scales = np.maximum(np.abs(A).max(axis=1), np.abs(b))
    scales = np.where(scales > 0, scales, 1.0)
    A1 = A / scales[:, None]
    b1 = b / scales
    keep = list(range(m))
    if m > 1:
        r, piv = qr(A1.T, mode="r", pivoting=True)
        diag = np.abs(np.diag(r))
        tol = max(A1.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        rank = int((diag > max(tol, 1e-13)).sum())
        if rank < m:
            keep = sorted(piv[:rank])
            for i in sorted(piv[rank:]):
                lam = np.linalg.lstsq(A1[keep].T, A1[i], rcond=None)[0]
                gap = float(lam @ b1[keep] - b1[i])
                if abs(gap) > 1e-8:
                    # inconsistent dependent row: explicit infeasibility certificate
                    y = np.zeros(m)
                    sgn = -1.0 if gap < 0 else 1.0
                    y[keep] = sgn * lam / scales[keep]
                    y[i] = -sgn / scales[i]
                    return None, None, None, None, y
            # at rank 0 every row reads 0 = 0; one is kept for the solver
            keep = keep or [0]
            warnings.warn(f"dropping {m - len(keep)} linearly dependent constraint rows")
    return A1[keep], b1[keep], keep, scales, None


# ---------------------------------------------------------------------------
# the HSDE interior-point solver
# ---------------------------------------------------------------------------

_MAX_ITER = 200  # interior-point iterations before a solve ends INDETERMINATE


def sdp_solve(problem: SdpProblem, tol: float = 1e-9) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs.

    Status semantics: OPTIMAL / FEASIBLE_POINT carry a primal point whose
    blocks satisfy the cone and constraint residuals at tol; INFEASIBLE
    carries a DualRay; INDETERMINATE signals numerical failure or the
    iteration cap (_MAX_ITER), never a silent success.  This is
    sdp_solve_many on a stack of one problem.
    """
    return sdp_solve_many([problem], tol)[0]


def sdp_solve_many(problems: Sequence[SdpProblem], tol: float = 1e-9) -> List[SdpSolution]:
    """Solve problems of one layout in one interior-point loop, in order.

    The problems must share psd_block_dims, nonneg_dim and free_dim, and
    keep the same number of rows after presolve; ValueError otherwise.  Each
    problem decides for itself, so its solution is bit for bit the one
    sdp_solve gives it alone, whatever else is in the stack.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    problems = list(problems)
    if not problems:
        return []
    if len({(tuple(p.psd_block_dims), p.nonneg_dim, p.free_dim) for p in problems}) > 1:
        raise ValueError("problems must share one block layout")
    lay = _Layout(problems[0])
    from scipy.linalg import qr
    from scipy.linalg.lapack import dgetrf, dgetrs
    out: List[Optional[SdpSolution]] = [None] * len(problems)
    prepared, where = [], []
    for k, problem in enumerate(problems):
        A, b, c = lay.standard(problem)
        A2, b2, keep, scales, bad_y = _presolve(A, b, qr)
        if bad_y is not None:
            out[k] = SdpSolution(
                status=SdpStatus.INFEASIBLE, psd_blocks=[], nonneg=np.zeros(0),
                free=np.zeros(0), y=np.zeros(len(b)), residuals=(np.inf, 0.0, 0.0),
                objective_value=None, iterations=0, dual_ray=lay.ray(A, bad_y),
                message="inconsistent linearly dependent constraints")
            continue
        prepared.append(_Prepared(A, b, A2, b2, c, keep, scales, problem.objective.is_zero()))
        where.append(k)
    if len({len(p.b) for p in prepared}) > 1:
        raise ValueError("problems must keep the same number of rows after presolve")
    if prepared:
        for k, sol in zip(where, _ipm(lay, prepared, tol, dgetrf, dgetrs)):
            out[k] = sol
    return out


@dataclass
class _Prepared:
    """One problem in standard form: its rows as given and as kept, scaled,
    by presolve."""

    A_orig: np.ndarray
    b_orig: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    keep: List[int]
    scales: np.ndarray
    pure_feas: bool

    def unscale_y(self, yv: np.ndarray) -> np.ndarray:
        """A multiplier on the kept, scaled rows restated on the rows as given."""
        y = np.zeros(len(self.b_orig))
        y[self.keep] = yv / self.scales[self.keep]
        return y


class _Stack:
    """Per-problem arrays of the problems still in the interior-point loop,
    stacked on axis 0."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        self.__dict__.update({name: v[mask] for name, v in vars(self).items()})


def _pick(mask: np.ndarray, a, b):
    """Rows of a where the per-problem mask holds, of b elsewhere."""
    return np.where(mask.reshape((-1,) + (1,) * (np.ndim(a) - 1)), a, b)


def _ipm(lay: _Layout, probs: List[_Prepared], tol: float,
         getrf, getrs) -> List[SdpSolution]:
    """The HSDE loop over a stack of prepared problems; their solutions, in
    order.  getrf and getrs are LAPACK's dgetrf and dgetrs.

    Each problem's data is one matrix E = [[A, b], [c^T, 0]] (see
    _linear_rows), so the loop's residuals and both objectives take two
    matvecs, and the step reuses them.  The step's work arrays are allocated
    here, once per solve (see _newton_step).
    """
    k, m = len(probs), len(probs[0].b)
    lay.place_rows(m)
    N, cn, f, it_, ik, L = lay.N, lay.cn, lay.f, lay.tau, lay.kappa, lay.L
    E = np.zeros((k, m + 1, N + 1))
    for i, p in enumerate(probs):
        E[i, :m, :N], E[i, :m, N], E[i, m, :N] = p.A, p.b, p.c
    A = E[:, :m, :N]
    # the KKT matrix [[0, AF^T], [AF, AK H AK^T]]: its free part is fixed
    M = np.zeros((k, f + m, f + m))
    M[:, f:, :f] = A[:, :, cn:]
    M[:, :f, f:] = _t(A[:, :, cn:])
    v = np.zeros((k, L))
    v[:, :cn] = v[:, lay.s] = lay.e
    v[:, it_] = v[:, ik] = 1.0
    st = _Stack(E=E, M=M, H=np.zeros((k, cn, cn)), v=v,
                pure=np.array([p.pure_feas for p in probs]), last=np.full((k, 3), np.inf),
                pos=np.arange(k), bnorm=1.0 + np.abs(E[:, :m, N]).max(axis=1),
                cnorm=1.0 + np.abs(E[:, m, :N]).max(axis=1))
    out: List[Optional[SdpSolution]] = [None] * k

    def end(ends: Dict[int, tuple], it: int) -> None:
        """Package the problems in ends, row -> (status, ray, message), and
        drop them from the stack."""
        for i, (status, ray, msg) in ends.items():
            p = probs[st.pos[i]]
            good = status in (SdpStatus.OPTIMAL, SdpStatus.FEASIBLE_POINT)
            tau = st.v[i, it_]
            t = tau if (good and tau > 0) else max(tau, 1.0)
            x = st.v[i, :N] / t
            obj = None if p.pure_feas else float(p.c @ x)
            out[st.pos[i]] = SdpSolution(
                status, *lay.split(x), p.unscale_y(st.v[i, N:it_] / t),
                residuals=tuple(float(v) for v in st.last[i]), objective_value=obj,
                iterations=it, dual_ray=ray, message=msg)
        gone = np.zeros(len(st.pos), dtype=bool)
        gone[list(ends)] = True
        st.keep(~gone)

    for it in range(1, _MAX_ITER + 1):
        v = st.v
        st.mu = (_dot(v[:, :cn], v[:, lay.s]) + v[:, it_] * v[:, ik]) / (lay.nu + 1)
        broke = ~np.isfinite(st.mu) | (v[:, it_] <= 0) | (v[:, ik] < 0)
        if np.count_nonzero(broke):
            end({i: (SdpStatus.INDETERMINATE, None, "numerical breakdown")
                 for i in broke.nonzero()[0]}, it)
        v, tau = st.v, st.v[:, it_]

        # the residuals (r_d, r_p, r_g), c.x and b.y; the convergence tests
        # scale them back by tau
        g, cx, by = _linear_rows(st.E, v, lay)
        st.g = g
        res = np.abs(g[:, :it_])
        pres = res[:, N:].max(axis=1) / (tau * st.bnorm)
        dres = res[:, :N].max(axis=1) / (tau * st.cnorm)
        pobj, dobj = cx / tau, by / tau
        gap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
        st.last = np.stack([pres, dres, gap], axis=1)
        ends: Dict[int, tuple] = {}
        conv = pres <= tol
        if np.count_nonzero(conv):
            # a pure feasibility problem delivers a primal point in the cone;
            # dual quantities only matter for its infeasibility detection
            for i in (conv & st.pure & (dres <= 100.0 * tol)).nonzero()[0]:
                ends[i] = (SdpStatus.FEASIBLE_POINT, None, "")
            for i in (conv & ~st.pure & (dres <= tol) & (gap <= tol)).nonzero()[0]:
                ends[i] = (SdpStatus.OPTIMAL, None, "")

        # infeasibility certificate: y with b.y > 0, -A^T y in the dual cone
        cand = by > tol * np.maximum(1.0, np.abs(v[:, N:it_]).max(axis=1))
        cand = [i for i in cand.nonzero()[0] if i not in ends] if np.count_nonzero(cand) else []
        if cand:
            ycand = v[cand, N:it_] / by[cand, None]
            z = -_mv(_t(st.E[cand, :m, :N]), ycand)
            for i, yc, vi in zip(cand, ycand, lay.violation(z)):
                if vi <= tol * 10.0:
                    p = probs[st.pos[i]]
                    yfull = p.unscale_y(yc)
                    yfull = yfull / float(p.b_orig @ yfull)
                    ends[i] = (SdpStatus.INFEASIBLE, lay.ray(p.A_orig, yfull),
                               "primal infeasible: improving dual ray")

        # an improving primal ray: c.x < 0 with Ax ~ 0 (the scale is >= 1)
        unbounded = ~st.pure & (cx < -tol)
        if np.count_nonzero(unbounded):
            x = v[:, :N]
            size = np.maximum(1.0, np.abs(x).max(axis=1))
            ax = np.abs(_mv(st.E[:, :m, :N], x)).max(axis=1)
            unbounded &= (cx < -tol * size) & (ax <= tol * 10.0 * np.maximum(1.0, -cx))
            for i in unbounded.nonzero()[0]:
                ends.setdefault(i, (SdpStatus.INDETERMINATE, None,
                                    "dual infeasible (primal objective unbounded below)"))
        if ends:
            end(ends, it)
        if not len(st.pos):
            break

        d, alpha, why = _newton_step(lay, st.E, st.H, st.M, getrf, getrs, st.v, st.mu, st.g)
        broke = [i for i, w in enumerate(why) if w is not None]
        if broke:
            live = np.ones(len(why), dtype=bool)
            live[broke] = False
            d, alpha = d[live], alpha[live]
            end({i: (SdpStatus.INDETERMINATE, None, why[i]) for i in broke}, it)
        st.v = st.v + alpha[:, None] * d

    end({i: (SdpStatus.INDETERMINATE, None, "iteration cap reached")
         for i in range(len(st.pos))}, _MAX_ITER)
    return out


def _kkt_factor(mext: np.ndarray, f: int, getrf):
    """LU factors (lu, piv) of one augmented KKT matrix, free block first, or
    None.

    A zero or non-finite pivot is regularized away: reg is added on the
    constraint block and subtracted on the free block, starting from 1e-13
    of the mean Schur diagonal and growing 100-fold, for five tries in all.
    """
    m = mext.shape[0] - f
    reg = 0.0
    for _ in range(5):
        r = np.array(mext, order="F")
        if reg:
            r[f:, f:] += reg * np.eye(m)
            r[:f, :f] -= reg * np.eye(f)
        lu, piv, info = getrf(r, overwrite_a=True)
        if info == 0 and np.isfinite(lu).all():
            return lu, piv
        reg = max(reg * 100.0, 1e-13 * max(1.0, np.trace(mext[f:, f:]) / max(1, m)))
    return None


def _linear_rows(E: np.ndarray, u: np.ndarray, lay: _Layout):
    """The HSDE's linear rows at u = (x, y, tau, kappa, s), a stack of
    iterates or directions, in their layout up to tau: the dual rows
    A^T y + (s, 0) - c tau, the primal rows A x - b tau and the gap row
    c.x - b.y + kappa; then c.x and b.y.  E = [[A, b], [c^T, 0]] per
    problem, so its first N columns give (A x, c.x) and its first m rows,
    transposed, (A^T y, b.y): two matvecs, with A stored once.
    """
    N, m, it_ = lay.N, lay.m, lay.tau
    ax = _mv(E[:, :, :N], u[:, :N])
    ay = _mv(_t(E[:, :m]), u[:, N:it_])
    tau = u[:, it_, None]
    r = np.empty((len(u), it_ + 1))
    ay[:, :lay.cn] += u[:, lay.s]
    np.subtract(ay[:, :N], E[:, m, :N] * tau, out=r[:, :N])
    np.subtract(ax[:, :m], E[:, :m, N] * tau, out=r[:, N:it_])
    r[:, it_] = ax[:, m] - ay[:, N] + u[:, lay.kappa]
    return r, ax[:, m], ay[:, N]


def _newton_step(lay: _Layout, E, H, M, getrf, getrs, v, mu, g):
    """One predictor-corrector step of the HSDE method for each problem of a
    stack, from strictly interior iterates v (see _Layout) with
    complementarity mu, for the data E of _linear_rows.

    g holds the loop's residuals, the _linear_rows of v, whose negatives
    are the linear rows of every right-hand side.  H and M are the stack's
    arrays for the scaling and the KKT matrix, allocated once per solve,
    which the step writes.
    Returns the stacked directions, in v's layout, the step lengths alpha,
    with the new iterates at v + alpha * direction, and `why`: per problem
    None, or the reason it broke down (a scaling, KKT matrix or direction
    that is not finite, a KKT matrix that cannot be factored, or a step
    length that collapses).  A problem that breaks down decides nothing
    more in the step, and its rows are reset to harmless values so the rest
    of the stack goes on with finite numbers.
    """
    k, m, N = len(v), lay.m, lay.N
    cn, f, it_, ik, S, lin = lay.cn, lay.f, lay.tau, lay.kappa, lay.s, lay.lin
    b, c = E[:, :m, N], E[:, m, :N]
    AK, cK = E[:, :m, :cn], c[:, :cn]
    why: List[Optional[str]] = [None] * k
    ok = np.ones(k, dtype=bool)

    def fail(bad, reason):
        bad = bad & ok
        if np.count_nonzero(bad):
            for i in bad.nonzero()[0]:
                why[i] = reason
            ok[bad] = False

    def require(finite, act, reason):
        if np.count_nonzero(finite) < k:
            fail(act & ~finite, reason)

    # NT scalings: R per PSD block, stacked (k, blocks, d, d) for each block
    # size d, and x/s on the orthant, written into H
    H[:, lin, lin] = v[:, lin] / v[:, lay.lin_s]
    scal = []
    for d, cols, _, at, scale in lay.blocks:
        xs = v[:, at] / scale
        try:
            sc = _nt_scaling(xs[:, 0], xs[:, 1])
        except np.linalg.LinAlgError:
            bad = np.zeros(k, dtype=bool)
            for i in range(k):
                try:
                    _nt_scaling(xs[i, 0], xs[i, 1])
                except np.linalg.LinAlgError:
                    bad[i] = True
            fail(bad, "scaling breakdown")
            xs[bad] = np.eye(d)
            sc = _nt_scaling(xs[:, 0], xs[:, 1])
        H[:, cols[:, :, None], cols[:, None, :]] = _nt_operator(sc[0] @ _t(sc[0]))
        scal.append(sc)
    # H is built from R, so it is not finite where R is not
    finite = np.isfinite(H).all(axis=(1, 2))
    for _, rinv, lam in scal:
        finite &= np.isfinite(rinv).all(axis=(1, 2, 3)) & np.isfinite(lam).all(axis=(1, 2))
    require(finite, ok, "non-finite NT scaling")
    if not np.count_nonzero(ok):
        return np.zeros_like(v), np.zeros(k), why
    if np.count_nonzero(ok) < k:
        H[~ok] = np.eye(cn)
        for r, rinv, lam in scal:
            r[~ok] = rinv[~ok] = np.eye(r.shape[-1])
            lam[~ok] = 1.0
        v = v.copy()
        v[~ok, :cn] = v[~ok, S] = lay.e
    tau, kappa = v[:, it_], v[:, ik]

    # augmented KKT matrix [[0, AF^T], [AF, AK H AK^T]], one LU per problem
    AKH = AK @ H
    M[:, f:, f:] = AKH @ _t(AK)
    require(np.isfinite(M).all(axis=(1, 2)), ok, "non-finite KKT matrix")
    lus = [_kkt_factor(M[i], f, getrf) if ok[i] else None for i in range(k)]
    fail(np.array([lu is None for lu in lus]), "KKT factorization failed")

    def kkt_solve(rhs, act, out):
        # one getrs per active problem into out; rows outside act are zero
        require(np.isfinite(rhs).all(axis=1), act, "non-finite Newton direction")
        live = act & ok
        if np.count_nonzero(live) < k:
            out[~live] = 0.0
        for i in live.nonzero()[0]:
            out[i] = getrs(*lus[i], rhs[i])[0]

    AHc = _mv(AK, _mv(H, cK))
    u1 = np.empty((k, f + m))
    kkt_solve(np.concatenate([c[:, cn:], b + AHc], axis=1), ok, u1)
    # cK.w + cF.u2f - (b - AK H cK).u2y, read as one dot with (w, u2)
    gw = np.concatenate([c, AHc - b], axis=1)
    # denominator equals (AK^T u1y - cK)^T H (AK^T u1y - cK) + kappa/tau,
    # a sum of squares; evaluating it in that form avoids cancellation
    vden = _mv(_t(AK), u1[:, f:]) - cK
    denom = np.maximum(_dot(vden, _mv(H, vden)), 0.0) + kappa / tau
    fail((denom <= 0) | ~np.isfinite(denom), "singular Newton system")
    if np.count_nonzero(ok) < k:
        denom = np.where(ok, denom, 1.0)

    def solve_newton(t, act):
        """The direction d, in v's layout, with
        AK^T dy + ds - cK dtau = t_xK;  AF^T dy - cF dtau = t_xF;
        A dx - b dtau = t_y;  c.dx - b.dy + dkappa = t_tau;
        kappa dtau + tau dkappa = t_kappa;  dxk + H ds = t_s.
        """
        wu = np.empty((k, N + m))
        w = wu[:, :cn]
        np.subtract(t[:, S], _mv(H, t[:, :cn]), out=w)
        rhs = t[:, N:it_] - _mv(AK, w)
        if f:
            rhs = np.concatenate([t[:, cn:N], rhs], axis=1)
        kkt_solve(rhs, act, wu[:, cn:])
        dtau = (t[:, ik] / tau + _dot(gw, wu) - t[:, it_]) / denom
        d = np.empty_like(v)
        np.multiply(u1, dtau[:, None], out=d[:, cn:it_])
        d[:, cn:it_] += wu[:, cn:]
        d[:, it_] = dtau
        d[:, ik] = (t[:, ik] - kappa * dtau) / tau
        ds = d[:, S]
        np.multiply(cK, dtau[:, None], out=ds)
        ds += t[:, :cn]
        ds -= _mv(_t(AK), d[:, N:it_])
        np.subtract(t[:, S], _mv(H, ds), out=d[:, :cn])
        return d

    def residual(t, d):
        # the residual of the whole Newton system, in v's layout
        e = np.empty_like(t)
        r = _linear_rows(E, d, lay)[0]
        np.subtract(t[:, :ik], r, out=e[:, :ik])
        e[:, ik] = t[:, ik] - (kappa * d[:, it_] + tau * d[:, ik])
        np.subtract(t[:, S], d[:, :cn] + _mv(H, d[:, S]), out=e[:, S])
        return e, np.abs(e).max(axis=1)

    # every right-hand side has the linear rows -g; a residual below 1e-14
    # of them is not refined
    small = 1e-14 * (1.0 + np.abs(g[:, :it_]).max(axis=1))

    def refined(t, act):
        # Full-system iterative refinement recovers digits lost in the
        # ill-conditioned elimination near convergence; a correction is kept
        # only if it lowers the residual, and a problem stops refining at its
        # first rejected round.  Only the problems in act decide; the other
        # rows are computed and ignored.
        d = solve_newton(t, act)
        e, err = residual(t, d)
        refine = act & ok
        for _ in range(2):
            refine &= ~(err <= small)
            if not np.count_nonzero(refine):
                break
            # a correction may overflow on a near-singular system; numpy's
            # warning is silenced because a non-finite correction is already
            # rejected, by kkt_solve's checks or by err_c < err below
            with np.errstate(over="ignore", invalid="ignore"):
                cand = d + solve_newton(e, refine)
                refine &= ok
                e_c, err_c = residual(t, cand)
            refine &= err_c < err
            n = np.count_nonzero(refine)
            if n == k:
                d, e, err = cand, e_c, err_c
            elif not n:
                break
            else:
                d, e = _pick(refine, cand, d), _pick(refine, e_c, e)
                err = np.where(refine, err_c, err)
        require(np.isfinite(err), act, "non-finite Newton direction")
        return d if np.count_nonzero(ok) == k else _pick(ok, d, 0.0)

    # per block size: T = (R^{-1}, R^T), which maps a direction's (dX, dS)
    # to the NT-scaled (R^{-1} dX R^{-T}, R^T dS R), and the outer product
    # of lam^{-1/2}, which normalizes the scaled pair by the iterate
    ts = [np.stack([rinv, _t(r)], axis=1) for r, rinv, _ in scal]
    norms = []
    for _, _, lam in scal:
        rl = 1.0 / np.sqrt(lam)
        norms.append((rl[..., :, None] * rl[..., None, :])[:, None])
    ratio_at = v[:, lay.ratio]

    def scaled(d):
        """Per block size, T (dX, dS) T^T, stacked (k, 2, blocks, d, d)."""
        return [tt @ (d[:, at] / scale) @ _t(tt) for (*_, at, scale), tt in zip(lay.blocks, ts)]

    def max_step(d, d_sc):
        # the largest alpha keeping v + alpha d in the cone: X + alpha dX is
        # PSD iff I + alpha lam^{-1/2} dX~ lam^{-1/2} is, so with low the
        # least such eigenvalue, or ratio dx_i / x_i on the orthant, tau and
        # kappa, alpha = -1 / low when low < 0; d_sc is scaled(d)
        low = (d[:, lay.ratio] / ratio_at).min(axis=1, initial=0.0)
        for p, nrm in zip(d_sc, norms):
            low = np.minimum(low, np.linalg.eigvalsh(p * nrm)[..., 0].min(axis=(1, 2)))
        return np.divide(-1.0, low, out=np.full(k, np.inf), where=low < 0)

    def newton_rhs(smu, aff=None, aff_sc=None):
        # the linear rows -g, and X S = smu I and tau kappa = smu linearized
        # in the NT-scaled space, where X and S both become diag(lam):
        # dxk + H ds = R Q R^T with Q_ij = (smu delta_ij - lam_i^2 -
        # sym(dX~a dS~a)_ij) / ((lam_i + lam_j) / 2), (smu - x s - dxa dsa) / s
        # on the orthant, and kappa dtau + tau dkappa = smu - tau kappa -
        # dtau_a dkappa_a; the second-order terms of the affine direction aff,
        # whose NT-scaled form is aff_sc, are the Mehrotra corrector
        t = np.empty_like(v)
        np.negative(g, out=t[:, :ik])
        num = smu[:, None] - v[:, lin] * v[:, lay.lin_s]
        t[:, ik] = smu - tau * kappa
        if aff is not None:
            num -= aff[:, lin] * aff[:, lay.lin_s]
            t[:, ik] -= aff[:, it_] * aff[:, ik]
        t[:, lay.lin_s] = num / v[:, lay.lin_s]
        for i, ((d, _, scols, _, _), (r, _, lam)) in enumerate(zip(lay.blocks, scal)):
            q = np.eye(d) * (smu[:, None, None] - lam * lam)[..., None, :]
            if aff_sc is not None:
                pq = aff_sc[i][:, 0] @ aff_sc[i][:, 1]
                q -= 0.5 * (pq + _t(pq))
            q /= 0.5 * (lam[..., :, None] + lam[..., None, :])
            t[:, scols] = svec(r @ q @ _t(r))
        return t

    aff = refined(newton_rhs(np.zeros(k)), ok)
    aff_sc = scaled(aff)
    a_aff = np.minimum(1.0, 0.999 * max_step(aff, aff_sc))
    va = v + a_aff[:, None] * aff
    mu_aff = (_dot(va[:, :cn], va[:, S]) + va[:, it_] * va[:, ik]) / (lay.nu + 1)
    # libm's pow, one problem at a time: numpy's SIMD power rounds ~5% of
    # cubes differently, which moves the iterates of the fragile solves
    sigma = np.array([min(0.999, max(1e-8, r ** 3)) for r in (mu_aff / mu).tolist()])

    # stopping at 95% of the way to the boundary keeps the smallest
    # eigenvalues of X and S from outrunning mu near the optimum
    d = refined(newton_rhs(sigma * mu, aff, aff_sc), ok)
    alpha = np.minimum(1.0, 0.95 * max_step(d, scaled(d)))
    retry = ok & ((alpha <= 1e-8) | ~np.isfinite(alpha))
    if np.count_nonzero(retry):
        # fall back to a nearly pure centering step before giving up
        centering = refined(newton_rhs(0.999 * mu), retry)
        d = _pick(retry, centering, d)
        alpha = np.where(retry, np.minimum(1.0, 0.95 * max_step(centering, scaled(centering))),
                         alpha)
        fail(retry & ((alpha <= 1e-10) | ~np.isfinite(alpha)), "step length collapsed")
    return d, alpha, why


# ---------------------------------------------------------------------------
# SOS Gram assembly
# ---------------------------------------------------------------------------

def _product(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _check_degrees(basis: List[Monomial], target_monomials) -> None:
    """The basis is homogeneous of some degree d and the target of degree 2d."""
    if not basis:
        raise ValueError("basis must be nonempty")
    degs = {sum(m) for m in basis}
    if len(degs) != 1:
        raise ValueError("basis must be homogeneous")
    d = degs.pop()
    tdegs = {sum(k) for k in target_monomials}
    if tdegs and tdegs != {2 * d}:
        raise ValueError(f"target must be homogeneous of degree {2 * d}")


@functools.lru_cache(maxsize=None)
def gram_rows(basis: tuple) -> Tuple[Dict[Monomial, int], np.ndarray]:
    """The one table of the dense SOS rows over a monomial basis (a tuple).

    `at` maps every product monomial m_i + m_j, in decreasing order, to its
    dense row index, and `pos` is the K x K array of the row of each pair
    (i, j), so a moment functional y on the rows pulls back to the Gram
    matrix as -A^T y = -y[pos].  Cached and shared: read-only.
    """
    sums = [_product(a, b) for a in basis for b in basis]
    at = {g: t for t, g in enumerate(sorted(set(sums), reverse=True))}
    pos = np.array([at[g] for g in sums], dtype=np.intp).reshape(len(basis), len(basis))
    pos.flags.writeable = False
    return at, pos


def sos_gram_assemble(target_coeffs: Dict[Monomial, object],
                      monomial_basis: Sequence[Monomial]) -> SdpProblem:
    """Feasibility SDP for target = w^T B w over the given monomial basis.

    Constraints match coefficients monomial by monomial, symmetrized over
    all basis pairs producing the same monomial: for each product monomial
    gamma, sum over {i<=j : m_i + m_j = gamma} of (2 - delta_ij) B_ij equals
    the target coefficient.  A target monomial no basis pair can produce
    raises BasisDeficiencyError before any solving.

    This is the dense reference form: one K x K block and one row per
    product monomial, in gram_rows order.  Even targets are solved through
    even_sos_assemble, whose certificates are stated in this form.
    """
    basis = list(monomial_basis)
    _check_degrees(basis, target_coeffs)
    at, pos = gram_rows(tuple(basis))

    for gamma, coef in target_coeffs.items():
        if float(coef) != 0.0 and gamma not in at:
            raise BasisDeficiencyError(gamma)

    exprs = [LinExpr() for _ in at]
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            exprs[pos[i, j]].add_psd_entry(0, i, j, 1.0 if i == j else 2.0)
    return SdpProblem(psd_block_dims=[len(basis)],
                      constraints=[(expr, float(target_coeffs.get(gamma, 0)))
                                   for gamma, expr in zip(at, exprs)])


@dataclass
class EvenSosLayout:
    """Where the Gram matrix of an even SOS problem lives in its blocks.

    `blocks[b]` lists the basis positions of PSD block b, `singles[k]` the
    basis position whose diagonal Gram entry is orthant scalar k, and
    `rows[r]` the monomial matched by constraint row r of the builder.
    """

    basis: List[Monomial]
    blocks: List[List[int]]
    singles: List[int]
    rows: List[Monomial]

    def gram(self, sol: SdpSolution) -> np.ndarray:
        """The full K x K Gram matrix, in basis order; zero across classes."""
        g = np.zeros((len(self.basis), len(self.basis)))
        for idx, block in zip(self.blocks, sol.psd_blocks):
            g[np.ix_(idx, idx)] = block
        g[self.singles, self.singles] = sol.nonneg
        return g


def even_sos_assemble(monomial_basis: Sequence[Monomial],
                      target_coeffs: Dict[Monomial, object],
                      free_coef: Optional[Dict[Monomial, Dict[int, float]]] = None,
                      free_dim: int = 0) -> Tuple[SdpProblem, EvenSosLayout]:
    """Block-diagonal feasibility SDP for an even target = w^T B w.

    The target coefficient of gamma is target_coeffs[gamma] plus
    sum_k free_coef[gamma][k] t_k over free scalars t_0..t_{free_dim-1}.
    Every target monomial must be even in each variable (ValueError
    otherwise).  Then B_ij can only contribute when m_i + m_j is even, i.e.
    when m_i and m_j have the same exponent parity vector, so B splits into
    one block per parity class of the basis (sign symmetry, Gatermann and
    Parrilo 2004).  A class of size >= 2 becomes a PSD block, a class of one
    monomial an orthant scalar (a 1 x 1 PSD block is a nonnegative number),
    and rows are written only for even monomials, in decreasing order as in
    sos_gram_assemble.  Callers may append rows and an objective on the free
    scalars.  Returns the problem and its EvenSosLayout, which states
    solutions on the full basis and the monomial of each row.
    """
    basis = list(monomial_basis)
    free_coef = free_coef or {}
    _check_degrees(basis, set(target_coeffs) | set(free_coef))
    for gamma in set(target_coeffs) | set(free_coef):
        if any(e & 1 for e in gamma):
            raise ValueError(f"target monomial {gamma} has an odd exponent")

    classes: Dict[Monomial, List[int]] = {}
    for i, m in enumerate(basis):
        classes.setdefault(tuple(e & 1 for e in m), []).append(i)
    blocks = [idx for idx in classes.values() if len(idx) > 1]
    singles = [idx[0] for idx in classes.values() if len(idx) == 1]

    entries: Dict[Monomial, Dict[tuple, float]] = {}
    for b, idx in enumerate(blocks):
        for a, i in enumerate(idx):
            for c in range(a, len(idx)):
                gamma = _product(basis[i], basis[idx[c]])
                entries.setdefault(gamma, {})[("p", b, a, c)] = 1.0 if a == c else 2.0
    for k, i in enumerate(singles):
        entries.setdefault(_product(basis[i], basis[i]), {})[("n", k)] = 1.0

    for gamma, coef in target_coeffs.items():
        if float(coef) != 0.0 and gamma not in entries:
            raise BasisDeficiencyError(gamma)

    problem = SdpProblem(psd_block_dims=[len(idx) for idx in blocks],
                         nonneg_dim=len(singles), free_dim=free_dim)
    rows = []
    for gamma in sorted(set(entries) | set(target_coeffs) | set(free_coef), reverse=True):
        expr = LinExpr(entries.get(gamma))
        for k, w in free_coef.get(gamma, {}).items():
            expr.add_free(k, -w)
        rhs = float(target_coeffs.get(gamma, 0))
        if expr.is_zero() and rhs == 0.0:
            continue
        problem.constraints.append((expr, rhs))
        rows.append(gamma)
    return problem, EvenSosLayout(basis=basis, blocks=blocks, singles=singles, rows=rows)


def gram_form_coeffs(basis: Sequence[Monomial], B: np.ndarray) -> Dict[Monomial, float]:
    """Expand w^T B w back into monomial coefficients (for re-checking): B's
    upper triangle, weighted 1 on the diagonal and 2 off it, on gram_rows."""
    at, pos = gram_rows(tuple(basis))
    iu = np.triu_indices(len(basis))
    w = np.where(iu[0] == iu[1], 1.0, 2.0) * np.asarray(B, dtype=float)[iu]
    sums = np.bincount(pos[iu], weights=w, minlength=len(at))
    return {g: float(v) for g, v in zip(at, sums) if v != 0.0}
