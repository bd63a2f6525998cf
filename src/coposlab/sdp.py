"""Small dense semidefinite programming over products of PSD blocks,
a nonnegative orthant and free scalars, plus SOS Gram-matrix assembly.

Every SOS target of the hierarchy, (sum x_i^2)^r q_A, is even in each
variable, so its Gram matrix splits into one block per exponent-parity class
of the monomial basis (Gatermann and Parrilo 2004).  even_sos_assemble builds
that block problem: one PSD block per class of two or more monomials, an
orthant scalar per class of one, and rows only for even monomials.  Its
certificates are still given on the full monomial basis (a K x K Gram
matrix) and, for infeasibility, on the rows of the dense sos_gram_assemble
problem, which stays as the reference form.

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
Iterative refinement on the full Newton system keeps a correction only if it
lowers the system's residual, so it never accepts a worse direction.  A
scaling, KKT matrix or direction that is not finite ends the solve as
INDETERMINATE with the reason.

Problems here are tiny (total block size <= ~100, a few hundred equality
constraints), so everything is dense numpy and deterministic: identical
inputs produce bitwise-identical iterates.

The interior-point loop works on a leading stack axis: sdp_solve_many solves
problems of one layout (block sizes, orthant and free dimensions, rows kept
by presolve) together, and sdp_solve is a stack of one.  Each problem
decides for itself.  Its convergence, certificate and unboundedness tests,
its KKT factorization and regularization retries, its refinement and
centering fallback and its breakdowns are masks over the stack or loops over
the problems concerned, and a problem leaves the stack when it ends.
Nothing reduces across the stack: stacked matmul and the np.linalg gufuncs
(cholesky, svd, eigvalsh) act slice by slice, each KKT matrix has its own
LAPACK getrf/getrs, and scalar powers use libm.  So a problem's iterates,
and its solution, are the same bits whatever else is in the stack.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

Monomial = Tuple[int, ...]

_SQRT2 = math.sqrt(2.0)


class SdpError(RuntimeError):
    pass


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
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if any(d < 0 for d in self.psd_block_dims) or self.nonneg_dim < 0 or self.free_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if sum(self.psd_block_dims) + self.nonneg_dim + self.free_dim == 0:
            raise ValueError("at least one block required")
        nb = len(self.psd_block_dims)
        for expr, _ in list(self.constraints) + [(self.objective, 0.0)]:
            for key in expr.terms:
                kind = key[0]
                if kind == "p":
                    _, b, i, j = key
                    if not (0 <= b < nb and 0 <= i <= j < self.psd_block_dims[b]):
                        raise ValueError(f"bad psd key {key}")
                elif kind == "n":
                    if not 0 <= key[1] < self.nonneg_dim:
                        raise ValueError(f"bad nonneg key {key}")
                elif kind == "f":
                    if not 0 <= key[1] < self.free_dim:
                        raise ValueError(f"bad free key {key}")
                else:
                    raise ValueError(f"bad key {key}")

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

    @property
    def primal_res(self):
        return self.residuals[0]

    @property
    def dual_res(self):
        return self.residuals[1]

    @property
    def gap(self):
        return self.residuals[2]


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
    """Dense svec-space matrix of X -> W X W for one symmetric W."""
    ii, jj, sc = _svec_indices(w.shape[0])
    ic, jc = ii[:, None], jj[:, None]
    t1 = w[ic, ii] * w[jc, jj]
    t2 = w[ic, jj] * w[jc, ii]
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
    lx = np.linalg.cholesky(x)
    ls = np.linalg.cholesky(s)
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


def _max_step_scaled(m: np.ndarray) -> np.ndarray:
    """sup alpha with I + alpha m_i PSD, for each symmetric m_i of a stack."""
    lmin = np.linalg.eigvalsh(m)[:, 0]
    return np.divide(-1.0, lmin, out=np.full(lmin.shape, np.inf), where=lmin < 0)


def _max_step_vec(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """sup alpha with x_i + alpha dx_i >= 0, for each row i."""
    ratios = np.divide(-x, dx, out=np.full(dx.shape, np.inf), where=dx < 0)
    return ratios.min(axis=-1)


# ---------------------------------------------------------------------------
# assembly of the standard form
# ---------------------------------------------------------------------------

class _Standard:
    """Dense standard form min c.x, Ax = b, x in (psd blocks x orthant) x R^f.

    Columns: svec'd PSD blocks, then the orthant, then free scalars.  Free
    scalars are kept native (their dual slack is identically zero) and are
    handled through an augmented KKT system rather than a u - v split, which
    would destroy strict dual feasibility.
    """

    def __init__(self, p: SdpProblem):
        self.psd_dims = [d for d in p.psd_block_dims if d > 0]
        self._psd_map = {}
        k = 0
        for b, d in enumerate(p.psd_block_dims):
            if d > 0:
                self._psd_map[b] = k
                k += 1
        self.nonneg_dim = p.nonneg_dim
        self.free_dim = p.free_dim
        self.slices = []
        pos = 0
        for d in self.psd_dims:
            sz = d * (d + 1) // 2
            self.slices.append(("s", d, slice(pos, pos + sz)))
            pos += sz
        if self.nonneg_dim:
            self.slices.append(("l", self.nonneg_dim, slice(pos, pos + self.nonneg_dim)))
        self.lin_start = pos
        self.cone_N = pos + self.nonneg_dim
        self.N = self.cone_N + self.free_dim
        self.nu = sum(self.psd_dims) + self.nonneg_dim

    def row_of(self, expr: LinExpr) -> np.ndarray:
        row = np.zeros(self.N)
        for key, coef in expr.terms.items():
            if key[0] == "p":
                _, b, i, j = key
                if b not in self._psd_map:
                    continue
                bi = self._psd_map[b]
                d = self.psd_dims[bi]
                base = self.slices[bi][2].start
                # position of (i,j), i<=j, in row-major upper triangle
                posn = i * d - i * (i - 1) // 2 + (j - i)
                row[base + posn] += coef if i == j else coef / _SQRT2
            elif key[0] == "n":
                row[self.lin_start + key[1]] += coef
            else:
                row[self.cone_N + key[1]] += coef
        return row

    def identity(self) -> np.ndarray:
        e = np.zeros(self.cone_N)
        for kind, d, sl in self.slices:
            if kind == "s":
                e[sl] = svec(np.eye(d))
            else:
                e[sl] = 1.0
        return e

    def blocks(self, x: np.ndarray):
        out = []
        for kind, d, sl in self.slices:
            if kind == "s":
                out.append(("s", smat(x[sl], d)))
            else:
                out.append(("l", x[sl].copy()))
        return out


def _presolve(A: np.ndarray, b: np.ndarray):
    """Row scaling, duplicate removal and rank filtering.

    Returns (A2, b2, keep, scales, bad) where bad is None or a tuple
    (y_certificate) exposing inconsistent dependent rows.
    """
    m = A.shape[0]
    scales = np.maximum(np.abs(A).max(axis=1), np.abs(b))
    scales = np.where(scales > 0, scales, 1.0)
    A1 = A / scales[:, None]
    b1 = b / scales

    seen = {}
    keep = []
    for i in range(m):
        key = (A1[i].tobytes(), float(b1[i]))
        if key in seen:
            continue
        seen[key] = i
        keep.append(i)
    dropped = m - len(keep)
    A1k = A1[keep]
    b1k = b1[keep]

    # rank filter via pivoted QR of A^T
    if A1k.shape[0] > 1:
        q, r, piv = scipy.linalg.qr(A1k.T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        tol = max(A1k.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        rank = int((diag > max(tol, 1e-13)).sum())
        if rank < A1k.shape[0]:
            ind = sorted(piv[:rank])
            dep = [i for i in range(A1k.shape[0]) if i not in set(ind)]
            Ai = A1k[ind]
            for i in dep:
                lam, res, _, _ = np.linalg.lstsq(Ai.T, A1k[i], rcond=None)
                gap = float(lam @ b1k[ind] - b1k[i])
                if abs(gap) > 1e-8:
                    # inconsistent dependent row: explicit infeasibility certificate
                    y = np.zeros(m)
                    sgn = -1.0 if gap < 0 else 1.0
                    for pos, j in enumerate(ind):
                        y[keep[j]] = sgn * lam[pos] / scales[keep[j]]
                    y[keep[i]] = -sgn / scales[keep[i]]
                    return None, None, None, None, y
            dropped += len(dep)
            keep = [keep[i] for i in ind]
            A1k = A1[keep]
            b1k = b1[keep]
    if dropped:
        # a duplicate after row scaling is a dependent row too
        warnings.warn(f"dropping {dropped} linearly dependent constraint rows")
    return A1k, b1k, keep, scales, None


# ---------------------------------------------------------------------------
# the HSDE interior-point solver
# ---------------------------------------------------------------------------

def sdp_solve(problem: SdpProblem, tol: float = 1e-9, max_iter: int = 200) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs.

    Status semantics: OPTIMAL / FEASIBLE_POINT carry a primal point whose
    blocks satisfy the cone and constraint residuals at tol; INFEASIBLE
    carries a DualRay; INDETERMINATE signals numerical failure or the
    iteration cap, never a silent success.  This is sdp_solve_many on a
    stack of one problem.
    """
    return sdp_solve_many([problem], tol, max_iter)[0]


def sdp_solve_many(problems: Sequence[SdpProblem], tol: float = 1e-9,
                   max_iter: int = 200) -> List[SdpSolution]:
    """Solve problems of one layout in one interior-point loop, in order.

    The problems must share psd_block_dims, nonneg_dim and free_dim, and
    keep the same number of rows after presolve; ValueError otherwise.  Each
    problem decides for itself, so its solution is bit for bit the one
    sdp_solve gives it alone, whatever else is in the stack.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    problems = list(problems)
    if len({(tuple(p.psd_block_dims), p.nonneg_dim, p.free_dim) for p in problems}) > 1:
        raise ValueError("problems must share one block layout")
    out: List[Optional[SdpSolution]] = [None] * len(problems)
    prepared, where = [], []
    for k, problem in enumerate(problems):
        problem.validate()
        std = _Standard(problem)
        m = len(problem.constraints)
        if m == 0:
            raise ValueError("at least one constraint required")
        A = np.zeros((m, std.N))
        b = np.zeros(m)
        for i, (expr, rhs) in enumerate(problem.constraints):
            A[i] = std.row_of(expr)
            b[i] = float(rhs)
        A2, b2, keep, scales, bad_y = _presolve(A, b)
        if bad_y is not None:
            out[k] = SdpSolution(
                status=SdpStatus.INFEASIBLE, psd_blocks=[], nonneg=np.zeros(0),
                free=np.zeros(0), y=np.zeros(m), residuals=(np.inf, 0.0, 0.0),
                objective_value=None, iterations=0, dual_ray=_make_ray(std, A, bad_y),
                message="inconsistent linearly dependent constraints")
            continue
        prepared.append(_Prepared(A, b, A2, b2, std.row_of(problem.objective), keep, scales,
                                  problem.objective.is_zero()))
        where.append(k)
    if len({len(p.b) for p in prepared}) > 1:
        raise ValueError("problems must keep the same number of rows after presolve")
    if prepared:
        for k, sol in zip(where, _ipm(std, prepared, tol, max_iter)):
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


def _make_ray(std: _Standard, A_orig: np.ndarray, y: np.ndarray) -> DualRay:
    z = -(A_orig.T @ y)
    psd_ops = []
    nonneg_part = np.zeros(0)
    for kind, d, sl in std.slices:
        if kind == "s":
            psd_ops.append(smat(z[sl], d))
        else:
            nonneg_part = z[sl].copy()
    free_part = z[std.cone_N:].copy()
    return DualRay(y=y, psd_operators=psd_ops, nonneg_part=nonneg_part, free_part=free_part)


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


def _ipm(std: _Standard, probs: List[_Prepared], tol: float, max_iter: int) -> List[SdpSolution]:
    """The HSDE loop over a stack of prepared problems; their solutions, in order."""
    k = len(probs)
    f = std.free_dim
    cn = std.cone_N
    e = std.identity()
    A = np.array([p.A for p in probs])
    c = np.array([p.c for p in probs])
    st = _Stack(AK=A[:, :, :cn].copy(), AF=A[:, :, cn:].copy(), cK=c[:, :cn], cF=c[:, cn:],
                b=np.array([p.b for p in probs]), pure=np.array([p.pure_feas for p in probs]),
                xk=np.tile(e, (k, 1)), xf=np.zeros((k, f)), s=np.tile(e, (k, 1)),
                y=np.zeros((k, A.shape[1])), tau=np.ones(k), kappa=np.ones(k),
                last=np.full((k, 3), np.inf), pos=np.arange(k))
    st.bnorm = 1.0 + np.abs(st.b).max(axis=1)
    st.cnorm = 1.0 + np.abs(c).max(axis=1)
    out: List[Optional[SdpSolution]] = [None] * k

    def end(ends: Dict[int, tuple], it: int) -> None:
        """Package the problems in ends, row -> (status, ray, message), and
        drop them from the stack."""
        for i, (status, ray, msg) in ends.items():
            p = probs[st.pos[i]]
            good = status in (SdpStatus.OPTIMAL, SdpStatus.FEASIBLE_POINT)
            tau = st.tau[i]
            t = tau if (good and tau > 0) else max(tau, 1.0)
            xk = st.xk[i] / t
            blocks = std.blocks(xk)
            free = st.xf[i] / t
            obj = None if p.pure_feas else float(p.c[:cn] @ xk + p.c[cn:] @ free)
            out[st.pos[i]] = SdpSolution(
                status=status, psd_blocks=[bm for kind, bm in blocks if kind == "s"],
                nonneg=next((bv for kind, bv in blocks if kind == "l"), np.zeros(0)),
                free=free, y=p.unscale_y(st.y[i] / t),
                residuals=tuple(float(v) for v in st.last[i]), objective_value=obj,
                iterations=it, dual_ray=ray, message=msg)
        gone = np.zeros(len(st.pos), dtype=bool)
        gone[list(ends)] = True
        st.keep(~gone)

    for it in range(1, max_iter + 1):
        st.mu = (_dot(st.xk, st.s) + st.tau * st.kappa) / (std.nu + 1)
        broke = ~np.isfinite(st.mu) | (st.tau <= 0) | (st.kappa < 0)
        if np.count_nonzero(broke):
            end({i: (SdpStatus.INDETERMINATE, None, "numerical breakdown")
                 for i in broke.nonzero()[0]}, it)
        AK, AF, cK, cF, b = st.AK, st.AF, st.cK, st.cF, st.b

        # scaled-back convergence tests
        tau = st.tau[:, None]
        pres = np.abs(_mv(AK, st.xk / tau) + _mv(AF, st.xf / tau) - b).max(axis=1) / st.bnorm
        dres_cone = np.abs(_mv(_t(AK), st.y / tau) + st.s / tau - cK).max(axis=1, initial=0.0)
        dres_free = np.abs(_mv(_t(AF), st.y / tau) - cF).max(axis=1, initial=0.0)
        dres = np.maximum(dres_cone, dres_free) / st.cnorm
        pobj = (_dot(cK, st.xk) + _dot(cF, st.xf)) / st.tau
        dobj = _dot(b, st.y) / st.tau
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
        by = _dot(b, st.y)
        cand = by > tol * np.maximum(1.0, np.abs(st.y).max(axis=1))
        cand = [i for i in cand.nonzero()[0] if i not in ends] if np.count_nonzero(cand) else []
        if cand:
            ycand = st.y[cand] / by[cand, None]
            viol = np.maximum(_cone_violation(std, -_mv(_t(AK[cand]), ycand)),
                              np.abs(_mv(_t(AF[cand]), ycand)).max(axis=1, initial=0.0))
            for i, yc, v in zip(cand, ycand, viol):
                if v <= tol * 10.0:
                    p = probs[st.pos[i]]
                    yfull = p.unscale_y(yc)
                    yfull = yfull / float(p.b_orig @ yfull)
                    ends[i] = (SdpStatus.INFEASIBLE, _make_ray(std, p.A_orig, yfull),
                               "primal infeasible: improving dual ray")

        # an improving primal ray: c.x < 0 with Ax ~ 0 (the scale is >= 1)
        cx = _dot(cK, st.xk) + _dot(cF, st.xf)
        unbounded = ~st.pure & (cx < -tol)
        if np.count_nonzero(unbounded):
            size = np.maximum(np.maximum(1.0, np.abs(st.xk).max(axis=1, initial=0.0)),
                              np.abs(st.xf).max(axis=1, initial=0.0))
            unbounded &= ((cx < -tol * size)
                          & (np.abs(_mv(AK, st.xk) + _mv(AF, st.xf)).max(axis=1)
                             <= tol * 10.0 * np.maximum(1.0, -cx)))
            for i in unbounded.nonzero()[0]:
                ends.setdefault(i, (SdpStatus.INDETERMINATE, None,
                                    "dual infeasible (primal objective unbounded below)"))
        if ends:
            end(ends, it)
        if not len(st.pos):
            break

        d, alpha, why = _newton_step(std, st.AK, st.AF, st.b, st.cK, st.cF, st.xk, st.xf,
                                     st.y, st.s, st.tau, st.kappa, st.mu)
        broke = [i for i, w in enumerate(why) if w is not None]
        if broke:
            live = np.ones(len(why), dtype=bool)
            live[broke] = False
            d = tuple(v[live] for v in d)
            alpha = alpha[live]
            end({i: (SdpStatus.INDETERMINATE, None, why[i]) for i in broke}, it)
        a = alpha[:, None]
        st.xk = st.xk + a * d[0]
        st.xf = st.xf + a * d[1]
        st.y = st.y + a * d[2]
        st.s = st.s + a * d[3]
        st.tau = st.tau + alpha * d[4]
        st.kappa = st.kappa + alpha * d[5]

    end({i: (SdpStatus.INDETERMINATE, None, "iteration cap reached")
         for i in range(len(st.pos))}, max_iter)
    return out


def _kkt_factor(mext: np.ndarray, m: int):
    """LU factors (lu, piv) of one augmented KKT matrix, or None.

    A zero or non-finite pivot is regularized away: reg is added on the
    constraint block and subtracted on the free block, starting from 1e-13
    of the mean Schur diagonal and growing 100-fold, for five tries in all.
    """
    f = mext.shape[0] - m
    reg = 0.0
    for _ in range(5):
        r = np.array(mext, order="F")
        if reg:
            r[:m, :m] += reg * np.eye(m)
            r[m:, m:] -= reg * np.eye(f)
        lu, piv, _ = dgetrf(r, overwrite_a=True)
        if np.all(np.isfinite(lu)) and np.all(np.diagonal(lu) != 0.0):
            return lu, piv
        reg = max(reg * 100.0, 1e-13 * max(1.0, np.trace(mext[:m, :m]) / max(1, m)))
    return None


def _newton_step(std, AK, AF, b, cK, cF, xk, xf, y, s, tau, kappa, mu):
    """One predictor-corrector step of the HSDE method for each problem of a
    stack, from strictly interior iterates.

    Returns the stacked directions (dxk, dxf, dy, ds, dtau, dkappa), the step
    lengths alpha, with the new iterates at old + alpha * direction, and
    `why`: per problem None, or the reason it broke down (a scaling, KKT
    matrix or direction that is not finite, a KKT matrix that cannot be
    factored, or a step length that collapses).  A problem that breaks down
    decides nothing more in the step, and its rows are reset to harmless
    values so the rest of the stack goes on with finite numbers.
    """
    k, m, cn = AK.shape
    AKt, AFt = _t(AK), _t(AF)
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

    # NT scalings on the cone part: R per PSD block, x/s on the orthant
    H = np.zeros((k, cn, cn))
    scal = []
    for kind, d, sl in std.slices:
        if kind == "s":
            xm, sm = smat(xk[:, sl], d), smat(s[:, sl], d)
            try:
                sc = _nt_scaling(xm, sm)
            except np.linalg.LinAlgError:
                bad = np.zeros(k, dtype=bool)
                for i in range(k):
                    try:
                        _nt_scaling(xm[i], sm[i])
                    except np.linalg.LinAlgError:
                        bad[i] = True
                fail(bad, "scaling breakdown")
                xm[bad] = sm[bad] = np.eye(d)
                sc = _nt_scaling(xm, sm)
            H[:, sl, sl] = [_nt_operator(w) for w in sc[0] @ _t(sc[0])]
            scal.append(sc)
        else:
            diag = np.arange(sl.start, sl.stop)
            H[:, diag, diag] = xk[:, sl] / s[:, sl]
            scal.append(None)
    finite = np.isfinite(H).all(axis=(1, 2))
    for r, rinv, lam in filter(None, scal):
        finite &= np.isfinite(r).all(axis=(1, 2)) & np.isfinite(rinv).all(axis=(1, 2))
        finite &= np.isfinite(lam).all(axis=1)
    require(finite, ok, "non-finite NT scaling")
    if not np.count_nonzero(ok):
        return tuple(np.zeros_like(v) for v in (xk, xf, y, s, tau, kappa)), np.zeros(k), why
    if np.count_nonzero(ok) < k:
        H[~ok] = np.eye(cn)
        for r, rinv, lam in filter(None, scal):
            r[~ok] = rinv[~ok] = np.eye(r.shape[-1])
            lam[~ok] = 1.0
        e = std.identity()
        xk, s = _pick(ok, xk, e), _pick(ok, s, e)

    # augmented KKT matrix [[AK H AK^T, AF], [AF^T, 0]], one LU per problem
    dim = m + AF.shape[2]
    Mext = np.zeros((k, dim, dim))
    Mext[:, :m, :m] = (AK @ H) @ AKt
    Mext[:, :m, m:] = AF
    Mext[:, m:, :m] = AFt
    require(np.isfinite(Mext).all(axis=(1, 2)), ok, "non-finite KKT matrix")
    lus = [_kkt_factor(Mext[i], m) if ok[i] else None for i in range(k)]
    fail(np.array([lu is None for lu in lus]), "KKT factorization failed")
    if np.count_nonzero(ok) < k:
        Mext[~ok] = np.eye(dim)
    Mext_ld = Mext.astype(np.longdouble)

    def kkt_solve(r1, r2, act):
        # rows outside act are left at zero
        rhs = np.concatenate([r1, r2], axis=1)
        require(np.isfinite(rhs).all(axis=1), act, "non-finite Newton direction")
        act = act & ok
        if np.count_nonzero(act) < k:
            rhs = _pick(act, rhs, 0.0)
        sol = np.zeros_like(rhs)
        rows = act.nonzero()[0]
        for i in rows:
            sol[i] = dgetrs(*lus[i], rhs[i])[0]
        # iterative refinement with extended-precision residuals
        rhs_ld = rhs.astype(np.longdouble)
        corr = np.zeros_like(sol)
        for _ in range(2):
            resid = np.asarray(rhs_ld - _mv(Mext_ld, sol.astype(np.longdouble)), dtype=float)
            finite = np.isfinite(resid).all(axis=1)
            if np.count_nonzero(finite) < k:
                fail(act & ~finite, "non-finite Newton direction")
                act &= ok
                rows = act.nonzero()[0]
            for i in rows:
                corr[i] = dgetrs(*lus[i], resid[i])[0]
            if len(rows) == k:
                sol += corr
            else:
                sol[rows] += corr[rows]
            act &= ~(np.abs(corr).max(axis=1) <= 1e-16 * (1.0 + np.abs(sol).max(axis=1)))
            rows = act.nonzero()[0]
            if not len(rows):
                break
        return sol[:, :m], sol[:, m:]

    rp = _mv(AK, xk) + _mv(AF, xf) - b * tau[:, None]
    rdK = _mv(AKt, y) + s - cK * tau[:, None]
    rdF = _mv(AFt, y) - cF * tau[:, None]
    rg = _dot(cK, xk) + _dot(cF, xf) - _dot(b, y) + kappa
    HcK = _mv(H, cK)
    u1y, u1f = kkt_solve(b + _mv(AK, HcK), cF, ok)
    bahc = b - _mv(AK, HcK)
    # denominator equals (AK^T u1y - cK)^T H (AK^T u1y - cK) + kappa/tau,
    # a sum of squares; evaluating it in that form avoids cancellation
    vden = _mv(AKt, u1y) - cK
    denom = np.maximum(_dot(vden, _mv(H, vden)), 0.0) + kappa / tau
    fail((denom <= 0) | ~np.isfinite(denom), "singular Newton system")
    if np.count_nonzero(ok) < k:
        denom = np.where(ok, denom, 1.0)

    def solve_newton(t, act):
        """Solve the linearized system with general right-hand sides:
        AK dxk + AF dxf - b dtau = t1;  AK^T dy + ds - cK dtau = t2K;
        AF^T dy - cF dtau = t2F;  c.dx - b.dy + dkappa = t3;
        dxk + H ds = t4;  kappa dtau + tau dkappa = t5.
        """
        t1, t2K, t2F, t3, t4, t5 = t
        w = t4 - _mv(H, t2K)
        u2y, u2f = kkt_solve(t1 - _mv(AK, w), t2F, act)
        numer = t5 / tau + _dot(cK, w) - t3 - _dot(bahc, u2y) + _dot(cF, u2f)
        dtau = numer / denom
        dy = u2y + u1y * dtau[:, None]
        dxf = u2f + u1f * dtau[:, None]
        ds = t2K + cK * dtau[:, None] - _mv(AKt, dy)
        dxk = t4 - _mv(H, ds)
        dkappa = (t5 - kappa * dtau) / tau
        return dxk, dxf, dy, ds, dtau, dkappa

    def residual(t, d):
        dxk, dxf, dy, ds, dtau, dkappa = d
        e = (t[0] - (_mv(AK, dxk) + _mv(AF, dxf) - b * dtau[:, None]),
             t[1] - (_mv(AKt, dy) + ds - cK * dtau[:, None]),
             t[2] - (_mv(AFt, dy) - cF * dtau[:, None]),
             t[3] - (_dot(cK, dxk) + _dot(cF, dxf) - _dot(b, dy) + dkappa),
             t[4] - (dxk + _mv(H, ds)),
             t[5] - (kappa * dtau + tau * dkappa))
        flat = np.concatenate([e[0], e[1], e[2], e[3][:, None], e[4], e[5][:, None]], axis=1)
        return e, np.abs(flat).max(axis=1)

    def scaled(d):
        """Per PSD block, the direction in the NT-scaled space:
        (R^{-1} dX R^{-T}, R^T dS R)."""
        out = []
        for (kind, n, sl), sc in zip(std.slices, scal):
            if kind == "s":
                r, rinv, _ = sc
                out.append((rinv @ smat(d[0][:, sl], n) @ _t(rinv), _t(r) @ smat(d[3][:, sl], n) @ r))
            else:
                out.append(None)
        return out

    def direction(sigma, act, aff=None):
        # Newton step killing the linear residuals, with the complementarity
        # X S = sigma mu I linearized in the NT-scaled space, where X and S
        # both become diag(lam):  dxk + H ds = R Q R^T with
        # Q_ij = (sigma mu I - lam^2 - sym(dX~a dS~a))_ij / ((lam_i + lam_j) / 2),
        # and kappa dtau + tau dkappa = sigma mu - tau kappa - dtau_a dkappa_a;
        # the second-order terms of the affine direction aff are the Mehrotra
        # corrector.  Full-system iterative refinement recovers digits lost in
        # the ill-conditioned elimination near convergence; a correction is
        # kept only if it lowers the residual of the full system.  Only the
        # problems in act decide; the other rows are computed and ignored.
        smu = sigma * mu
        t4 = np.empty((k, cn))
        t5 = smu - tau * kappa
        aff_sc = scaled(aff) if aff is not None else None
        for i, ((kind, n, sl), sc) in enumerate(zip(std.slices, scal)):
            if kind == "s":
                r, _, lam = sc
                q = np.zeros((k, n, n))
                q.reshape(k, n * n)[:, ::n + 1] = smu[:, None] - lam * lam
                if aff_sc is not None:
                    pq = aff_sc[i][0] @ aff_sc[i][1]
                    q = q - 0.5 * (pq + _t(pq))
                q = q / (0.5 * (lam[:, :, None] + lam[:, None, :]))
                t4[:, sl] = svec(r @ q @ _t(r))
            else:
                num = smu[:, None] - xk[:, sl] * s[:, sl]
                if aff is not None:
                    num = num - aff[0][:, sl] * aff[3][:, sl]
                t4[:, sl] = num / s[:, sl]
        if aff is not None:
            t5 = t5 - aff[4] * aff[5]
        t = (-rp, -rdK, -rdF, -rg, t4, t5)
        d = solve_newton(t, act)
        e, err = residual(t, d)
        small = 1e-14 * (1.0 + np.abs(np.concatenate([t[0], t[1]], axis=1)).max(axis=1))
        refine = act & ok
        for _ in range(2):
            refine &= ~(err <= small)
            if not np.count_nonzero(refine):
                break
            # a correction may overflow on a near-singular system; numpy's
            # warning is silenced because a non-finite correction is already
            # rejected, by kkt_solve's checks or by err_c < err below
            with np.errstate(over="ignore", invalid="ignore"):
                cand = tuple(a + bb for a, bb in zip(d, solve_newton(e, refine)))
                refine &= ok
                e_c, err_c = residual(t, cand)
            refine &= err_c < err
            if np.count_nonzero(refine) == k:
                d, e, err = cand, e_c, err_c
            else:
                d = tuple(_pick(refine, a, bb) for a, bb in zip(cand, d))
                e = tuple(_pick(refine, a, bb) for a, bb in zip(e_c, e))
                err = np.where(refine, err_c, err)
        require(np.isfinite(err), act, "non-finite Newton direction")
        return d if np.count_nonzero(ok) == k else tuple(_pick(ok, a, 0.0) for a in d)

    # the orthant, tau and kappa: one ratio test on their concatenation
    lin = [sl for kind, _, sl in std.slices if kind == "l"]
    lin_x = np.concatenate([tau[:, None], kappa[:, None]]
                           + [v[:, sl] for sl in lin for v in (xk, s)], axis=1)

    def max_step(d):
        # X + alpha dX is PSD iff I + alpha lam^{-1/2} dX~ lam^{-1/2} is
        dlin = np.concatenate([d[4][:, None], d[5][:, None]]
                              + [v[:, sl] for sl in lin for v in (d[0], d[3])], axis=1)
        alpha = _max_step_vec(lin_x, dlin)
        for (kind, n, sl), sc, dsc in zip(std.slices, scal, scaled(d)):
            if kind == "s":
                rl = 1.0 / np.sqrt(sc[2])
                both = np.concatenate([rl[:, :, None] * p * rl[:, None, :] for p in dsc])
                alpha = np.minimum(alpha, _max_step_scaled(both).reshape(2, k).min(axis=0))
        return alpha

    aff = direction(0.0, ok)
    a_aff = np.minimum(1.0, 0.999 * max_step(aff))
    mu_aff = (_dot(xk + a_aff[:, None] * aff[0], s + a_aff[:, None] * aff[3])
              + (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])) / (std.nu + 1)
    # libm's pow, one problem at a time: numpy's SIMD power rounds ~5% of
    # cubes differently, which moves the iterates of the fragile solves
    sigma = np.array([min(0.999, max(1e-8, r ** 3)) for r in (mu_aff / mu).tolist()])

    # stopping at 95% of the way to the boundary keeps the smallest
    # eigenvalues of X and S from outrunning mu near the optimum
    d = direction(sigma, ok, aff)
    alpha = np.minimum(1.0, 0.95 * max_step(d))
    retry = ok & ((alpha <= 1e-8) | ~np.isfinite(alpha))
    if np.count_nonzero(retry):
        # fall back to a nearly pure centering step before giving up
        centering = direction(0.999, retry)
        d = tuple(_pick(retry, a, bb) for a, bb in zip(centering, d))
        alpha = np.where(retry, np.minimum(1.0, 0.95 * max_step(centering)), alpha)
        fail(retry & ((alpha <= 1e-10) | ~np.isfinite(alpha)), "step length collapsed")
    return d, alpha, why


def _cone_violation(std: _Standard, z: np.ndarray) -> np.ndarray:
    """How far each row of a stack z (k, cone_N) lies outside the cone."""
    viol = np.zeros(len(z))
    for kind, d, sl in std.slices:
        if kind == "s":
            lam = np.linalg.eigvalsh(smat(z[:, sl], d))[:, 0]
        else:
            lam = z[:, sl].min(axis=1)
        viol = np.maximum(viol, -lam)
    return viol


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


def sos_gram_assemble(target_coeffs: Dict[Monomial, object],
                      monomial_basis: Sequence[Monomial]) -> SdpProblem:
    """Feasibility SDP for target = w^T B w over the given monomial basis.

    Constraints match coefficients monomial by monomial, symmetrized over
    all basis pairs producing the same monomial: for each product monomial
    gamma, sum over {i<=j : m_i + m_j = gamma} of (2 - delta_ij) B_ij equals
    the target coefficient.  A target monomial no basis pair can produce
    raises BasisDeficiencyError before any solving.

    This is the dense reference form: one K x K block and one row per
    product monomial, in decreasing monomial order.  Even targets are solved
    through even_sos_assemble, whose certificates are stated in this form.
    """
    basis = list(monomial_basis)
    _check_degrees(basis, target_coeffs)

    products: Dict[Monomial, List[Tuple[int, int]]] = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            products.setdefault(_product(basis[i], basis[j]), []).append((i, j))

    for gamma, coef in target_coeffs.items():
        if float(coef) != 0.0 and gamma not in products:
            raise BasisDeficiencyError(gamma)

    problem = SdpProblem(psd_block_dims=[len(basis)])
    gammas = sorted(set(products) | set(target_coeffs), reverse=True)
    for gamma in gammas:
        expr = LinExpr()
        for (i, j) in products.get(gamma, []):
            expr.add_psd_entry(0, i, j, 1.0 if i == j else 2.0)
        rhs = float(target_coeffs.get(gamma, 0))
        if expr.is_zero() and rhs == 0.0:
            continue
        problem.constraints.append((expr, rhs))
    problem.meta = {"kind": "sos", "basis": basis,
                    "constraint_monomials": gammas}
    return problem


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

    def lift_ray(self, ray: DualRay) -> DualRay:
        """The dual ray over the rows of the dense sos_gram_assemble problem.

        Rows of odd monomials get y = 0, and -A^T y is recomputed on the
        full Gram matrix from the dense rows: entry (i, j) is -y at the row
        of m_i + m_j.  Rows a caller appended after the builder's rows keep
        their y and stay last; they act on free scalars only, whose part of
        -A^T y is the same in both problems.
        """
        sums = [[_product(a, b) for b in self.basis] for a in self.basis]
        gammas = sorted({g for row in sums for g in row} | set(self.rows), reverse=True)
        pos = {g: i for i, g in enumerate(gammas)}
        nrows = len(self.rows)
        y = np.zeros(len(gammas) + len(ray.y) - nrows)
        y[[pos[g] for g in self.rows]] = ray.y[:nrows]
        y[len(gammas):] = ray.y[nrows:]
        z = -y[np.array([[pos[g] for g in row] for row in sums])]
        return DualRay(y=y, psd_operators=[z], nonneg_part=np.zeros(0),
                       free_part=ray.free_part.copy())


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
    solutions and rays on the full basis and the dense row order.
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
    problem.meta = {"kind": "even-sos", "basis": basis, "constraint_monomials": rows}
    return problem, EvenSosLayout(basis=basis, blocks=blocks, singles=singles, rows=rows)


def gram_form_coeffs(basis: Sequence[Monomial], B: np.ndarray) -> Dict[Monomial, float]:
    """Expand w^T B w back into monomial coefficients (for re-checking)."""
    out: Dict[Monomial, float] = {}
    k = len(basis)
    for i in range(k):
        for j in range(i, k):
            gamma = tuple(a + b for a, b in zip(basis[i], basis[j]))
            w = 1.0 if i == j else 2.0
            out[gamma] = out.get(gamma, 0.0) + w * float(B[i, j])
    return {g: v for g, v in out.items() if v != 0.0}
