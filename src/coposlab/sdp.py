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
self-dual embedding (HSDE) with Nesterov-Todd scaling and a Mehrotra-style
adaptive centering parameter.  The embedding is what turns infeasibility
into a certificate: when tau -> 0 with kappa > 0 the iterate yields an
improving dual ray y with b^T y > 0 whose pulled-back operator -A^T y lies
in the cone, re-checkable independently of the solver.

Problems here are tiny (total block size <= ~100, a few hundred equality
constraints), so everything is dense numpy and deterministic: identical
inputs produce bitwise-identical iterates.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

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

def _svec_indices(d: int):
    ii, jj = [], []
    for i in range(d):
        for j in range(i, d):
            ii.append(i)
            jj.append(j)
    return np.array(ii), np.array(jj)


def svec(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    ii, jj = _svec_indices(d)
    v = m[ii, jj].astype(float).copy()
    v[ii != jj] *= _SQRT2
    return v


def smat(v: np.ndarray, d: int) -> np.ndarray:
    ii, jj = _svec_indices(d)
    m = np.zeros((d, d))
    vals = v.copy()
    off = ii != jj
    vals[off] /= _SQRT2
    m[ii, jj] = vals
    m[jj, ii] = vals
    return m


def _nt_operator(w: np.ndarray) -> np.ndarray:
    """Dense svec-space matrix of X -> W X W for symmetric W."""
    d = w.shape[0]
    ii, jj = _svec_indices(d)
    sc = np.where(ii == jj, 1.0, _SQRT2)
    t1 = w[np.ix_(ii, ii)] * w[np.ix_(jj, jj)]
    t2 = w[np.ix_(ii, jj)] * w[np.ix_(jj, ii)]
    return (sc[:, None] * sc[None, :]) * (t1 + t2) * 0.5


def _psd_sqrt_pair(m: np.ndarray):
    """(m^{1/2}, m^{-1/2}) via eigh with clipping at a tiny floor."""
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 1e-300, None)
    rt = np.sqrt(w)
    return (u * rt) @ u.T, (u / rt) @ u.T


def _max_step_psd(x: np.ndarray, dx: np.ndarray) -> float:
    """sup alpha with x + alpha dx PSD, for x PD."""
    _, xinvh = _psd_sqrt_pair(x)
    lam = np.linalg.eigvalsh(xinvh @ dx @ xinvh)
    lmin = lam[0]
    if lmin >= 0:
        return np.inf
    return -1.0 / lmin


def _max_step_vec(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not neg.any():
        return np.inf
    return float((-x[neg] / dx[neg]).min())


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
    scales = np.ones(m)
    for i in range(m):
        s = max(np.abs(A[i]).max(), abs(b[i]))
        if s > 0:
            scales[i] = s
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
    iteration cap, never a silent success.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
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
    c = std.row_of(problem.objective)
    pure_feas = problem.objective.is_zero()

    A2, b2, keep, scales, bad_y = _presolve(A, b)
    if bad_y is not None:
        ray = _make_ray(std, A, bad_y, m)
        return SdpSolution(
            status=SdpStatus.INFEASIBLE, psd_blocks=[], nonneg=np.zeros(0),
            free=np.zeros(0), y=np.zeros(m), residuals=(np.inf, 0.0, 0.0),
            objective_value=None, iterations=0, dual_ray=ray,
            message="inconsistent linearly dependent constraints")

    return _ipm(problem, std, A2, b2, c, keep, scales, m, tol, max_iter, pure_feas, A)


def _make_ray(std: _Standard, A_orig: np.ndarray, y: np.ndarray, m: int) -> DualRay:
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


def _ipm(problem, std, A, b, c, keep, scales, m_orig, tol, max_iter, pure_feas, A_orig):
    m, N = A.shape
    f = std.free_dim
    cn = std.cone_N
    AK = A[:, :cn]
    AF = A[:, cn:]
    cK = c[:cn]
    cF = c[cn:]

    e = std.identity()
    xk = e.copy()
    xf = np.zeros(f)
    s = e.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0
    nu = std.nu

    bnorm = 1.0 + np.abs(b).max()
    cnorm = 1.0 + (np.abs(c).max() if c.size else 0.0)
    b_orig = np.array([rhs for _, rhs in problem.constraints], dtype=float)

    def unscale_y(yv):
        yfull = np.zeros(m_orig)
        for pos, i in enumerate(keep):
            yfull[i] = yv[pos] / scales[i]
        return yfull

    def package(status, res, it, ray=None, msg=""):
        good = status in (SdpStatus.OPTIMAL, SdpStatus.FEASIBLE_POINT)
        t = tau if (good and tau > 0) else max(tau, 1.0)
        blocks = std.blocks(xk / t)
        psd = [bm for kind, bm in blocks if kind == "s"]
        nonneg = next((bv for kind, bv in blocks if kind == "l"), np.zeros(0))
        free = xf / t
        obj = float(cK @ (xk / t) + cF @ free) if not pure_feas else None
        return SdpSolution(status=status, psd_blocks=psd, nonneg=nonneg, free=free,
                           y=unscale_y(y / t), residuals=res, objective_value=obj,
                           iterations=it, dual_ray=ray, message=msg)

    last = (np.inf, np.inf, np.inf)

    for it in range(1, max_iter + 1):
        mu = (xk @ s + tau * kappa) / (nu + 1)
        if not np.isfinite(mu) or tau <= 0 or kappa < 0:
            return package(SdpStatus.INDETERMINATE, last, it, msg="numerical breakdown")

        # scaled-back convergence tests
        pres = np.abs(AK @ (xk / tau) + AF @ (xf / tau) - b).max() / bnorm
        dres_cone = np.abs(AK.T @ (y / tau) + s / tau - cK).max() if cn else 0.0
        dres_free = np.abs(AF.T @ (y / tau) - cF).max() if f else 0.0
        dres = max(dres_cone, dres_free) / cnorm
        pobj = float(cK @ xk + cF @ xf) / tau
        dobj = float(b @ y) / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        last = (pres, dres, gap)
        if pure_feas:
            # the deliverable is a primal point in the cone; dual quantities
            # only matter for infeasibility detection
            if pres <= tol and dres <= 100.0 * tol:
                return package(SdpStatus.FEASIBLE_POINT, (pres, dres, gap), it)
        elif pres <= tol and dres <= tol and gap <= tol:
            return package(SdpStatus.OPTIMAL, (pres, dres, gap), it)

        # infeasibility certificate: y with b.y > 0, -A^T y in the dual cone
        by = float(b @ y)
        if by > tol * max(1.0, np.abs(y).max()):
            ycand = y / by
            z = -(A.T @ ycand)
            zf_viol = np.abs(z[cn:]).max() if f else 0.0
            if max(_cone_violation(std, z), zf_viol) <= tol * 10.0:
                yfull = unscale_y(ycand)
                yfull = yfull / float(b_orig @ yfull)
                ray = _make_ray(std, A_orig, yfull, m_orig)
                return package(SdpStatus.INFEASIBLE, last, it, ray=ray,
                               msg="primal infeasible: improving dual ray")
        cx = float(cK @ xk + cF @ xf)
        if not pure_feas and cx < -tol * max(1.0, np.abs(xk).max(), np.abs(xf).max() if f else 0.0):
            if np.abs(AK @ xk + AF @ xf).max() <= tol * 10.0 * max(1.0, -cx):
                return package(SdpStatus.INDETERMINATE, last, it,
                               msg="dual infeasible (primal objective unbounded below)")

        # NT scalings on the cone part
        H = np.zeros((cn, cn))
        ginv = np.zeros(cn)
        xb = std.blocks(xk)
        sb = std.blocks(s)
        try:
            for (kind, d, sl), (_, xm), (_, sm) in zip(std.slices, xb, sb):
                if kind == "s":
                    sh, sih = _psd_sqrt_pair(sm)
                    th, _ = _psd_sqrt_pair(sh @ xm @ sh)
                    w = sih @ th @ sih
                    H[sl, sl] = _nt_operator(w)
                    ginv[sl] = svec(np.linalg.inv(sm))
                else:
                    H[sl, sl] = np.diag(xm / sm)
                    ginv[sl] = 1.0 / sm
        except np.linalg.LinAlgError:
            return package(SdpStatus.INDETERMINATE, last, it, msg="scaling breakdown")

        # augmented KKT matrix [[AK H AK^T, AF], [AF^T, 0]]
        AKH = AK @ H
        M = AKH @ AK.T
        dim = m + f
        Mext = np.zeros((dim, dim))
        Mext[:m, :m] = M
        if f:
            Mext[:m, m:] = AF
            Mext[m:, :m] = AF.T
        reg = 0.0
        trM = max(1.0, np.trace(M) / max(1, m))
        lu = None
        for _ in range(5):
            try:
                R = Mext.copy()
                if reg:
                    R[:m, :m] += reg * np.eye(m)
                    if f:
                        R[m:, m:] -= reg * np.eye(f)
                lu = scipy.linalg.lu_factor(R)
                if not np.all(np.isfinite(lu[0])):
                    raise np.linalg.LinAlgError
                break
            except (np.linalg.LinAlgError, ValueError):
                reg = max(reg * 100.0, 1e-13 * trM)
        if lu is None:
            return package(SdpStatus.INDETERMINATE, last, it, msg="KKT factorization failed")

        Mext_ld = Mext.astype(np.longdouble)

        def kkt_solve(r1, r2):
            rhs = np.concatenate([r1, r2]) if f else r1
            sol = scipy.linalg.lu_solve(lu, rhs)
            # iterative refinement with extended-precision residuals
            rhs_ld = rhs.astype(np.longdouble)
            for _ in range(2):
                resid = np.asarray(rhs_ld - Mext_ld @ sol.astype(np.longdouble),
                                   dtype=float)
                corr = scipy.linalg.lu_solve(lu, resid)
                sol = sol + corr
                if np.abs(corr).max() <= 1e-16 * (1.0 + np.abs(sol).max()):
                    break
            return (sol[:m], sol[m:]) if f else (sol, np.zeros(0))

        rp = AK @ xk + AF @ xf - b * tau
        rdK = AK.T @ y + s - cK * tau
        rdF = AF.T @ y - cF * tau if f else np.zeros(0)
        rg = float(cK @ xk + cF @ xf - b @ y + kappa)
        HcK = H @ cK
        u1y, u1f = kkt_solve(b + AK @ HcK, cF)
        bahc = b - AK @ HcK
        # denominator equals (AK^T u1y - cK)^T H (AK^T u1y - cK) + kappa/tau,
        # a sum of squares; evaluating it in that form avoids cancellation
        vden = AK.T @ u1y - cK
        denom = max(float(vden @ (H @ vden)), 0.0) + kappa / tau
        if denom <= 0 or not np.isfinite(denom):
            return package(SdpStatus.INDETERMINATE, last, it, msg="singular Newton system")

        def solve_newton(t1, t2K, t2F, t3, t4, t5):
            """Solve the linearized system with general right-hand sides:
            AK dxk + AF dxf - b dtau = t1;  AK^T dy + ds - cK dtau = t2K;
            AF^T dy - cF dtau = t2F;  c.dx - b.dy + dkappa = t3;
            dxk + H ds = t4;  kappa dtau + tau dkappa = t5.
            """
            w = t4 - H @ t2K
            u2y, u2f = kkt_solve(t1 - AK @ w, t2F)
            numer = t5 / tau + float(cK @ w) - t3 - float(bahc @ u2y) + float(cF @ u2f)
            dtau = numer / denom
            dy = u2y + u1y * dtau
            dxf = u2f + u1f * dtau
            ds = t2K + cK * dtau - AK.T @ dy
            dxk = t4 - H @ ds
            dkappa = (t5 - kappa * dtau) / tau
            return dxk, dxf, dy, ds, dtau, dkappa

        def direction(sigma):
            # Newton step killing the linear residuals, with NT-linearized
            # complementarity dxk + H ds = sigma mu g - xk on the cone and
            # kappa dtau + tau dkappa = sigma mu - tau kappa; one round of
            # full-system iterative refinement recovers digits lost in the
            # ill-conditioned elimination near convergence.
            rc = sigma * mu * ginv - xk
            rct = sigma * mu - tau * kappa
            t = (-rp, -rdK, -rdF, -rg, rc, rct)
            d = solve_newton(*t)
            for _ in range(2):
                dxk, dxf, dy, ds, dtau, dkappa = d
                e1 = t[0] - (AK @ dxk + AF @ dxf - b * dtau)
                e2K = t[1] - (AK.T @ dy + ds - cK * dtau)
                e2F = t[2] - (AF.T @ dy - cF * dtau) if f else np.zeros(0)
                e3 = t[3] - (float(cK @ dxk + cF @ dxf - b @ dy) + dkappa)
                e4 = t[4] - (dxk + H @ ds)
                e5 = t[5] - (kappa * dtau + tau * dkappa)
                err = max(np.abs(e1).max() if m else 0.0,
                          np.abs(e2K).max() if cn else 0.0,
                          np.abs(e2F).max() if f else 0.0,
                          abs(e3), np.abs(e4).max() if cn else 0.0, abs(e5))
                if err <= 1e-14 * (1.0 + np.abs(np.concatenate([t[0], t[1]])).max()):
                    break
                corr = solve_newton(e1, e2K, e2F, e3, e4, e5)
                d = tuple(a + bb for a, bb in zip(d, corr))
            return d

        def max_step(dxk, ds, dtau, dkappa):
            alpha = np.inf
            for (kind, d, sl), (_, xm), (_, sm) in zip(std.slices, xb, sb):
                if kind == "s":
                    alpha = min(alpha, _max_step_psd(xm, smat(dxk[sl], d)))
                    alpha = min(alpha, _max_step_psd(sm, smat(ds[sl], d)))
                else:
                    alpha = min(alpha, _max_step_vec(xm, dxk[sl]))
                    alpha = min(alpha, _max_step_vec(sm, ds[sl]))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        aff = direction(0.0)
        a_aff = min(1.0, 0.999 * max_step(aff[0], aff[3], aff[4], aff[5]))
        mu_aff = ((xk + a_aff * aff[0]) @ (s + a_aff * aff[3])
                  + (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])) / (nu + 1)
        sigma = min(0.999, max(1e-8, (mu_aff / mu) ** 3))

        dxk, dxf, dy, ds, dtau, dkappa = direction(sigma)
        alpha = min(1.0, 0.98 * max_step(dxk, ds, dtau, dkappa))
        if alpha <= 1e-8 or not np.isfinite(alpha):
            # fall back to a nearly pure centering step before giving up
            dxk, dxf, dy, ds, dtau, dkappa = direction(0.999)
            alpha = min(1.0, 0.98 * max_step(dxk, ds, dtau, dkappa))
            if alpha <= 1e-10 or not np.isfinite(alpha):
                return package(SdpStatus.INDETERMINATE, last, it, msg="step length collapsed")
        xk = xk + alpha * dxk
        xf = xf + alpha * dxf
        y = y + alpha * dy
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa

    return package(SdpStatus.INDETERMINATE, last, max_iter, msg="iteration cap reached")


def _cone_violation(std: _Standard, z: np.ndarray) -> float:
    viol = 0.0
    for kind, d, sl in std.slices:
        if kind == "s":
            zm = smat(z[sl], d)
            lam = np.linalg.eigvalsh(zm)[0]
            viol = max(viol, max(0.0, -float(lam)))
        else:
            if z[sl].size:
                viol = max(viol, max(0.0, -float(z[sl].min())))
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
