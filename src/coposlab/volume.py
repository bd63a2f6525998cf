"""Volume radii of the compact cone sections inside the zero-average space M.

Each cone of even quartics is cut by the average-one hyperplane and the
section is translated by -(sum x_i^2)^2, landing in the hyperplane M of
average-zero even quartics (dimension n(n+1)/2 - 1).  The sections are
star-shaped (convex) around any interior point, so volumes follow from the
radial function: Vol = Vol(B_d) E[r(theta)^d] over uniform directions.

The star center used everywhere is the section point of I + J/n: entrywise
positive and strictly diagonally dominant, hence interior to the completely
positive cone and to every cone containing it.  For the linear-forms cone
the center is the average of the sampled fourth-power generators.

Exactness policy: NN sections are simplices and also get an exact volume
in closed form, at every n (`vrad_nn_exact`): the Laplace transform of the
orthant times sqrt(det Gamma), where Gamma is the L2 Gram table of
`quartic._l2_gram_float` and its determinant is a product over its three
S_n eigen-blocks.  The orthonormal basis of M (`quartic.basis_M`) is built in
floats from that table, and the coordinate maps pair through it.  The radial
problem is linear in t, so no section bisects: `section_radii` gives the
radii of a stack of directions for every section, by one of four methods:

- closed form: face rows of the polyhedral sections
  {a : G vec(a) >= 0}, i.e. nn (the entries), cp inner (the entries plus
  diagonal dominance) and lf outer (the apolar pairings with sampled
  nonnegative forms); a generalized eigenvalue for psd; the minimum of the
  two for dnn and for cp at n <= 4 (mode "exact", CP = DNN), with the
  eigenvalue computed only on the rays where the PSD side can bind at the
  face radius; for cop (n <= 12) the generalized eigenvalues of the
  2^n - 1 principal submatrices that have a strictly one-signed
  eigenvector, which is Kaplan's criterion (Kaplan 2000, LAA 313) and
  exact, with the supports scanned by size and a principal submatrix sent
  to `eigh` only when the Cottle-Habetler-Lemke test says it could still
  lower the radius (`_radial_cop`; a few percent of them past n = 5);
  the ball radius itself for ball;
- spn at n <= 5 (`_radial_spn`): Kaplan's COP radius t*, an upper bound as
  SPN lies in COP, kept where C + t* D is certified PSD + NN: always at
  n <= 4, where COP = SPN (Diananda 1962), and at n = 5 by a rank-one peel
  that leaves a 4 x 4 copositive rest (`_peel_certifies`);
- one parametric SDP per ray, in stacks (`_sdp_radii`): the P + N rows of
  `cones.pn_problem` for spn at n >= 6 and the n = 5 rays the peel cannot
  certify, also the tests' reference for the cop and spn radii; the free-M
  K^(1) model of `cones.kr_problem` plus one pairing row a ray for cp outer
  (`_radial_cp_outer`);
- one LP per ray: lf inner (max t with the point in the generators' hull).

The radius is each section's one decision.  Membership follows from it
(`SectionSpec.membership`), and a star center outside its section shows as
a radius <= 0, which `section_radii` refuses on every ray it computes.

CP at n >= 5 is reported as an inner/outer pair only (membership there is
NP-hard, and pretending otherwise would be false precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cones import (KAPLAN_MAX_N, _gather, _kaplan_eigh, _kaplan_min, _pairing_expr, _supports,
                    kr_problem, pn_problem)
from .quartic import basis_M, coeff_vector, dim_M, _l2_gram_float
from .sdp import SdpStatus, sdp_solve_many

SECTION_CONES = ("nn", "psd", "dnn", "spn", "cop", "cp", "lf", "ball")


@dataclass
class VradEstimate:
    cone: str
    n: int
    mode: Optional[str]
    point_estimate: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    dim: int

    def to_json_dict(self) -> dict:
        return {"cone": self.cone, "n": self.n, "mode": self.mode,
                "estimate": self.point_estimate,
                "ci": [self.ci_low, self.ci_high],
                "samples": self.samples, "seed": self.seed, "dim": self.dim}


# ---------------------------------------------------------------------------
# section specification and membership oracle
# ---------------------------------------------------------------------------

def _center_matrix(n: int) -> np.ndarray:
    # I + J/n normalized to sphere average one
    scale = n * (n + 2) / (4.0 * n + 2.0)
    return scale * (np.eye(n) + np.ones((n, n)) / n)


def lf_generators(n: int, count: int, seed: int) -> np.ndarray:
    """Coefficient matrices of fourth-power generators, closed under
    coordinate permutations so the signed-permutation action preserves the
    sampled inner hull.  Returns an array of shape (N, n, n) with N >= count.
    An orbit has up to n! vectors, so n must be at most 8.
    """
    if n > 8:
        raise ValueError(f"lf generators at n = {n} need orbits of n! = {math.factorial(n)} "
                         "permuted vectors; n must be <= 8")
    rng = np.random.RandomState(seed)
    vecs: List[Tuple[float, ...]] = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        vecs.append(tuple(e))
    vecs.append(tuple([1.0 / math.sqrt(n)] * n))
    while len(vecs) < count:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        orbit = {tuple(v[list(p)]) for p in permutations(range(n))}
        vecs.extend(sorted(orbit))
    mats = []
    for v in vecs:
        sq = np.array(v) ** 2
        m = 3.0 * np.outer(sq, sq) - 2.0 * np.diag(sq * sq)
        mats.append(m)
    return np.array(mats)


def _pos_samples(n: int, count: int, seed: int) -> List[np.ndarray]:
    """Coefficient matrices of nonnegative forms used by the LF outer test."""
    rng = np.random.RandomState(seed)
    out = []
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0
            out.append(m)  # the monomial x_i^2 x_j^2
    while len(out) < count:
        b = rng.standard_normal(n)
        out.append(np.outer(b, b) * 1.0)  # (sum b_k x_k^2)^2 is a square
        g = rng.standard_normal((n, n))
        p = g @ g.T
        out.append(p)  # q_P with P PSD is a square of quadratics
    return out


@dataclass
class SectionSpec:
    """Which cone section to study, with the oracle mode and star center.

    Modes: nn, psd, dnn, spn and cop (n <= 12, by Kaplan's criterion) are
    decided exactly at tolerance; cp requires mode "exact" (n <= 4 only,
    where CP = DNN), "inner" or "outer"; lf requires "inner" (conic hull of
    sampled generators) or "outer" (apolar pairing against sampled
    nonnegative forms).  "ball" is a calibration cone {|g| <= R}.
    `oracle_tol` must be finite and nonnegative.

    A spec keeps only what its radius needs (face rows, L^{-1} of the
    center, the supports with their L_S^{-1}, or the lf generators), and
    membership is the radius's rule, so building one solves no SDP or LP.
    """

    cone: str
    n: int
    mode: Optional[str] = None
    oracle_tol: float = 1e-9
    seed: int = 0
    generator_count: int = 512
    ball_radius: float = 1.0
    # derived fields
    dim: int = field(init=False)
    star_center: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.cone not in SECTION_CONES:
            raise ValueError(f"unknown cone {self.cone!r}")
        if self.n < 3 and self.cone != "ball":
            raise ValueError("n must be >= 3")
        if not self.ball_radius > 0:
            raise ValueError("ball_radius must be positive")
        if not (math.isfinite(self.oracle_tol) and self.oracle_tol >= 0):
            raise ValueError(f"oracle_tol must be finite and >= 0, got {self.oracle_tol}")
        if self.cone in ("nn", "psd", "dnn", "spn", "cop", "ball"):
            if self.mode not in (None, "exact"):
                raise ValueError(f"cone {self.cone} is decided exactly; mode must be None")
            if self.cone == "cop" and self.n > KAPLAN_MAX_N:
                raise ValueError(f"cop at n = {self.n} scans 2^n - 1 = {2 ** self.n - 1} "
                                 f"supports; n must be <= {KAPLAN_MAX_N}")
            self.mode = "exact"
        elif self.cone == "cp":
            if self.mode is None:
                self.mode = "exact" if self.n <= 4 else None
            if self.mode == "exact" and self.n > 4:
                raise ValueError("cp is only exactly decidable for n <= 4; "
                                 "request mode 'inner' or 'outer'")
            if self.mode not in ("exact", "inner", "outer"):
                raise ValueError(f"cp at n = {self.n} needs mode 'inner' or 'outer'")
        elif self.cone == "lf":
            if self.mode not in ("inner", "outer"):
                raise ValueError("lf needs mode 'inner' or 'outer'")
        self.dim = dim_M(self.n)
        self._bstack = basis_M(self.n)
        self._gam = _l2_gram_float(self.n)[1]
        self._bcoef = np.array([coeff_vector(b, self.n) for b in self._bstack])
        if self.cone == "ball":
            self.star_center = np.zeros(self.dim)
        elif self.cone == "lf":
            gens = lf_generators(self.n, self.generator_count, self.seed)
            navg = self.n * (self.n + 2) / 3.0  # generators have average 3/(n(n+2))
            pts = gens * navg
            self._gen_cols = np.array([coeff_vector(g, self.n) for g in pts]).T
            self.star_center = self.coords_of(pts.mean(axis=0))
        else:
            self.star_center = self.coords_of(_center_matrix(self.n))
        self._center_mat = self.matrix_of(self.star_center)
        self._face_dir = self._face_off = None
        faces = self._face_rows()
        if faces is not None:
            faces = faces.reshape(len(faces), -1)
            # face values along a direction g are g @ _face_dir
            self._face_dir = self._bstack.reshape(self.dim, -1) @ faces.T
            self._face_off = faces @ self._center_mat.ravel()
        self._chol_inv = None
        if self.cone in ("psd", "dnn") or (self.cone == "cp" and self.mode == "exact"):
            self._chol_inv = np.linalg.inv(np.linalg.cholesky(self._center_mat))
        self._supports = self._support_inv = None
        # spn starts from the COP radius up to n = 5, where a rank-one peel
        # leaves a 4 x 4 copositivity test (`_radial_spn`)
        if self.cone == "cop" or (self.cone == "spn" and self.n <= 5):
            # the supports S of each size, with L_S^{-1} where C_S = L_S L_S^T
            self._supports = list(_supports(self.n))
            self._support_inv = [np.linalg.inv(np.linalg.cholesky(_gather(self._center_mat, idx)))
                                 for idx in self._supports]

    def _face_rows(self) -> Optional[np.ndarray]:
        """Face rows of a polyhedral section as (m, n, n) functionals on a."""
        n = self.n
        iu = np.triu_indices(n)
        entries = np.zeros((len(iu[0]), n, n))
        entries[np.arange(len(iu[0])), iu[0], iu[1]] = 1.0
        if self.cone in ("nn", "dnn") or (self.cone == "cp" and self.mode == "exact"):
            return entries
        diag = np.arange(n)
        if self.cone == "cp" and self.mode == "inner":
            # a_ii - sum_{j != i} a_ij >= 0, diagonal dominance once a >= 0
            dom = np.zeros((n, n, n))
            dom[diag, diag, :] = -1.0
            dom[diag, diag, diag] = 1.0
            return np.concatenate([entries, dom])
        if self.cone == "lf" and self.mode == "outer":
            # apolar pairing 8 sum a_ij p_ij + 16 sum a_ii p_ii with each p
            rows = 8.0 * np.array(_pos_samples(n, max(64, self.generator_count // 4), self.seed + 1))
            rows[:, diag, diag] *= 3.0
            return rows
        return None

    # -- coordinate maps ----------------------------------------------------
    def coords_of(self, a: np.ndarray) -> np.ndarray:
        """Coordinates in the orthonormal basis of M of q_A - r^2."""
        diff = coeff_vector(a - np.ones((self.n, self.n)), self.n)
        return self._bcoef @ (self._gam @ diff)

    def matrix_of(self, g: np.ndarray) -> np.ndarray:
        return np.ones((self.n, self.n)) + np.tensordot(g, self._bstack, axes=1)

    # -- the membership oracle ------------------------------------------------
    def membership(self, g: np.ndarray) -> bool:
        """Is r^2 + sum g_i b_i in the (translated) cone section?

        One rule for every section: with c the star center and t the radius
        of `section_radii` along u = (g - c) / |g - c|, g is inside when
        |g - c| <= t (1 + oracle_tol).  The center itself is inside.
        """
        step = np.asarray(g, dtype=float) - self.star_center
        dist = float(np.linalg.norm(step))
        if dist == 0.0:
            return True
        return dist <= float(section_radii(self, step[None, :] / dist)[0]) * (1.0 + self.oracle_tol)


# ---------------------------------------------------------------------------
# radial function
# ---------------------------------------------------------------------------

class RadialError(RuntimeError):
    pass


# directions per `section_radii` call in `vrad_mc`; bounds the temporaries of
# the closed form
_BLOCK = 1024
# problems per `sdp_solve_many` call: one stack of 1024 rays peaked at 869 MB
# at n = 6, and past 64 problems a ray got no cheaper
_SDP_STACK = 64


def _check_unit(dirs: np.ndarray) -> None:
    if np.any(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) > 1e-12):
        raise ValueError("direction must be normalized")


def _check_bisect_tol(bisect_tol: float) -> None:
    # unused, as no section bisects, but kept for its callers and still checked
    if not (math.isfinite(bisect_tol) and 0 < bisect_tol < 1):
        raise ValueError(f"bisect_tol must be finite and in (0, 1), got {bisect_tol}")


def section_radii(spec: SectionSpec, directions) -> np.ndarray:
    """Radii of a stack of unit directions, shape (k, dim), by the section's
    method; a direction's radius does not depend on the stack.

    Face rows give min over rows with g.d < 0 of -(g.c)/(g.d); a spectral
    section gives -1/lambda_min(L^{-1} D L^{-T}); a section with both takes
    the smaller, computing lambda_min only on the rays whose face radius it
    can undercut; cop gives Kaplan's exact radius (`_radial_cop`); the ball
    gives its radius.  spn takes `_radial_spn`, cp outer one K^(1) SDP a ray
    (`_radial_cp_outer`) and lf inner one LP a ray (`_radial_lf_inner`).
    RadialError: a direction never exits, or a radius is <= 0, which means
    the star center is not interior to the section.
    """
    dirs = np.asarray(directions, dtype=float)
    _check_unit(dirs)
    if spec.cone == "ball":
        return np.full(len(dirs), spec.ball_radius)
    radii = np.full(len(dirs), np.inf)
    if spec.cone == "lf" and spec.mode == "inner":
        radii = np.array([_radial_lf_inner(spec, g) for g in dirs])
    elif spec.cone == "spn":
        radii = _radial_spn(spec, _direction_matrices(spec, dirs))
    elif spec.cone == "cp" and spec.mode == "outer":
        radii = _radial_cp_outer(spec, _direction_matrices(spec, dirs))
    elif spec._supports is not None:
        radii = _radial_cop(spec, _direction_matrices(spec, dirs))
    # einsum, not BLAS: a direction's radius must not depend on the stack size
    if spec._face_dir is not None:
        gd = np.einsum("kd,dm->km", dirs, spec._face_dir)
        ratios = np.divide(-spec._face_off, gd, out=np.full(gd.shape, np.inf), where=gd < 0)
        radii = ratios.min(axis=1)
    if spec._chol_inv is not None:
        d_mats = _direction_matrices(spec, dirs)
        w = spec._chol_inv @ d_mats @ spec._chol_inv.T
        w = 0.5 * (w + np.swapaxes(w, 1, 2))
        # the PSD side binds only where I + r W is not positive definite at
        # the face radius r; the margin 1e-9 is far above rounding, so every
        # ray skipped here has -1/lambda_min > r and keeps r bit for bit.  A
        # ray with no face radius binds (every ray of psd, which has no faces)
        face = np.isfinite(radii)
        bind = ~face
        rows = slice(None) if face.all() else face  # no copy of w where every ray has faces
        grown = radii[rows, None, None] * (1.0 + 1e-9)
        bind[rows] = ~_positive_definite(np.eye(spec.n) + grown * w[rows])
        lam = np.linalg.eigvalsh(w[bind])[:, 0]
        radii[bind] = np.minimum(radii[bind], np.divide(-1.0, lam, out=np.full(lam.shape, np.inf),
                                                        where=lam < 0))
    if not np.isfinite(radii).all():
        raise RadialError("direction never exits the section")
    if not (radii > 0).all():
        raise RadialError("star center is not interior to the section")
    return radii


def _positive_definite(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, shape (k, n, n), whether every pivot of its
    LDL^T factorization is positive, that is whether it is positive
    definite.  numpy's batched `cholesky` raises for the whole stack when
    one matrix fails, so the elimination runs here, one column at a time."""
    m = mats.copy()
    ok = np.ones(len(m), dtype=bool)
    for j in range(m.shape[1]):
        ok &= m[:, j, j] > 0
        col = m[:, j + 1:, j] / np.where(ok, m[:, j, j], 1.0)[:, None]
        m[:, j + 1:, j + 1:] -= col[:, :, None] * m[:, None, j, j + 1:]
    return ok


def _radial_cop(spec: SectionSpec, d_mats: np.ndarray) -> np.ndarray:
    """Radii of the COP section about the star center C along a stack of
    direction matrices D, shape (k, n, n), from the supports the spec keeps
    (cop at n <= 12, spn at n <= 5); +inf where D never exits.  Nothing in
    the argument below depends on n; only the 2^n - 1 supports grow.

    C + tD is singular on a support S with a one-signed null vector x
    exactly when W_S = L_S^{-1} D_S L_S^{-T} has the eigenvalue mu = -1/t
    with eigenvector L_S^T x.  The radius is -1/mu for the smallest such
    mu < 0 (`_kaplan_eigh`), and it is exact: at the radius t* some x >= 0
    has x^T (C + t* D) x = 0, so (C + t* D)_S x_S = 0 on its support S; for
    t < t*, C + tD is strictly copositive and no submatrix has a one-signed
    null vector; and on a minimal such S the null space has dimension one,
    so a repeated eigenvalue cannot hide the witness.

    The supports are scanned by size, and a (ray, S) pair reaches `eigh`
    only when S could still lower the ray's radius t so far
    (`_chl_may_lower`); a ray with no exit yet keeps every pair.  Pruning
    is exact.  Every support smaller than S is scanned, so at t every
    proper principal submatrix of M_S = C_S + t D_S is copositive.  If S
    had t_S < t, its x would give x^T M_S x = (t - t_S) x^T D_S x < 0, so
    M_S would not be copositive, and then M_S^{-1} <= 0 (Cottle, Habetler
    & Lemke 1970, LAA 3).  `_chl_may_lower` tests consequences of that; a
    pair failing one has t_S >= t and cannot lower the ray's minimum, so
    the radii are those of the unpruned scan (`_kaplan_min`) bit for bit.
    """
    low = np.full(len(d_mats), np.inf)  # the smallest one-signed mu so far
    for idx, linv in zip(spec._supports, spec._support_inv):
        keep = np.ones((len(d_mats), len(idx)), dtype=bool)
        hit = low < 0  # never at size 1, so the singletons all reach `eigh`
        if hit.any():
            t = -1.0 / low[hit]
            keep[hit] = _chl_may_lower(spec._center_mat + t[:, None, None] * d_mats[hit], idx)
        ray, sup = np.nonzero(keep)
        mu, _, signed = _kaplan_eigh(_gather_pairs(d_mats, ray, idx[sup]), linv[sup])
        np.minimum.at(low, ray, np.where(signed, mu, np.inf).min(axis=1))
    return np.divide(-1.0, low, out=np.full(low.shape, np.inf), where=low < 0)


def _gather_pairs(mats: np.ndarray, which: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The principal submatrix of mats[which[p]] on the support idx[p], for
    each pair p: shape (pairs, s, s)."""
    return mats[which[:, None, None], idx[:, :, None], idx[:, None, :]]


# the pruning tests keep a pair within this share of its ray's largest entry,
# which only sends more pairs to `eigh`; no radius depends on it
_CHL_MARGIN = 1e-9


def _chl_may_lower(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per matrix M of a stack, shape (k, n, n), and per support S of one
    size s >= 2, a row of idx: whether M_S^{-1} <= 0 may hold, shape
    (k, supports).

    If it holds, x = -M_S^{-1} 1 > 0 has M_S x = -1: every row of M_S has a
    negative off-diagonal entry, and on the row of the largest x_i, M_ii
    plus the negative off-diagonal entries is negative.  Both tests read
    the sums q_i = sum over j in S, j != i, of min(M_ij - margin, 0), one
    matmul for all supports; only the pairs passing both solve M_S y = 1
    and need y < 0.  A singular or non-finite solve keeps its pairs.
    """
    k, n, _ = mats.shape
    supports, size = idx.shape
    members = np.zeros((n, supports))
    members[idx, np.arange(supports)[:, None]] = 1.0
    thr = _CHL_MARGIN * np.abs(mats).max(axis=(1, 2))[:, None, None]
    diag = np.arange(n)
    q = np.minimum(mats - thr, 0.0)
    q[:, diag, diag] = 0.0
    # q_i for each matrix, support S and i in S, shape (k, supports, s)
    q = (q.reshape(k * n, n) @ members).reshape(k, n, supports)
    q = q[:, idx, np.arange(supports)[:, None]]
    keep = np.all(q < 0, axis=2) & np.any(mats[:, diag, diag][:, idx] + q < thr, axis=2)
    ray, sup = np.nonzero(keep)
    blocks = _gather_pairs(mats, ray, idx[sup])
    try:
        y = np.linalg.solve(blocks, np.ones((size, 1)))[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the stack; keep it all
        return keep
    top = np.abs(y).max(axis=1, initial=0.0)
    keep[ray, sup] = ~np.isfinite(top) | np.all(y < _CHL_MARGIN * top[:, None], axis=1)
    return keep


def _direction_matrices(spec: SectionSpec, dirs: np.ndarray) -> np.ndarray:
    """The coefficient matrix D of each direction of a stack, shape (k, n, n);
    einsum, so a direction's D does not depend on the stack size."""
    return np.einsum("kd,dij->kij", dirs, spec._bstack)


def _radial_spn(spec: SectionSpec, d_mats: np.ndarray) -> np.ndarray:
    """Radii of an spn section along a stack of direction matrices D, shape
    (k, n, n).

    At n <= 5 each ray starts from the COP radius t* of `_radial_cop`; as
    SPN lies in COP, the spn radius is at most t*, and it is t* exactly
    when A* = C + t* D is PSD + NN.  At n <= 4 that always holds (COP = SPN,
    Diananda 1962); at n = 5 `_peel_certifies` must show it.  The rays it
    cannot certify, and every ray at n >= 6, take the stacked P + N SDP
    (`_radial_spn_sdp`).
    """
    if spec._supports is None:
        return _radial_spn_sdp(spec, d_mats)
    radii = _radial_cop(spec, d_mats)
    done = np.isfinite(radii)
    if spec.n == 5:
        a_star = spec._center_mat + radii[done, None, None] * d_mats[done]
        done[done] = _peel_certifies(a_star, spec.oracle_tol)
    if not done.all():
        radii[~done] = _radial_spn_sdp(spec, d_mats[~done])
    return radii


def _peel_certifies(mats: np.ndarray, tol: float) -> np.ndarray:
    """Per 5 x 5 matrix A of a stack, whether a rank-one peel shows it PSD + NN.

    Take a row i with a = A_ii > 0, its off-diagonal part b and beta = min(b, 0)
    or beta = b; with v = (sqrt(a), beta / sqrt(a)), in the order that puts
    i first,

        A = v v^T + [[0, (b - beta)^T], [b - beta, R]],  R = A_-i,-i - beta beta^T / a.

    b - beta >= 0, so if R is copositive, hence PSD + NN as 4 x 4 (Diananda
    1962), A is PSD + NN.  R is judged by Kaplan's criterion at tolerance:
    it passes when no principal submatrix R_S has an eigenvalue below
    -tol (1 + max |R_ij|) with a strictly one-signed eigenvector.  The peels
    are tried in turn, beta = min(b, 0) on every row first, each only on the
    matrices no earlier peel certified.  A False is no refutation.
    """
    n = mats.shape[1]
    supports = list(_supports(n - 1))
    ok = np.zeros(len(mats), dtype=bool)
    for whole_row in (False, True):
        for i in range(n):
            todo = np.flatnonzero(~ok & (mats[:, i, i] > 0))
            if not len(todo):
                continue
            rest = [j for j in range(n) if j != i]
            m = mats[todo]
            beta = m[:, i, rest] if whole_row else np.minimum(m[:, i, rest], 0.0)
            r = m[:, rest][:, :, rest] - beta[:, :, None] * beta[:, None, :] / m[:, i, i, None, None]
            scale = 1.0 + np.abs(r).max(axis=(1, 2))
            ok[todo] = _kaplan_min(r, supports) >= -tol * scale
    return ok


def _sdp_radii(d_mats: np.ndarray, problem, radius) -> np.ndarray:
    """Radii along a stack of direction matrices D, shape (k, n, n), from
    the SDP `problem(D)` a ray, read off its optimum by `radius`; solved
    `_SDP_STACK` at a time, which `sdp_solve_many` makes bit for bit."""
    radii = np.empty(len(d_mats))
    for lo in range(0, len(d_mats), _SDP_STACK):
        sols = sdp_solve_many([problem(d_mat) for d_mat in d_mats[lo:lo + _SDP_STACK]], tol=1e-8)
        for k, sol in enumerate(sols, lo):
            if sol.status != SdpStatus.OPTIMAL:
                raise RadialError(f"parametric radial SDP failed: {sol.message}")
            radii[k] = radius(sol)
    return radii


def _radial_spn_sdp(spec: SectionSpec, d_mats: np.ndarray) -> np.ndarray:
    """Radii along a stack of direction matrices D, shape (k, n, n), inside
    SPN, each the SDP max t s.t. X + N - t D = C, X PSD, N >= 0 entrywise,
    with C the star center (`cones.pn_problem`).
    """
    return _sdp_radii(d_mats, lambda d_mat: pn_problem(spec._center_mat, d_mat),
                      lambda sol: sol.free[0])


def _radial_cp_outer(spec: SectionSpec, d_mats: np.ndarray) -> np.ndarray:
    """Radii of the cp outer section (K^(1))* along a stack of direction
    matrices D, shape (k, n, n): by duality, min <C, M> over M in K^(1) with
    <D, M> = -1, a row appended a ray to `cones.kr_problem`'s free-M model,
    which is built once a call.  C is inside CP, which lies in (K^(1))*, and
    2I + J is interior to K^(1) and pairs to zero with every direction, so
    the SDP is feasible with a positive optimum.
    """
    base, _ = kr_problem(spec.n, 1)
    base.objective = _pairing_expr(spec._center_mat)
    sos = base.constraints
    return _sdp_radii(d_mats, lambda d: replace(base, constraints=sos + [(_pairing_expr(d), -1.0)]),
                      lambda sol: sol.objective_value)


def _radial_lf_inner(spec: SectionSpec, g: np.ndarray) -> float:
    """Radius of the lf inner section along g as one LP: max t s.t.
    sum_k lam_k tvec(G_k) = tvec(C) + t tvec(D), lam >= 0, t >= 0."""
    from scipy.optimize import linprog  # so that no other section loads scipy
    d_col = coeff_vector(np.tensordot(g, spec._bstack, axes=1), spec.n)
    gens = spec._gen_cols
    cost = np.zeros(gens.shape[1] + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_eq=np.hstack([gens, -d_col[:, None]]),
                  b_eq=coeff_vector(spec._center_mat, spec.n), bounds=(0, None),
                  method="highs")
    if res.status == 3:
        raise RadialError("direction never exits the section")
    if res.status != 0:
        raise RadialError(f"lf inner radial LP failed: {res.message}")
    return float(res.x[-1])


def radial(spec: SectionSpec, direction, bisect_tol: float = 1e-9) -> float:
    """Largest t with center + t * direction inside the section.

    This is `section_radii` on a stack of one, so the radius equals the one
    `vrad_mc` computes in its blocks.  `bisect_tol` is checked but unused.
    """
    _check_bisect_tol(bisect_tol)
    return float(section_radii(spec, np.asarray(direction, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# Monte Carlo volume radius
# ---------------------------------------------------------------------------

def vrad_mc(spec: SectionSpec, samples: int, seed: int,
            bisect_tol: float = 1e-6) -> VradEstimate:
    """Monte Carlo volume radius (Vol/Vol(B_d))^(1/d) with a 95% CI.

    Uses Vol = Vol(B_d) E[r(theta)^d] about the star center (volume is
    translation invariant).  The directions go to `section_radii` in blocks
    of `_BLOCK`, fewer where the supports are large, in one process and
    thread; a radius does not depend on its block.  No section bisects, so
    `bisect_tol` is checked, finite and in (0, 1), but unused.
    The CI is the delta-method interval of log E[r^d], mapped through the
    1/d power.  The result is deterministic given (seed, samples).
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    _check_bisect_tol(bisect_tol)
    d = spec.dim
    rng = np.random.RandomState(seed)
    dirs = rng.standard_normal((samples, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # a section with supports cuts the block to _BLOCK x 1400 floats of
    # support blocks, the most a ray has at n = 8 (m supports of s x s at the
    # largest size).  `_radial_cop` gathers for its solves and `eigh` at most
    # every pair of one size, and its row sums hold n x m floats a ray, so no
    # temporary outgrows that.  Traced peaks of one block: 9.3 MB at n = 8,
    # 9.4 at n = 10 and 9.3 at n = 12; the unpruned scan took 46-49 MB.
    stack = max((idx.size * idx.shape[1] for idx in spec._supports or ()), default=1400)
    block = min(_BLOCK, _BLOCK * 1400 // stack)
    radii = np.concatenate([section_radii(spec, dirs[i:i + block])
                            for i in range(0, samples, block)])

    powers = radii ** d
    est = float(powers.mean() ** (1.0 / d))
    z = NormalDist().inv_cdf(0.975)
    rel = z * float(powers.std(ddof=1)) / (float(powers.mean()) * math.sqrt(samples))
    return VradEstimate(cone=spec.cone, n=spec.n, mode=spec.mode, point_estimate=est,
                        ci_low=est * math.exp(-rel / d), ci_high=est * math.exp(rel / d),
                        samples=samples, seed=seed, dim=d)


# ---------------------------------------------------------------------------
# exact volume of the NN section (a simplex)
# ---------------------------------------------------------------------------

def vrad_nn_exact(n: int) -> float:
    """Exact volume radius of the NN section, a simplex on D = n(n+1)/2
    vertices, in closed form at every n >= 3.

    In the aggregated coordinates t of `quartic._l2_gram_float` the NN cone
    is the orthant t >= 0, M carries the metric Gamma, and the sphere
    average is m.t with m = 3/(n(n+2)) on x_i^4 and 1/(n(n+2)) on
    x_i^2 x_j^2.  The Laplace transform of the orthant,
    prod_p 1/m_p = (n(n+2))^D / 3^n, integrates e^-s over the slices
    m.t = s, each s^(D-1) times the section m.t = 1; so in Gamma's metric
    sqrt(det Gamma) prod_p 1/m_p = (D-1)! h Vol, where h = 1 is the distance
    of that plane from 0 (its normal is r^4, of norm 1).  So
    Vol = sqrt(det Gamma) prod_p 1/m_p / (D-1)!.

    Gamma = G / (n(n+2)(n+4)(n+6)) with G an integer matrix: G_AA = 96 I + 9 J
    on the x_i^4, G_AB = 3 J + 12 K and G_BB = J + 2 K^T K + 4 I on the
    x_i^2 x_j^2, K the vertex-edge incidence matrix of the complete graph.
    G commutes with S_n, and its three eigen-blocks give det G: the
    invariant one (2 x 2, det 12 (n+4)(n+6)), the standard one (2 x 2, det
    48 (n+6), n - 1 times) and ker K against the ones (eigenvalue 4,
    n(n-3)/2 times).  Everything is summed in logs, so no n overflows.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    big_d = n * (n + 1) // 2
    d = big_d - 1
    log_det_g = (math.log(12 * (n + 4) * (n + 6)) + (n - 1) * math.log(48 * (n + 6))
                 + n * (n - 3) * math.log(2))
    log_det_gamma = log_det_g - big_d * math.log(n * (n + 2) * (n + 4) * (n + 6))
    log_vol = (0.5 * log_det_gamma + big_d * math.log(n * (n + 2)) - n * math.log(3)
               - math.lgamma(big_d))
    log_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1)
    return math.exp((log_vol - log_ball) / d)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

# cone inclusions; they hold for the inner and outer sections alike
ORDER_PAIRS = [("cp", "dnn"), ("dnn", "psd"), ("dnn", "nn"),
               ("psd", "spn"), ("nn", "spn"), ("spn", "cop")]
# the sections of one cone nest as inner <= exact <= outer
_MODE_RANK = {"inner": 0, "exact": 1, None: 1, "outer": 2}


@dataclass
class BoundsReport:
    n: int
    band: Tuple[float, float]
    items: List[dict]

    @property
    def all_passed(self) -> bool:
        return all(item["passed"] for item in self.items)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "band": list(self.band), "all_passed": self.all_passed,
                "checks": self.items}


def check_bounds(n: int, estimates: Dict[Tuple[str, Optional[str]], VradEstimate]
                 ) -> BoundsReport:
    """Check estimates, keyed by (cone, mode), against the universal band and
    the inclusion order.

    (a) every 95% CI intersects [(2^4 sqrt2)^-1 / n, 2^8 sqrt2 / n];
    (b) an inner section's estimate does not exceed an outer one's beyond CI
        overlap, for each ORDER_PAIRS pair in any modes and for the inner,
        exact and outer sections of one cone;
    (c) the exact NN volume radius is at least (sqrt2 n)^-1, at every
        n >= 3 (`vrad_nn_exact`, in closed form).
    """
    for cone, mode in estimates:
        if mode not in _MODE_RANK:
            raise ValueError(f"unknown mode {mode!r} of cone {cone}")
    lo = 1.0 / (16.0 * math.sqrt(2.0) * n)
    hi = 256.0 * math.sqrt(2.0) / n
    keys = sorted(estimates, key=lambda k: (k[0], _MODE_RANK[k[1]]))
    items: List[dict] = []
    for cone, mode in keys:
        est = estimates[cone, mode]
        ok = est.ci_high >= lo and est.ci_low <= hi
        items.append({"check": "band", "cone": cone, "mode": mode, "passed": bool(ok),
                      "ci": [est.ci_low, est.ci_high], "band": [lo, hi]})
    for inner in keys:
        for outer in keys:
            if (inner[0], outer[0]) not in ORDER_PAIRS and not (
                    inner[0] == outer[0] and _MODE_RANK[inner[1]] < _MODE_RANK[outer[1]]):
                continue
            ei, eo = estimates[inner], estimates[outer]
            ok = (ei.point_estimate <= eo.point_estimate) or (ei.ci_low <= eo.ci_high)
            items.append({"check": "order", "pair": [list(inner), list(outer)],
                          "passed": bool(ok),
                          "estimates": [ei.point_estimate, eo.point_estimate]})
    if estimates and n >= 3:
        exact = vrad_nn_exact(n)
        ok = exact >= 1.0 / (math.sqrt(2.0) * n)
        items.append({"check": "nn-exact-lower", "passed": bool(ok),
                      "vrad_nn_exact": exact,
                      "lower": 1.0 / (math.sqrt(2.0) * n)})
    return BoundsReport(n=n, band=(lo, hi), items=items)
