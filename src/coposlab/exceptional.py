"""Cosine-series bootstrap for exceptional matrices.

A nonnegative cosine series f(x) = 1 + 2 sum_k a_k cos(2 k pi x) acts by
multiplication on the span of {1, sqrt2 cos(2 pi x), sqrt2 cos(4 pi x), ...};
its n x n compressions A^(n) are simultaneously Toeplitz-plus-Hankel in the
coefficients a_k.  Choosing a_k >= 0 makes every compression entrywise
nonnegative, a sum-of-squares certificate f = v^T B v makes every compression
PSD, and steering the 5 x 5 compression against the Horn matrix
(<A^(5), H> = -eps < 0) makes every compression of size >= 5 fail complete
positivity.  A second feasibility SDP then turns any such A into a copositive
matrix C that is not PSD + NN, via <A, C> < 0 plus an SOS certificate for
(sum x_i^2)^k q_C.

The published rationalized instances ship in data/ and are re-verified in
exact Q(sqrt2)/Q arithmetic by verify_paper_examples().  Only the cosine
part of the L2[0,1] basis appears here: a multiplication operator with any
sine component cannot keep all finite compressions entrywise nonnegative,
so sine coefficients are excluded by construction.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import numpy as np

from .cones import (InfeasibilityCert, SosGram, cp_refute, frobenius,
                    horn_matrix, membership_basic, quartic_target_linear,
                    _indeterminate)
from .numerics import (CholeskyFactor, PivotList, QSqrt2, SymMatrix,
                       exact_ldl_psd, matrix_loads)
from .quartic import monomials
from .sdp import (LinExpr, SdpProblem, SdpStatus, even_sos_assemble, sdp_solve)

_SQRT2 = math.sqrt(2.0)


class VerificationError(RuntimeError):
    """A freshly constructed object failed its own re-verification."""


@dataclass(frozen=True)
class CosPoly:
    """Finite cosine series a0 + 2 sum_{k>=1} a_k cos(2 k pi x)."""

    coeffs: tuple  # (a0, a1, ..., am), floats or exact scalars
    flavor: str = "float"

    @staticmethod
    def from_floats(coeffs) -> "CosPoly":
        return CosPoly(tuple(float(c) for c in coeffs), "float")

    @staticmethod
    def exact(coeffs) -> "CosPoly":
        out = tuple(c if isinstance(c, QSqrt2) else QSqrt2.of(c) for c in coeffs)
        return CosPoly(out, "exact")

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k <= self.m:
            return self.coeffs[k]
        return 0.0 if self.flavor == "float" else QSqrt2.of(0)

    def eval(self, x: float) -> float:
        acc = float(self.coeffs[0])
        for k in range(1, self.m + 1):
            acc += 2.0 * float(self.coeffs[k]) * math.cos(2.0 * math.pi * k * x)
        return acc


def triple_integral(j: int, k: int, l: int) -> Fraction:
    """Exact integral of cos(2j pi x) cos(2k pi x) cos(2l pi x) over [0,1].

    Reducing one product to half-sums of shifted cosines gives
    1/2 [ g(|j-k|, l) + g(j+k, l) ] with g(m, l) = 1 when m = l = 0,
    1/2 when m = l != 0, and 0 otherwise; symmetric in (j, k, l).
    """
    if min(j, k, l) < 0:
        raise ValueError("frequencies must be nonnegative")

    def g(m, l_):
        if m == l_ == 0:
            return Fraction(1)
        if m == l_:
            return Fraction(1, 2)
        return Fraction(0)

    return Fraction(1, 2) * (g(abs(j - k), l) + g(j + k, l))


# ---------------------------------------------------------------------------
# compressions of the multiplication operator
# ---------------------------------------------------------------------------

def compression_matrix(f: CosPoly, n: int) -> SymMatrix:
    """n x n compression of multiplication by f on the cosine subspace.

    Basis {1, sqrt2 cos(2 pi x), ..., sqrt2 cos(2 (n-1) pi x)}; entries
    A_11 = a0, A_1k = sqrt2 a_{k-1}, and A_jk = a_|j-k| + a_{j+k-2} for
    j, k >= 2, with a_i = 0 past the series degree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.flavor == "float":
        arr = np.zeros((n, n))
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                if j == 1:
                    v = float(f.coeff(0)) if k == 1 else _SQRT2 * float(f.coeff(k - 1))
                else:
                    v = float(f.coeff(abs(j - k))) + float(f.coeff(j + k - 2))
                arr[j - 1, k - 1] = arr[k - 1, j - 1] = v
        return SymMatrix(arr)
    rows = [[QSqrt2.of(0)] * n for _ in range(n)]
    sqrt2 = QSqrt2.sqrt2()
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            if j == 1:
                v = f.coeff(0) if k == 1 else sqrt2 * f.coeff(k - 1)
            else:
                v = f.coeff(abs(j - k)) + f.coeff(j + k - 2)
            rows[j - 1][k - 1] = rows[k - 1][j - 1] = v
    return SymMatrix(rows, "exact")


def extend_ednn(f: CosPoly, n: int) -> SymMatrix:
    """Larger compression of the same series; the leading 5x5 block is A^(5).

    Nonnegativity and PSD-ness transfer to every n, while the leading block
    pins the failure of complete positivity: a nonnegative factorization of
    the big matrix would compress to one for A^(5).
    """
    if n < 5:
        raise ValueError("extension only meaningful for n >= 5")
    return compression_matrix(f, n)


# ---------------------------------------------------------------------------
# trigonometric SOS certificates
# ---------------------------------------------------------------------------

@dataclass
class TrigGram:
    """Gram certificate f = v^T B v with v = (1, cos(2 pi x), ..., cos(2 m' pi x))."""

    mprime: int
    gram: np.ndarray

    def function_coeffs(self) -> List[float]:
        """Cosine-functional coefficients (integral against cos(2 i pi x))."""
        mp = self.mprime
        out = []
        for i in range(2 * mp + 1):
            acc = 0.0
            for j in range(mp + 1):
                for k in range(mp + 1):
                    t = triple_integral(j, k, i)
                    if t:
                        acc += float(self.gram[j, k]) * float(t)
            out.append(acc)
        return out

    def residual(self, f: CosPoly) -> float:
        got = self.function_coeffs()
        top = max(2 * self.mprime, f.m)
        r = 0.0
        for i in range(top + 1):
            want = float(f.coeff(i)) if i else float(f.coeff(0))
            have = got[i] if i < len(got) else 0.0
            r = max(r, abs(have - want))
        return r


def gram_function_coeffs_exact(b: SymMatrix) -> List[QSqrt2]:
    """Exact cosine-functional coefficients of v^T B v for an exact Gram B."""
    mp = b.n - 1
    out = []
    for i in range(2 * mp + 1):
        acc = QSqrt2.of(0)
        for j in range(mp + 1):
            for k in range(mp + 1):
                t = triple_integral(j, k, i)
                if t:
                    acc = acc + b[j, k] * t
        out.append(acc)
    return out


def trig_sos_check(f: CosPoly, mprime: int, tol: float = 1e-9):
    """Decide f = v^T B v with B PSD by coefficient-matching feasibility.

    The matching equates the integral of both sides against cos(2 i pi x)
    for i = 0..max(2 m', deg f); frequencies of f beyond 2 m' must vanish,
    otherwise the problem is structurally infeasible.
    """
    if mprime < 0:
        raise ValueError("mprime must be >= 0")
    for i in range(2 * mprime + 1, f.m + 1):
        ci = f.coeff(i)
        bad = (not ci.is_zero()) if isinstance(ci, QSqrt2) else float(ci) != 0.0
        if bad:
            return InfeasibilityCert(ray=None, note=f"frequency {i} of f exceeds 2*mprime")
    prob = SdpProblem(psd_block_dims=[mprime + 1])
    for i in range(2 * mprime + 1):
        expr = LinExpr()
        for j in range(mprime + 1):
            for k in range(j, mprime + 1):
                t = triple_integral(j, k, i)
                if t:
                    expr.add_psd_entry(0, j, k, float(t) * (1.0 if j == k else 2.0))
        rhs = float(f.coeff(i))
        if expr.is_zero():
            if rhs != 0.0:
                return InfeasibilityCert(ray=None, note=f"frequency {i} unreachable")
            continue
        prob.constraints.append((expr, rhs))
    sol = sdp_solve(prob, tol=tol)
    if sol.status in (SdpStatus.FEASIBLE_POINT, SdpStatus.OPTIMAL):
        return TrigGram(mprime=mprime, gram=sol.psd_blocks[0])
    if sol.status == SdpStatus.INFEASIBLE:
        return InfeasibilityCert(ray=sol.dual_ray, note="no PSD Gram over the cosine basis")
    raise _indeterminate(sol)


# ---------------------------------------------------------------------------
# construction of exceptional DNN matrices
# ---------------------------------------------------------------------------

@dataclass
class EdnnResult:
    f: CosPoly
    gram: SymMatrix       # B with f = v^T B v at solver tolerance
    mprime: int
    a5: SymMatrix         # the 5x5 compression, DNN but not CP
    epsilon: Fraction
    horn_pairing: float   # <A5, H>, approximately -epsilon


def horn_pairing_coefficients(m: int) -> Tuple[float, List[float]]:
    """<A^(5)(a), H> = c0 + sum_i c_i a_i as explicit linear coefficients."""
    h = horn_matrix().to_numpy()
    c = [0.0] * (m + 1)
    for j in range(1, 6):
        for k in range(j, 6):
            w = (1.0 if j == k else 2.0) * h[j - 1, k - 1]
            if j == 1:
                if k == 1:
                    c[0] += w
                elif k - 1 <= m:
                    c[k - 1] += w * _SQRT2
            else:
                for idx in (abs(j - k), j + k - 2):
                    if idx <= m:
                        c[idx] += w
    return c[0], c[1:]


def build_ednn_sdp(epsilon, m: int, mprime: int) -> SdpProblem:
    """Feasibility SDP over (a_1..a_m, B): Horn pairing -eps, f = v^T B v, a >= 0.

    With eps = 0 the pairing constraint is omitted (the relaxed exploration
    variant, trivially feasible at a = 0, B = e0 e0^T).  Note the certified
    feasible set is empty for every eps > 0 when m = 6: no nonnegative
    cosine series of degree six with nonnegative coefficients pairs
    negatively against the Horn matrix (the optimal pairing is +0.0479 over
    this constraint set).  Degree m = 12 with mprime = 6 reaches pairings
    down to about -0.227.
    """
    if mprime > m:
        raise ValueError("mprime must not exceed m")
    eps = Fraction(epsilon) if not isinstance(epsilon, float) else Fraction(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    prob = SdpProblem(psd_block_dims=[mprime + 1], nonneg_dim=m)
    # coefficient matching: integral of v^T B v against cos(2 i pi x) equals
    # a_0 = 1 at i = 0 and a_i at i >= 1 (zero past the series degree)
    for i in range(max(2 * mprime, m) + 1):
        expr = LinExpr()
        for j in range(mprime + 1):
            for k in range(j, mprime + 1):
                t = triple_integral(j, k, i)
                if t:
                    expr.add_psd_entry(0, j, k, float(t) * (1.0 if j == k else 2.0))
        if i == 0:
            prob.constraints.append((expr, 1.0))
        else:
            if i <= m:
                expr.add_nonneg(i - 1, -1.0)
            prob.constraints.append((expr, 0.0))
    if eps > 0:
        c0, ci = horn_pairing_coefficients(m)
        pairing = LinExpr()
        for i, cv in enumerate(ci):
            pairing.add_nonneg(i, cv)
        prob.constraints.append((pairing, -float(eps) - c0))
    prob.meta = {"kind": "ednn", "epsilon": str(eps), "m": m, "mprime": mprime}
    return prob


def construct_ednn(epsilon, m: int = 6, mprime: int = 3, tol: float = 1e-9,
                   dump_sdp=None):
    """Solve the bootstrap SDP and package a fully re-verified EdnnResult.

    Verification after solving: coefficients nonnegative, the compression
    entrywise nonnegative and PSD at tol, the Horn pairing within 1e-6 of
    -epsilon, and a hierarchy separator confirming the matrix is not CP.
    Failures raise VerificationError, never pass silently.
    """
    eps = Fraction(epsilon)
    prob = build_ednn_sdp(eps, m, mprime)
    if dump_sdp:
        prob.dump_json(dump_sdp)
    sol = sdp_solve(prob, tol=tol)
    if sol.status == SdpStatus.INFEASIBLE:
        return InfeasibilityCert(ray=sol.dual_ray, note="bootstrap SDP infeasible")
    if sol.status not in (SdpStatus.FEASIBLE_POINT, SdpStatus.OPTIMAL):
        raise _indeterminate(sol)
    a = [max(float(v), 0.0) for v in sol.nonneg]
    f = CosPoly.from_floats([1.0] + a)
    bmat = SymMatrix(0.5 * (sol.psd_blocks[0] + sol.psd_blocks[0].T))
    a5 = compression_matrix(f, 5)

    check_tol = max(tol, 1e-9)
    if min(a) < -check_tol:
        raise VerificationError("negative series coefficient")
    ok_dnn, _ = membership_basic(a5, "dnn", max(100.0 * check_tol, 1e-7))
    if not ok_dnn:
        raise VerificationError("compression failed DNN certification")
    pairing = float((a5.to_numpy() * horn_matrix().to_numpy()).sum())
    if eps > 0:
        if abs(pairing + float(eps)) > 1e-6:
            raise VerificationError(f"Horn pairing {pairing} far from target {-float(eps)}")
        sep = cp_refute(a5, r=1, tol=1e-8)
        if sep is None or sep.pairing >= 0:
            raise VerificationError("hierarchy separator for non-complete-positivity not found")
    gram_res = TrigGram(mprime=mprime, gram=bmat.to_numpy()).residual(f)
    if gram_res > max(1e-6, 100.0 * check_tol):
        raise VerificationError(f"Gram identity residual {gram_res}")
    return EdnnResult(f=f, gram=bmat, mprime=mprime, a5=a5, epsilon=eps,
                      horn_pairing=pairing)


# ---------------------------------------------------------------------------
# construction of exceptional copositive matrices
# ---------------------------------------------------------------------------

def construct_ecop(a: SymMatrix, epsilon_prime, k: int = 1, tol: float = 1e-8,
                   dump_sdp=None):
    """Find copositive-but-not-SPN C: <A, C> = -eps' and (sum x^2)^k q_C SOS.

    A must be (certified) doubly nonnegative; the pairing <A, C> < 0 then
    separates C from PSD + NN, while the Gram certificate keeps C copositive.
    The SOS condition is even, so the SDP is solved block-diagonally by
    exponent parity (even_sos_assemble); the Gram certificate is still over
    the full monomial basis of degree k + 2, and an infeasibility ray is
    indexed like the dense coefficient rows followed by the pairing row.
    Returns (C, SosGram) or an InfeasibilityCert; Indeterminate raises.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 at desk scale")
    epsp = Fraction(epsilon_prime)
    if epsp <= 0:
        raise ValueError("epsilon_prime must be > 0")
    n = a.n
    arr = a.to_numpy()
    basis = monomials(n, k + 2)
    pairs, coef = quartic_target_linear(n, k)
    prob, layout = even_sos_assemble(basis, {}, coef, len(pairs))
    pair_expr = LinExpr()
    for kidx, (i, j) in enumerate(pairs):
        pair_expr.add_free(kidx, float(arr[i, j]) * (1.0 if i == j else 2.0))
    prob.constraints.append((pair_expr, -float(epsp)))
    prob.meta = {"kind": "ecop", "epsilon_prime": str(epsp), "k": k}
    if dump_sdp:
        prob.dump_json(dump_sdp)

    sol = sdp_solve(prob, tol=tol)
    if sol.status == SdpStatus.INFEASIBLE:
        return InfeasibilityCert(ray=layout.lift_ray(sol.dual_ray),
                                 note="no copositive separator at this pairing")
    if sol.status not in (SdpStatus.FEASIBLE_POINT, SdpStatus.OPTIMAL):
        raise _indeterminate(sol)
    cmat = np.zeros((n, n))
    for kidx, (i, j) in enumerate(pairs):
        cmat[i, j] = cmat[j, i] = sol.free[kidx]
    gram = SosGram(basis=basis, gram=layout.gram(sol))
    pairing = float((arr * cmat).sum())
    if abs(pairing + float(epsp)) > 1e-7:
        raise VerificationError(f"pairing {pairing} missed target {-float(epsp)}")
    return SymMatrix(0.5 * (cmat + cmat.T)), gram


# ---------------------------------------------------------------------------
# exact verification of the bundled reference matrices
# ---------------------------------------------------------------------------

def _load_data(name: str) -> SymMatrix:
    ref = importlib.resources.files("coposlab").joinpath(f"data/{name}.json")
    return matrix_loads(ref.read_text(encoding="utf-8"))


def load_reference_a5() -> SymMatrix:
    return _load_data("paper_A5")


def load_reference_gram() -> SymMatrix:
    return _load_data("paper_B")


def load_reference_c() -> SymMatrix:
    return _load_data("paper_C")


def read_off_series(a5: SymMatrix) -> CosPoly:
    """Recover the cosine coefficients from the compression structure."""
    if a5.n != 5 or a5.flavor != "exact":
        raise ValueError("exact 5x5 compression required")
    inv_sqrt2 = QSqrt2.sqrt2(Fraction(1, 2))  # 1/sqrt2
    a = [QSqrt2.of(1)]
    for k in range(1, 5):
        a.append(a5[0, k] * inv_sqrt2)
    a.append(a5[1, 4] - a[3])  # A_25 = a3 + a5
    a.append(a5[2, 4] - a[2])  # A_35 = a2 + a6
    return CosPoly.exact(a)


@dataclass
class CheckResult:
    id: int
    name: str
    passed: bool
    detail: str


@dataclass
class PaperReport:
    checks: List[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [{"id": c.id, "name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in self.checks]}


def verify_paper_examples(sos_tol: float = 1e-8) -> PaperReport:
    """Re-verify the bundled reference matrices; checks 1-6 are exact.

    1. A5 equals the compression of the series read off from it.
    2. The series equals v^T B v for the bundled Gram B, coefficientwise.
    3. B is PSD (exact pivoted LDL^T).
    4. A5 is entrywise nonnegative (exact signs).
    5. <A5, H> < 0 exactly (reference value -1/20).
    6. <C, A5> < 0 exactly (reference value -1/10).
    7. (sum x_i^2) q_C admits a numerical SOS Gram at sos_tol.
    """
    from .cones import parrilo_member  # local import to keep module load light

    a5 = load_reference_a5()
    bmat = load_reference_gram()
    cmat = load_reference_c()
    checks: List[CheckResult] = []

    f = read_off_series(a5)
    comp = compression_matrix(f, 5)
    ok1 = comp == a5
    checks.append(CheckResult(1, "compression matches read-off series", ok1,
                              "exact entrywise equality" if ok1 else "entry mismatch"))

    got = gram_function_coeffs_exact(bmat)
    want = [f.coeff(i) for i in range(max(len(got), f.m + 1))]
    mismatches = []
    for i in range(len(want)):
        have = got[i] if i < len(got) else QSqrt2.of(0)
        if have != want[i]:
            mismatches.append((i, str(have), str(want[i])))
    ok2 = not mismatches
    detail2 = "exact equality" if ok2 else (
        "cosine-functional mismatch (got vs required), frequencies "
        + "; ".join(f"{i}: {g} vs {w}" for i, g, w in mismatches[:3])
        + ("; bundled Gram reproduces (1 + f)/2 exactly" if all(
            (got[i] if i < len(got) else QSqrt2.of(0)) ==
            (QSqrt2.of(1) if i == 0 else want[i] * Fraction(1, 2))
            for i in range(len(want))) else ""))
    checks.append(CheckResult(2, "series equals v^T B v", ok2, detail2))

    ok3 = isinstance(exact_ldl_psd(bmat), PivotList)
    checks.append(CheckResult(3, "Gram matrix PSD (exact LDL)", ok3,
                              "all pivots nonnegative" if ok3 else "negative pivot"))

    ok4 = a5.min_entry_sign() >= 0
    checks.append(CheckResult(4, "A5 entrywise nonnegative", ok4,
                              "exact signs" if ok4 else "negative entry"))

    h = horn_matrix()
    p5 = frobenius(a5, h)
    ok5 = p5.sign() < 0
    checks.append(CheckResult(5, "Horn pairing negative", ok5,
                              f"<A5,H> = {p5} (reference -1/20)"))

    p6 = frobenius(cmat.to_exact() if cmat.flavor == "float" else cmat, a5)
    ok6 = p6.sign() < 0
    checks.append(CheckResult(6, "separation pairing negative", ok6,
                              f"<C,A5> = {p6} ~ {float(p6):.6f} (reference -1/10)"))

    try:
        res7 = parrilo_member(cmat, 1, tol=sos_tol)
        ok7 = isinstance(res7, SosGram)
        detail7 = "Gram found" if ok7 else "no Gram (separating functional)"
    except RuntimeError as exc:
        ok7, detail7 = False, str(exc)
    checks.append(CheckResult(7, "copositivity certificate for C", ok7, detail7))

    return PaperReport(checks=checks)
