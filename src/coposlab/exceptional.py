"""Cosine-series bootstrap for exceptional matrices.

A nonnegative cosine series acts by multiplication on the cosine part of
L2[0,1]; its n x n compressions A^(n) are simultaneously Toeplitz-plus-Hankel
in the coefficients a_k.  Choosing a_k >= 0 makes every compression entrywise
nonnegative, a sum-of-squares certificate f = v^T B v makes every compression
PSD, and steering the 5 x 5 compression against the Horn matrix
(<A^(5), H> = -eps < 0) makes every compression of size >= 5 fail complete
positivity.  A second feasibility SDP then turns any such A into a copositive
matrix C that is not PSD + NN, via <A, C> < 0 plus an SOS certificate for
(sum x_i^2)^k q_C.

Three conventions, each used by exactly one table below:

- the series is f(x) = a0 + 2 sum_{k>=1} a_k cos(2 k pi x) (CosPoly);
- the compression basis is {1, sqrt2 cos(2 pi x), ..., sqrt2 cos(2 (n-1) pi x)},
  orthonormal, so A_11 = a0, A_1k = sqrt2 a_{k-1} and
  A_jk = a_|j-k| + a_{j+k-2} for j, k >= 2 (_compression_layout);
- the Gram basis is v = (1, cos(2 pi x), ..., cos(2 m' pi x)), unnormalised,
  and v^T B v is matched to f through its integrals against cos(2 i pi x),
  which are a_i (_cosine_gram_table).

The published rationalized instances ship in data/ and are re-verified in
exact Q(sqrt2)/Q arithmetic by verify_paper_examples().  Only the cosine
part of the L2[0,1] basis appears here: a multiplication operator with any
sine component cannot keep all finite compressions entrywise nonnegative,
so sine coefficients are excluded by construction.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .cones import (InfeasibilityCert, SosGram, cop_refute, cp_refute, frobenius, horn_matrix,
                    kr_problem, membership_basic, _indeterminate, _kr_answer, _pairing_expr)
from .numerics import (NegVector, PivotList, QSqrt2, SymMatrix,
                       exact_ldl_psd, matrix_loads, sym_from_upper)
from .sdp import LinExpr, SdpProblem, SdpStatus, sdp_solve

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

@functools.lru_cache(maxsize=None)
def _compression_layout(n: int) -> tuple:
    """The upper entries (j, k), j <= k, 0-based and row by row, of the
    n x n compression: each with the series indices summed into it and
    whether that sum is scaled by sqrt2."""
    return tuple((j, k, (k,), k > 0) if j == 0 else (j, k, (k - j, j + k), False)
                 for j in range(n) for k in range(j, n))


def compression_matrix(f: CosPoly, n: int) -> SymMatrix:
    """n x n compression of multiplication by f on the cosine subspace
    (_compression_layout), float or exact as f is, with a_i = 0 past the
    series degree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    root2 = _SQRT2 if f.flavor == "float" else QSqrt2.sqrt2()
    rows = [[None] * n for _ in range(n)]
    for j, k, idx, scaled in _compression_layout(n):
        v = f.coeff(idx[0])
        if len(idx) == 2:
            v = v + f.coeff(idx[1])
        rows[j][k] = rows[k][j] = root2 * v if scaled else v
    if f.flavor == "float":
        return SymMatrix(np.array(rows, dtype=float))
    return SymMatrix(rows, "exact")


# ---------------------------------------------------------------------------
# trigonometric SOS certificates
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cosine_gram_table(mprime: int) -> tuple:
    """For each frequency i = 0..2 m', the terms (j, k, w), j <= k, with
    w = (1 if j == k else 2) * triple_integral(j, k, i): the integral of
    v^T B v against cos(2 i pi x) is sum w B_jk."""
    return tuple(tuple((j, k, (1 if j == k else 2) * t)
                       for j in range(mprime + 1) for k in range(j, mprime + 1)
                       if (t := triple_integral(j, k, i)))
                 for i in range(2 * mprime + 1))


def gram_function_coeffs(gram, mprime: int) -> list:
    """The integrals of v^T B v against cos(2 i pi x), i = 0..2 m'.

    Plain + and *, so a float array gives floats and an exact SymMatrix
    gives QSqrt2 values."""
    return [sum(gram[j, k] * w for j, k, w in terms) for terms in _cosine_gram_table(mprime)]


@dataclass
class TrigGram:
    """Gram certificate f = v^T B v with v = (1, cos(2 pi x), ..., cos(2 m' pi x))."""

    mprime: int
    gram: np.ndarray

    def residual(self, f: CosPoly) -> float:
        got = gram_function_coeffs(self.gram, self.mprime)
        got += [0.0] * (f.m + 1 - len(got))
        return max(abs(have - float(f.coeff(i))) for i, have in enumerate(got))


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
    for j, k, idx, scaled in _compression_layout(5):
        w = (1.0 if j == k else 2.0) * h[j, k]
        for i in idx:
            if i <= m:
                c[i] += w * _SQRT2 if scaled else w
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
    if not 0 <= mprime <= m:
        raise ValueError(f"the degrees must satisfy 0 <= mprime <= m, got m={m}, mprime={mprime}")
    eps = Fraction(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    prob = SdpProblem(psd_block_dims=[mprime + 1], nonneg_dim=m)
    # coefficient matching: the integral of v^T B v against cos(2 i pi x)
    # equals a_0 = 1 at i = 0 and a_i at i >= 1 (zero past the series degree)
    table = _cosine_gram_table(mprime)
    for i in range(max(2 * mprime, m) + 1):
        expr = LinExpr()
        for j, k, w in (table[i] if i < len(table) else ()):
            expr.add_psd_entry(0, j, k, float(w))
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
    return prob


def construct_ednn(epsilon, m: int = 12, mprime: int = 6, tol: float = 1e-9,
                   dump_sdp=None):
    """Solve the bootstrap SDP and package a fully re-verified EdnnResult.

    Verification after solving: coefficients nonnegative, the compression
    entrywise nonnegative and PSD at tol, the Horn pairing within 1e-6 of
    -epsilon, and a hierarchy separator confirming the matrix is not CP.
    When epsilon / 10 is beyond cp_refute's threshold, that separator is
    the Horn orbit's exact level-1 certificate (cp_refute step 4), and the
    bootstrap SDP is the only SDP solved.  Failures raise VerificationError, never
    pass silently.
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

    A must be doubly nonnegative; the pairing <A, C> < 0 then separates C
    from PSD + NN, while the Gram certificate keeps C copositive.  An A that
    membership_basic(A, "dnn", tol) does not certify raises ValueError
    naming the failed part (nn or psd).
    The SDP is cones.kr_problem's free-M model at r = k with the pairing row
    appended, read back by cones._kr_answer: the Gram certificate is over the
    full monomial basis of degree k + 2, and an infeasibility ray, on the
    dense rows of sdp.gram_rows followed by the pairing row, counts only
    at the scale of eps'.  A C that cop_refute(C, tol=0) refutes, with an
    exactly re-checked witness, raises VerificationError.
    Returns (C, SosGram) or an InfeasibilityCert; Indeterminate raises.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 at desk scale")
    epsp = Fraction(epsilon_prime)
    if epsp <= 0:
        raise ValueError("epsilon_prime must be > 0")
    is_dnn, cert = membership_basic(a, "dnn", tol)
    if not is_dnn:
        nn, psd = cert["nn"], cert["psd"]
        failed = []
        if "position" in nn:
            failed.append(f"nn fails at entry {nn['position']} = {nn['min_entry']:.6g}")
        if isinstance(psd, NegVector):
            failed.append(f"psd fails with v^T A v = {psd.value:.6g}")
        raise ValueError("A is not doubly nonnegative: " + "; ".join(failed))
    arr = a.to_numpy()
    prob, layout = kr_problem(a.n, k)
    prob.constraints.append((_pairing_expr(arr), -float(epsp)))
    if dump_sdp:
        prob.dump_json(dump_sdp)

    sol = sdp_solve(prob, tol=tol)
    gram = _kr_answer(prob, layout, sol, {}, "no copositive separator at this pairing")
    if isinstance(gram, InfeasibilityCert):
        return gram
    cmat = SymMatrix(sym_from_upper(a.n, sol.free))
    pairing = float((arr * cmat.to_numpy()).sum())
    if abs(pairing + float(epsp)) > 1e-7:
        raise VerificationError(f"pairing {pairing} missed target {-float(epsp)}")
    witness = cop_refute(cmat, tol=0.0)
    if witness is not None:
        raise VerificationError(f"C is not copositive: x^T C x = {float(witness.value):.3g} < 0")
    return cmat, gram


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


def _negative_value_note(f: CosPoly) -> str:
    """The exact witness f(3/8) < 0, if it is one: no PSD Gram represents a
    negative f.

    f(3/8) = a0 + 2 sum a_k cos(3 pi k / 4), and the cosines cycle with
    period 8 through 1, -h, 0, h, -1, h, 0, -h, h = sqrt2 / 2, so the value
    is exact in Q(sqrt2).  3/8 is the point with such cosines nearest the
    minimum of the bundled series (x ~ 0.3805).
    """
    h = QSqrt2.sqrt2(Fraction(1, 2))
    zero = QSqrt2.of(0)
    cycle = (QSqrt2.of(1), -h, zero, h, QSqrt2.of(-1), h, zero, -h)
    v = f.coeff(0) + 2 * sum((f.coeff(k) * cycle[k % 8] for k in range(1, f.m + 1)), zero)
    if v.sign() >= 0:
        return ""
    return f"; f(3/8) = {v} ~ {float(v):.4f} < 0, so no PSD Gram represents f"


def _half_series_note(got: list, want: list) -> str:
    """The exact relation v^T B v = (1 + f)/2, if it holds: the cosine
    functionals got of v^T B v are f's, want, halved at every frequency
    k >= 1, and (1 + f_0)/2 at frequency 0."""
    if got != [(want[0] + 1) / 2] + [w / 2 for w in want[1:]]:
        return ""
    return "; v^T B v = (1 + f)/2 exactly, so B certifies f >= -1, not f >= 0"


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
    6. <C, A5> < 0 exactly; the bundled pair gives
       63087569/3487050 - (31718137/2440935) sqrt2 ~ -0.2847.
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

    got = gram_function_coeffs(bmat, bmat.n - 1)
    want = [f.coeff(i) for i in range(max(len(got), f.m + 1))]
    got += [QSqrt2.of(0)] * (len(want) - len(got))
    mismatches = [(i, str(g), str(w)) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    ok2 = not mismatches
    detail2 = "exact equality" if ok2 else (
        "cosine-functional mismatch (got vs required), frequencies "
        + "; ".join(f"{i}: {g} vs {w}" for i, g, w in mismatches[:3])
        + _half_series_note(got, want)
        + _negative_value_note(f))
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
                              f"<C,A5> = {p6} ~ {float(p6):.6f}"))

    try:
        res7 = parrilo_member(cmat, 1, tol=sos_tol)
        ok7 = isinstance(res7, SosGram)
        detail7 = "Gram found" if ok7 else "no Gram (separating functional)"
    except RuntimeError as exc:
        ok7, detail7 = False, str(exc)
    checks.append(CheckResult(7, "copositivity certificate for C", ok7, detail7))

    return PaperReport(checks=checks)
