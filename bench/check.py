"""Answer checker: every answer is re-checked, no exit code is trusted.

Each task gets one of three verdicts:

ok     the answer carries a certificate that passes an independent re-check
       and agrees with every answer known for the input;
fail   the call raised, ended indeterminate, or returned no usable answer
       (including a known answer the method should have found and did not);
wrong  the program claimed an answer that its certificate does not support,
       or that contradicts a known answer.

`fail` and `wrong` both count in `failed`; only `wrong` makes a run
incorrect.  Certificates are re-checked with the library's own checks that
do not involve the solver (`SosGram.check`, `SpnPair.check`,
`CopRefutation.check_exact`, `DualRay.max_violation`) and with plain numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from coposlab import cones, exceptional, volume
from coposlab.cones import (CopRefutation, CpRefutation, InfeasibilityCert,
                            SosGram, SpnPair)
from coposlab.numerics import CholeskyFactor, SymMatrix, psd_certificate
from coposlab.quartic import monomials
from coposlab.sdp import sos_gram_assemble

OK, FAIL, WRONG = "ok", "fail", "wrong"
CERT_TOL = 1e-6          # re-check tolerance, relative to the input's scale
PSD_FAMILIES = ("psd", "rank1", "bbt")


@dataclasses.dataclass
class Verdict:
    status: str
    reason: str = ""


def _scale(arr: np.ndarray) -> float:
    return 1.0 + float(np.abs(arr).max())


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

def known_answer(info: dict, cone: str) -> Optional[bool]:
    """Membership of the input in `cone` where it is known independently.

    `cone` is nn, psd, dnn, spn, cop, cp, or parrilo (K^(r), r >= 0).
    """
    if "known" in info:
        return info["known"] == "member"
    arr = info["matrix"]
    neg = bool(arr.min() < 0.0)
    psd = info.get("family") in PSD_FAMILIES
    if cone == "nn":
        return not neg
    if cone in ("dnn", "cp") and neg:
        return False
    if cone == "psd" and psd:
        return True
    if cone == "dnn" and psd:
        return True   # psd and, by the branch above, entrywise nonnegative
    if cone in ("spn", "cop", "parrilo") and (psd or not neg):
        return True   # PSD + NN sits in K^(0), the smallest of these
    if cone == "cp" and info.get("family") == "bbt":
        return True
    return None


def _agree(info: dict, cone: str, member: bool) -> Optional[Verdict]:
    known = known_answer(info, cone)
    if known is not None and known != member:
        return Verdict(WRONG, f"{cone} member={member} contradicts the known answer {known}")
    return None


# ---------------------------------------------------------------------------
# certificate re-checks (True when the certificate holds)
# ---------------------------------------------------------------------------

def sos_holds(arr: np.ndarray, r: int, gram: SosGram) -> bool:
    return gram.check(cones.quartic_target(SymMatrix(arr), r), CERT_TOL)


def sos_ray_holds(arr: np.ndarray, r: int, cert: InfeasibilityCert) -> bool:
    """The moment functional y: b^T y > 0 and -A^T y PSD, for the SOS program."""
    ray = cert.ray
    prob = sos_gram_assemble(cones.quartic_target(SymMatrix(arr), r),
                             monomials(arr.shape[0], r + 2))
    b = np.array([rhs for _, rhs in prob.constraints])
    if ray.y.shape != b.shape:
        return False
    return float(b @ ray.y) > 0.0 and ray.max_violation() <= CERT_TOL * _scale(arr)


def separator_holds(arr: np.ndarray, m: np.ndarray) -> bool:
    """M doubly nonnegative with <A, M> < 0: A is not PSD + NN."""
    tol = CERT_TOL * _scale(m)
    return (float(m.min()) >= -tol
            and isinstance(psd_certificate(m, tol), CholeskyFactor)
            and float((arr * m).sum()) < 0.0)


def cp_refutation_holds(arr: np.ndarray, cert: CpRefutation) -> bool:
    """<A, M> < 0 with M in K^(level), re-checked: A is not completely positive."""
    pairing = float((arr * cert.m).sum())
    if not pairing < 0.0 or abs(pairing - cert.pairing) > 1e-9 * _scale(arr):
        return False
    if cert.level == 0:
        return isinstance(cert.certificate, SpnPair) and cert.certificate.check(cert.m, CERT_TOL)
    return isinstance(cert.certificate, SosGram) and sos_holds(cert.m, cert.level,
                                                               cert.certificate)


def cholesky_holds(arr: np.ndarray, lower: np.ndarray) -> bool:
    return float(np.abs(arr - lower @ lower.T).max()) <= CERT_TOL * _scale(arr)


def negative_direction_holds(arr: np.ndarray, v: np.ndarray) -> bool:
    return float(v @ arr @ v) < 0.0


# ---------------------------------------------------------------------------
# per-kind checks of direct API results
# ---------------------------------------------------------------------------

def _check_parrilo(info: dict, res) -> Verdict:
    arr, r = info["matrix"], info["r"]
    if "pair_with" in info and not float((arr * info["pair_with"].to_numpy()).sum()) < 0.0:
        return Verdict(FAIL, "reference pairing <C, A5> is not negative")
    if isinstance(res, SosGram):
        if not sos_holds(arr, r, res):
            return Verdict(WRONG, "Gram certificate fails SosGram.check")
        return _agree(info, "parrilo", True) or Verdict(OK)
    if isinstance(res, InfeasibilityCert):
        if not sos_ray_holds(arr, r, res):
            return Verdict(WRONG, "separating functional fails its re-check")
        return _agree(info, "parrilo", False) or Verdict(OK)
    return Verdict(WRONG, f"unexpected result {type(res).__name__}")


def _check_spn(info: dict, res) -> Verdict:
    arr = info["matrix"]
    if isinstance(res, SpnPair):
        if not res.check(arr, CERT_TOL):
            return Verdict(WRONG, "P + N split fails SpnPair.check")
        return _agree(info, "spn", True) or Verdict(OK)
    if isinstance(res, InfeasibilityCert) and res.separator is not None:
        if not separator_holds(arr, res.separator):
            return Verdict(WRONG, "DNN separator fails its re-check")
        return _agree(info, "spn", False) or Verdict(OK)
    return Verdict(WRONG, f"unexpected result {type(res).__name__}")


def _check_cp_refute(info: dict, res) -> Verdict:
    arr = info["matrix"]
    if res is None:
        if known_answer(info, "cp") is False:
            return Verdict(FAIL, "no separator for a matrix known not to be CP")
        return Verdict(OK)
    if not isinstance(res, CpRefutation):
        return Verdict(WRONG, f"unexpected result {type(res).__name__}")
    if not cp_refutation_holds(arr, res):
        return Verdict(WRONG, "CP separator fails its re-check")
    return _agree(info, "cp", False) or Verdict(OK)


def _check_ednn(info: dict, res) -> Verdict:
    if isinstance(res, InfeasibilityCert):
        return Verdict(WRONG, f"epsilon {info['epsilon']} <= 1/20 is feasible (the bundled A5)")
    a5 = res.a5.to_numpy()
    horn = cones.horn_matrix().to_numpy()
    gram = res.gram.to_numpy()
    problems = []
    if min(float(c) for c in res.f.coeffs) < -1e-9:
        problems.append("negative series coefficient")
    if float(a5.min()) < -1e-9 or not isinstance(psd_certificate(a5, 1e-7), CholeskyFactor):
        problems.append("A5 not DNN")
    if abs(float((a5 * horn).sum()) + float(info["epsilon"])) > 1e-6:
        problems.append("Horn pairing misses -epsilon")
    if not isinstance(psd_certificate(gram, 1e-7), CholeskyFactor):
        problems.append("Gram not PSD")
    if exceptional.TrigGram(mprime=res.mprime, gram=gram).residual(res.f) > CERT_TOL:
        problems.append("Gram identity residual too large")
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)


def _check_ecop(info: dict, res) -> Verdict:
    if isinstance(res, InfeasibilityCert):
        return Verdict(WRONG, "the reference C, rescaled, is feasible")
    cmat, gram = res
    c = cmat.to_numpy()
    if abs(float((info["matrix"] * c).sum()) + float(info["epsilon_prime"])) > 1e-6:
        return Verdict(WRONG, "pairing <A5, C> misses -epsilon'")
    if not sos_holds(c, 1, gram):
        return Verdict(WRONG, "Gram certificate of C fails SosGram.check")
    return Verdict(OK)


def _check_verify_paper(info: dict, res) -> Verdict:
    if res.all_passed:
        return Verdict(OK)
    failed = [f"check {c.id} ({c.name})" for c in res.checks if not c.passed]
    return Verdict(FAIL, "verify-paper: " + ", ".join(failed) + " failed")


def _check_vrad(info: dict, est) -> Verdict:
    ok_shape = (est.cone == info["cone"] and est.n == info["n"]
                and est.samples == info["samples"] and est.seed == info["seed"])
    if not ok_shape:
        return Verdict(WRONG, "estimate does not describe the requested section")
    if not (math.isfinite(est.point_estimate) and est.point_estimate > 0.0
            and est.ci_low <= est.point_estimate <= est.ci_high):
        return Verdict(WRONG, f"malformed estimate {est.point_estimate} {est.ci_low, est.ci_high}")
    if est.cone == "nn":
        exact = volume.vrad_nn_exact(est.n)
        if not est.ci_low <= exact <= est.ci_high:
            return Verdict(FAIL, f"CI [{est.ci_low:.4f}, {est.ci_high:.4f}] misses the "
                                 f"exact {exact:.5f}")
    if est.cone == "ball":
        radius = info["ball_radius"]
        if abs(est.point_estimate - radius) > 2.0 * info["bisect_tol"] * radius:
            return Verdict(FAIL, f"ball radius {est.point_estimate} != {radius}")
    return Verdict(OK)


def _check_vrad_exact(info: dict, value) -> Verdict:
    if math.isfinite(value) and 0.0 < value < 1.0:
        return Verdict(OK)
    return Verdict(WRONG, f"exact NN radius {value} out of (0, 1)")


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _cli_cert_holds(arr: np.ndarray, cone: str, member: bool, cert: dict,
                    report: dict) -> bool:
    kind = cert.get("kind") if isinstance(cert, dict) else None
    if cone == "nn":
        return (kind == "nn" and cert["min_entry"] == float(arr.min())
                and member == (cert["min_entry"] >= -report["tol"]))
    if cone == "psd":
        if member:
            return kind == "cholesky-factor" and cholesky_holds(arr, np.array(cert["L"]))
        return kind == "negative-direction" and negative_direction_holds(arr, np.array(cert["v"]))
    if cone == "dnn":
        nn_ok = cert["nn"]["min_entry"] >= -report["tol"]
        psd_ok = cert["psd"]["kind"] == "cholesky-factor"
        return (kind == "dnn" and member == (nn_ok and psd_ok)
                and _cli_cert_holds(arr, "nn", nn_ok, cert["nn"], report)
                and _cli_cert_holds(arr, "psd", psd_ok, cert["psd"], report))
    if cone == "spn":
        if member:
            return kind == "spn-pair" and SpnPair(np.array(cert["psd_part"]),
                                                  np.array(cert["nonneg_part"])).check(arr, CERT_TOL)
        return kind == "infeasibility" and separator_holds(arr, np.array(cert["separator"]))
    if cone == "cop":
        if member:
            gram = SosGram([tuple(m) for m in cert["basis"]], np.array(cert["gram"]))
            return kind == "sos-gram" and sos_holds(arr, report["inner_level"], gram)
        x = tuple(Fraction(v) for v in cert["x"])
        return (kind == "cop-refutation" and all(v >= 0 for v in x)
                and CopRefutation(x=x, value=None).check_exact(SymMatrix(arr)))
    if cone == "cp":
        if member:
            diag = np.diag(arr)
            return (kind == "diagonally-dominant-nn" and float(arr.min()) >= 0.0
                    and bool(np.all(diag >= np.abs(arr).sum(axis=1) - np.abs(diag))))
        if kind != "cp-refutation":
            return False
        inner = cert["certificate"]
        if inner["kind"] == "sos-gram":
            inner_cert = SosGram([tuple(m) for m in inner["basis"]], np.array(inner["gram"]))
        else:
            inner_cert = SpnPair(np.array(inner["psd_part"]), np.array(inner["nonneg_part"]))
        return cp_refutation_holds(arr, CpRefutation(m=np.array(cert["separator"]),
                                                     pairing=cert["pairing"],
                                                     level=cert["level"],
                                                     certificate=inner_cert))
    return False


EXIT_OF_MEMBER = {True: 0, False: 1, None: 2}


def _check_cli_certify(info: dict, rep) -> Verdict:
    arr, cone = info["matrix"], info["cone"]
    try:
        report = json.loads(rep.stdout)
    except ValueError:
        last = (rep.stderr.strip().splitlines() or [""])[-1]
        return Verdict(FAIL, f"exit {rep.code} without a JSON report: {last[:120]}")
    if not isinstance(report, dict) or "member" not in report:
        return Verdict(FAIL, f"exit {rep.code}: report without an answer")
    member = report["member"]
    if EXIT_OF_MEMBER.get(member) != rep.code:
        return Verdict(FAIL, f"exit {rep.code} does not match member={member}")
    if member is None:
        return Verdict(FAIL, "indeterminate: " + str(report.get("error") or report.get("note")))
    if not _cli_cert_holds(arr, cone, member, report.get("certificate"), report):
        return Verdict(WRONG, f"{cone} certificate fails its re-check")
    return _agree(info, cone, member) or Verdict(OK)


CHECKS = {
    "parrilo": _check_parrilo, "spn": _check_spn, "cp_refute": _check_cp_refute,
    "ednn": _check_ednn, "ecop": _check_ecop, "verify_paper": _check_verify_paper,
    "vrad": _check_vrad, "vrad_exact": _check_vrad_exact, "cli_certify": _check_cli_certify,
}


def check(kind: str, info: dict, result, exc: Optional[BaseException]) -> Verdict:
    if exc is not None:
        if isinstance(exc, RuntimeError) and "indeterminate" in str(exc):
            return Verdict(FAIL, "indeterminate: " + str(exc).split(" (residuals")[0])
        return Verdict(FAIL, f"raised {type(exc).__name__}: {str(exc)[:120]}")
    try:
        return CHECKS[kind](info, result)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
        # a report or certificate too malformed to re-check
        return Verdict(WRONG, f"unreadable answer ({type(e).__name__}: {e})")


# ---------------------------------------------------------------------------
# answers across passes
# ---------------------------------------------------------------------------

ORDER_PAIRS = (("dnn", "psd"), ("dnn", "nn"), ("psd", "spn"), ("nn", "spn"), ("cp", "dnn"))


def vrad_order(estimates: List[Tuple[str, object]]) -> Dict[str, Verdict]:
    """Sections ordered by inclusion must not have disjoint, inverted CIs."""
    out: Dict[str, Verdict] = {}
    for inner, outer in ORDER_PAIRS:
        for name_i, ei in estimates:
            for _, eo in estimates:
                if (ei.cone, eo.cone) == (inner, outer) and ei.n == eo.n \
                        and ei.ci_low > eo.ci_high:
                    out[name_i] = Verdict(WRONG, f"{inner} section larger than {outer}")
    return out


def vrad_summary(estimates: List[object]) -> Tuple[float, float]:
    """(mean over sampled cones of CI width / estimate, max NN relative error)."""
    per_cone: Dict[str, List[float]] = {}
    nn_err = 0.0
    for est in estimates:
        if est.cone == "ball":
            continue
        width = (est.ci_high - est.ci_low) / est.point_estimate
        per_cone.setdefault(f"{est.cone}{est.n}", []).append(width)
        if est.cone == "nn":
            exact = volume.vrad_nn_exact(est.n)
            nn_err = max(nn_err, abs(est.point_estimate - exact) / exact)
    ci_rel = float(np.mean([np.mean(v) for v in per_cone.values()])) if per_cone else 0.0
    return ci_rel, nn_err


def fingerprint(result, exc: Optional[BaseException] = None) -> str:
    """Hash of everything an answer holds, bit for bit."""
    h = hashlib.sha256()
    if exc is not None:
        h.update(f"raised {type(exc).__name__}: {exc}".encode())
    else:
        _feed(h, result)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for x in obj:
            _feed(h, x)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, enum.Enum):
        h.update(repr(obj).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.compare:
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, SymMatrix):
        h.update(f"SymMatrix{obj.flavor}".encode())
        _feed(h, obj.to_numpy() if obj.flavor == "float" else [list(map(str, r)) for r in obj.rows()])
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
