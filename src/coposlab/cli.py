"""Command-line frontend: certification, construction, volume estimation and
the bundled-reference verification suite.

All commands emit a machine-readable JSON report on stdout (or --out FILE);
--pretty switches to indented rendering.  Exit codes: 0 all checks passed or
feasible, 1 certified negative (refuted or infeasible), 2 indeterminate,
64 usage or input error: a bad option, a malformed matrix file (invalid JSON,
wrong shape, a non-numeric, non-finite or out-of-range entry, an asymmetric
matrix), a malformed vrad report (an unknown cone or mode, n not an integer
>= 3, or >= 2 for ball, samples not an integer >= 100, dim other than
n(n+1)/2 - 1, a missing key or a bad CI), or a construct-ecop --in matrix
that is not certified doubly nonnegative.

certify --cone cop refutes with an exactly checked x >= 0, x^T A x < 0: at
n <= 12 by Kaplan's scan, which finds one unless the input is copositive
within --tol, and above n = 12 by a 0/1 vertex and a seeded descent.

scipy is imported on first use, by an SDP or LP solve, so certify of nn, psd
and dnn, certify of spn and cop on a PSD or NN input, certify of parrilo at
--level 1 or above on a PSD or NN input or one with a negative vertex (a 0/1
vector x with at most three ones and x^T A x < 0), certify of cp at n <= 4
(where the hierarchy collapses to PSD + NN), on an input with a negative
entry or a negative PSD-slice minimum, on an input the peel certifies (an
exact rank-one peel down to a doubly nonnegative block of order <= 4, which
proves the input completely positive), or at n = 5 on an input that a
permutation P H P^T of the Horn matrix separates (<A, P H P^T> < 0, with
Parrilo's exact level-1 Gram for P H P^T; the bundled A5 among them),
certify of cop on an input with a negative vertex, vrad of a closed-form
section (cop at every n <= 12 among them) or of spn at n <= 4 (where
SPN = COP) and check-bounds load none of it.  vrad of spn at n = 5 loads it
only for the rays whose rank-one peel fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cones, exceptional, volume
from .numerics import (CholeskyFactor, MatrixFormatError, NegVector, QSqrt2,
                       SymMatrix, matrix_load_file, matrix_to_json_dict)
from .quartic import dim_M
from .sdp import DualRay

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


def _frac_str(x) -> str:
    if isinstance(x, QSqrt2):
        return str(x)
    return str(Fraction(x))


def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def _cert_json(cert) -> object:
    if cert is None or isinstance(cert, (int, float, str, bool)):
        return cert
    if isinstance(cert, dict):
        return {k: _cert_json(v) for k, v in cert.items()}
    if isinstance(cert, (list, tuple)):
        return [_cert_json(v) for v in cert]
    if isinstance(cert, CholeskyFactor):
        return {"kind": "cholesky-factor", "L": _arr(cert.L)}
    if isinstance(cert, NegVector):
        return {"kind": "negative-direction", "v": _arr(cert.v), "value": cert.value}
    if isinstance(cert, cones.SpnPair):
        return {"kind": "spn-pair", "psd_part": _arr(cert.p), "nonneg_part": _arr(cert.n)}
    if isinstance(cert, cones.SosGram):
        return {"kind": "sos-gram", "basis": [list(m) for m in cert.basis],
                "gram": _arr(cert.gram)}
    if isinstance(cert, DualRay):
        return {"kind": "dual-ray", "y": _arr(cert.y),
                "psd_operators": [_arr(z) for z in cert.psd_operators],
                "nonneg_part": _arr(cert.nonneg_part),
                "free_part": _arr(cert.free_part)}
    if isinstance(cert, cones.InfeasibilityCert):
        return {"kind": "infeasibility", "note": cert.note,
                "separator": None if cert.separator is None else _arr(cert.separator),
                "ray": None if cert.ray is None else _cert_json(cert.ray)}
    if isinstance(cert, cones.CopRefutation):
        return {"kind": "cop-refutation",
                "x": [_frac_str(v) for v in cert.x],
                "value": _frac_str(cert.value)}
    if isinstance(cert, cones.CpRefutation):
        return {"kind": "cp-refutation", "separator": _arr(cert.m),
                "pairing": cert.pairing, "level": cert.level,
                "certificate": _cert_json(cert.certificate)}
    raise TypeError(f"unserializable certificate {type(cert)}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2 if args.pretty else None, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(json.dumps({"written": args.out}))
    else:
        print(text)


def _load_matrix(path: str) -> SymMatrix:
    try:
        return matrix_load_file(path)
    except FileNotFoundError:
        raise CliUsage(f"matrix file not found: {path}")
    except MatrixFormatError as exc:
        raise CliUsage(f"malformed matrix file {path}: {exc}")


class CliUsage(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

EXIT_OF_MEMBER = {True: EXIT_OK, False: EXIT_NEGATIVE, None: EXIT_INDETERMINATE}


def _certify(m: SymMatrix, args):
    """(member, report fields) for one certify request; member is True,
    False or None (undecided).  Raises RuntimeError when the solver ends
    indeterminate."""
    tol = args.tol
    if args.cone in cones.BASIC_CONES:
        ok, cert = cones.membership_basic(m, args.cone, tol)
        return ok, {"certificate": _cert_json(cert)}
    if args.cone == "spn":
        res = cones.spn_decompose(m, tol)
        return isinstance(res, cones.SpnPair), {"certificate": _cert_json(res)}
    if args.cone == "parrilo":
        res = cones.parrilo_member(m, args.level, tol)
        return isinstance(res, cones.SosGram), {"level": args.level,
                                                 "certificate": _cert_json(res)}
    if args.cone == "cop":
        inner = cones.cop_inner(m, tol)
        if inner is not None:
            return True, {"inner_level": inner[0], "certificate": _cert_json(inner[1])}
        wit = cones.cop_refute(m, tol)
        if wit is not None:
            return False, {"certificate": _cert_json(wit)}
        return None, {"note": "no hierarchy certificate at r <= 1 and no simplex witness"}
    # cp: inner sufficient condition, else hierarchy separator
    arr = m.to_numpy()
    diag = np.diag(arr)
    if arr.min() >= -tol and np.all(diag >= np.abs(arr).sum(axis=1) - np.abs(diag) - tol):
        return True, {"certificate": {"kind": "diagonally-dominant-nn"}}
    sep = cones.cp_refute(m, r=1, tol=max(tol, 1e-8))
    if sep is not None:
        return False, {"certificate": _cert_json(sep)}
    return None, {"note": "no separator found; membership undecided"}


def cmd_certify(args) -> int:
    m = _load_matrix(args.infile)
    report = {"command": "certify", "cone": args.cone, "n": m.n, "tol": args.tol}
    try:
        member, fields = _certify(m, args)
    except RuntimeError as exc:
        member, fields = None, {"error": str(exc)}
    report.update(member=member, **fields)
    _emit(report, args)
    return EXIT_OF_MEMBER[member]


def cmd_construct_ednn(args) -> int:
    eps = Fraction(args.epsilon)
    try:
        res = exceptional.construct_ednn(eps, args.m, args.mprime, tol=args.tol,
                                         dump_sdp=args.dump_sdp)
    except RuntimeError as exc:
        _emit({"command": "construct-ednn", "status": "indeterminate",
               "error": str(exc)}, args)
        return EXIT_INDETERMINATE
    if isinstance(res, cones.InfeasibilityCert):
        _emit({"command": "construct-ednn", "status": "infeasible",
               "epsilon": str(eps), "m": args.m, "mprime": args.mprime,
               "certificate": _cert_json(res)}, args)
        return EXIT_NEGATIVE
    report = {
        "command": "construct-ednn", "status": "feasible",
        "epsilon": str(eps), "m": args.m, "mprime": args.mprime,
        "series": list(res.f.coeffs),
        "gram": _arr(res.gram.to_numpy()),
        "a5": matrix_to_json_dict(res.a5),
        "horn_pairing": res.horn_pairing,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_construct_ecop(args) -> int:
    a = _load_matrix(args.infile) if args.infile else exceptional.load_reference_a5()
    epsp = Fraction(args.epsilon_prime)
    try:
        res = exceptional.construct_ecop(a, epsp, args.k, tol=args.tol,
                                         dump_sdp=args.dump_sdp)
    except RuntimeError as exc:
        _emit({"command": "construct-ecop", "status": "indeterminate",
               "error": str(exc)}, args)
        return EXIT_INDETERMINATE
    if isinstance(res, cones.InfeasibilityCert):
        _emit({"command": "construct-ecop", "status": "infeasible",
               "certificate": _cert_json(res)}, args)
        return EXIT_NEGATIVE
    cmat, gram = res
    report = {
        "command": "construct-ecop", "status": "feasible",
        "epsilon_prime": str(epsp), "k": args.k,
        "c": matrix_to_json_dict(cmat),
        "pairing": float((cmat.to_numpy() * a.to_numpy()).sum()),
        "gram": _cert_json(gram),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_vrad(args) -> int:
    spec = volume.SectionSpec(cone=args.cone, n=args.n, mode=args.mode,
                              oracle_tol=args.tol, seed=args.seed,
                              ball_radius=args.ball_radius)
    try:
        est = volume.vrad_mc(spec, args.samples, args.seed)
    except RuntimeError as exc:
        _emit({"command": "vrad", "status": "indeterminate", "error": str(exc)}, args)
        return EXIT_INDETERMINATE
    _emit(est.to_json_dict(), args)
    return EXIT_OK


def cmd_check_bounds(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise CliUsage(f"not a directory: {directory}")
    estimates, sources = {}, {}
    n = args.n
    if n is not None and n < 2:
        raise CliUsage(f"check-bounds -n must be >= 2, got {n}")
    for path in sorted(directory.glob("*.json")):
        try:
            d = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(d, dict) or "cone" not in d or "estimate" not in d:
                continue
            if d["cone"] not in volume.SECTION_CONES:
                raise ValueError(f"unknown cone {d['cone']!r}")
            if d.get("mode") not in volume._MODE_RANK:
                raise ValueError(f"unknown mode {d['mode']!r}")
            # the smallest n of a section, as in SectionSpec
            if type(d["n"]) is not int or d["n"] < (2 if d["cone"] == "ball" else 3):
                raise ValueError(f"n must be an integer >= 3 (>= 2 for ball), got {d['n']!r}")
            if n is None:
                n = d["n"]
            if d["n"] != n:
                continue
            est = volume.VradEstimate(cone=d["cone"], n=n, mode=d.get("mode"),
                                      point_estimate=float(d["estimate"]),
                                      ci_low=float(d["ci"][0]), ci_high=float(d["ci"][1]),
                                      samples=d["samples"], seed=int(d["seed"]),
                                      dim=int(d["dim"]))
            if type(d["samples"]) is not int or d["samples"] < 100:
                raise ValueError(f"samples must be an integer >= 100, got {d['samples']!r}")
            if d["dim"] != dim_M(n):
                raise ValueError(f"dim must be n(n+1)/2 - 1 = {dim_M(n)} at n = {n}, "
                                 f"got {d['dim']!r}")
            lo, x, hi = est.ci_low, est.point_estimate, est.ci_high
            if not (0 <= lo <= x <= hi < math.inf and x > 0):
                raise ValueError(f"need finite 0 <= ci_low <= estimate <= ci_high and "
                                 f"estimate > 0, got estimate {x} and ci [{lo}, {hi}]")
        except KeyError as exc:
            raise CliUsage(f"malformed vrad report {path}: missing key {exc}")
        except (IndexError, TypeError, ValueError) as exc:
            raise CliUsage(f"malformed vrad report {path}: {exc}")
        key = (est.cone, est.mode)
        if key in sources:
            raise CliUsage(f"two vrad reports of cone {est.cone} ({est.mode}) at n={n}: "
                           f"{sources[key]} and {path}")
        estimates[key], sources[key] = est, path
    if n is None:
        _emit({"command": "check-bounds", "checks": [], "all_passed": True,
               "note": "no estimate files found"}, args)
        return EXIT_OK
    report = volume.check_bounds(n, estimates)
    out = report.to_json_dict()
    out["command"] = "check-bounds"
    _emit(out, args)
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def cmd_verify_paper(args) -> int:
    report = exceptional.verify_paper_examples(sos_tol=args.sos_tol)
    out = report.to_json_dict()
    out["command"] = "verify-paper"
    _emit(out, args)
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: every parse_args call starts
    from a fresh namespace, so requests share no state through it."""
    p = argparse.ArgumentParser(prog="coposlab",
                                description="matrix cone certification, exceptional "
                                            "matrix construction and section volumes")
    p.add_argument("--pretty", action="store_true", help="indent the JSON report")
    p.add_argument("--out", help="write the JSON report to a file")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify cone membership (cop: exact refuter at n <= 12)")
    c.add_argument("--cone", required=True,
                   choices=["nn", "psd", "dnn", "spn", "cop", "cp", "parrilo"])
    c.add_argument("--level", type=int, default=0, help="hierarchy level for parrilo")
    c.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
    c.add_argument("--tol", type=float, default=1e-9)
    c.set_defaults(func=cmd_certify)

    e = sub.add_parser("construct-ednn", help="construct an exceptional DNN matrix")
    e.add_argument("--epsilon", default="1/20", help="Horn pairing target (fraction)")
    e.add_argument("--m", type=int, default=12, help="cosine series degree")
    e.add_argument("--mprime", type=int, default=6, help="Gram basis degree")
    e.add_argument("--tol", type=float, default=1e-9)
    e.add_argument("--dump-sdp", dest="dump_sdp", help="dump the assembled SDP as JSON")
    e.set_defaults(func=cmd_construct_ednn)

    o = sub.add_parser("construct-ecop", help="construct an exceptional copositive matrix")
    o.add_argument("--in", dest="infile", help="DNN matrix JSON (default: bundled A5)")
    o.add_argument("--epsilon-prime", dest="epsilon_prime", default="1/10")
    o.add_argument("-k", type=int, default=1, help="hierarchy level of the certificate")
    o.add_argument("--tol", type=float, default=1e-8)
    o.add_argument("--dump-sdp", dest="dump_sdp")
    o.set_defaults(func=cmd_construct_ecop)

    v = sub.add_parser("vrad", help="Monte Carlo volume radius of a cone section")
    v.add_argument("--cone", required=True, choices=list(volume.SECTION_CONES))
    v.add_argument("-n", type=int, required=True)
    v.add_argument("--mode", choices=["exact", "inner", "outer"],
                   help="cp: exact (n <= 4), inner or outer; lf: inner or outer; "
                        "the other cones are exact")
    v.add_argument("--samples", type=int, default=20000)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--ball-radius", dest="ball_radius", type=float, default=1.0)
    v.set_defaults(func=cmd_vrad)

    b = sub.add_parser("check-bounds", help="check vrad estimates against the bounds")
    b.add_argument("--dir", dest="directory", required=True,
                   help="directory of vrad JSON reports")
    b.add_argument("-n", type=int, help="restrict to one dimension")
    b.set_defaults(func=cmd_check_bounds)

    w = sub.add_parser("verify-paper", help="re-verify the bundled reference matrices")
    w.add_argument("--sos-tol", dest="sos_tol", type=float, default=1e-8)
    w.set_defaults(func=cmd_verify_paper)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except CliUsage as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
