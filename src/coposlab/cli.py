"""Command-line frontend: certification, construction, volume estimation and
the bundled-reference verification suite.

All commands emit a machine-readable JSON report on stdout (or --out FILE);
--pretty switches to indented rendering.  Exit codes: 0 all checks passed or
feasible, 1 certified negative (refuted or infeasible), 2 indeterminate,
64 usage or input-format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cones, exceptional, volume
from .numerics import (CholeskyFactor, MatrixFormatError, NegVector, QSqrt2,
                       SymMatrix, matrix_load_file, matrix_to_json_dict)
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
    if isinstance(cert, exceptional.TrigGram):
        return {"kind": "trig-gram", "mprime": cert.mprime, "gram": _arr(cert.gram)}
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

def cmd_certify(args) -> int:
    m = _load_matrix(args.infile)
    tol = args.tol
    report = {"command": "certify", "cone": args.cone, "n": m.n, "tol": tol}
    if args.cone in ("nn", "psd", "dnn"):
        ok, cert = cones.membership_basic(m, args.cone, tol)
        report.update(member=ok, certificate=_cert_json(cert))
        _emit(report, args)
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.cone == "spn":
        try:
            res = cones.spn_decompose(m, tol)
        except RuntimeError as exc:
            report.update(member=None, error=str(exc))
            _emit(report, args)
            return EXIT_INDETERMINATE
        ok = isinstance(res, cones.SpnPair)
        report.update(member=ok, certificate=_cert_json(res))
        _emit(report, args)
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.cone == "parrilo":
        try:
            res = cones.parrilo_member(m, args.level, tol)
        except RuntimeError as exc:
            report.update(member=None, error=str(exc))
            _emit(report, args)
            return EXIT_INDETERMINATE
        ok = isinstance(res, cones.SosGram)
        report.update(level=args.level, member=ok, certificate=_cert_json(res))
        _emit(report, args)
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.cone == "cop":
        for r in (0, 1):
            try:
                res = cones.parrilo_member(m, r, max(tol, 1e-7))
            except RuntimeError:
                continue
            if isinstance(res, cones.SosGram):
                report.update(member=True, inner_level=r, certificate=_cert_json(res))
                _emit(report, args)
                return EXIT_OK
        wit = cones.cop_refute(m, attempts=args.attempts, seed=args.seed, tol=tol)
        if wit is not None:
            report.update(member=False, certificate=_cert_json(wit))
            _emit(report, args)
            return EXIT_NEGATIVE
        report.update(member=None,
                      note="no hierarchy certificate at r <= 1 and no simplex witness")
        _emit(report, args)
        return EXIT_INDETERMINATE
    # cp: inner sufficient condition, else hierarchy separator
    arr = m.to_numpy()
    diag = np.diag(arr)
    dd = bool(arr.min() >= -tol and np.all(diag >= np.abs(arr).sum(axis=1) - np.abs(diag) - tol))
    if dd:
        report.update(member=True, certificate={"kind": "diagonally-dominant-nn"})
        _emit(report, args)
        return EXIT_OK
    try:
        sep = cones.cp_refute(m, r=1, tol=max(tol, 1e-8))
    except RuntimeError as exc:
        report.update(member=None, error=str(exc))
        _emit(report, args)
        return EXIT_INDETERMINATE
    if sep is not None:
        report.update(member=False, certificate=_cert_json(sep))
        _emit(report, args)
        return EXIT_NEGATIVE
    report.update(member=None, note="no separator found; membership undecided")
    _emit(report, args)
    return EXIT_INDETERMINATE


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
    est = volume.vrad_mc(spec, args.samples, args.seed, bisect_tol=args.bisect_tol)
    _emit(est.to_json_dict(), args)
    return EXIT_OK


def cmd_check_bounds(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise CliUsage(f"not a directory: {directory}")
    estimates = {}
    n = args.n
    for path in sorted(directory.glob("*.json")):
        d = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(d, dict) or "cone" not in d or "estimate" not in d:
            continue
        if n is None:
            n = int(d["n"])
        if int(d["n"]) != n:
            continue
        est = volume.VradEstimate(cone=d["cone"], n=int(d["n"]), mode=d.get("mode"),
                                  point_estimate=float(d["estimate"]),
                                  ci_low=float(d["ci"][0]), ci_high=float(d["ci"][1]),
                                  samples=int(d["samples"]), seed=int(d["seed"]),
                                  dim=int(d["dim"]))
        estimates[est.cone] = est
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

    c = sub.add_parser("certify", help="certify cone membership of a matrix")
    c.add_argument("--cone", required=True,
                   choices=["nn", "psd", "dnn", "spn", "cop", "cp", "parrilo"])
    c.add_argument("--level", type=int, default=0, help="hierarchy level for parrilo")
    c.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--attempts", type=int, default=64)
    c.add_argument("--seed", type=int, default=0)
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
    v.add_argument("--mode", choices=["exact", "inner", "outer"])
    v.add_argument("--samples", type=int, default=20000)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--bisect-tol", dest="bisect_tol", type=float, default=1e-6)
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
