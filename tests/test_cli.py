import json
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import coposlab
from coposlab import cli, cones, exceptional, volume
from coposlab.cones import SpnPair, horn_matrix
from coposlab.exceptional import load_reference_a5, load_reference_c
from coposlab.numerics import SymMatrix, matrix_dumps


@pytest.mark.parametrize("cone", ["nn", "dnn"])
def test_certify_negative_entry_reports_its_position(cone, tmp_path, capsys):
    a = np.array([[2.0, 0.5, 0.1], [0.5, 2.0, -0.3], [0.1, -0.3, 2.0]])
    path = tmp_path / "a.json"
    path.write_text(matrix_dumps(SymMatrix(a)), encoding="utf-8")
    code = cli.main(["certify", "--cone", cone, "--in", str(path)])
    assert code == cli.EXIT_NEGATIVE
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is False
    cert = report["certificate"] if cone == "nn" else report["certificate"]["nn"]
    assert tuple(cert["position"]) == np.unravel_index(np.argmin(a), a.shape)
    assert cert["min_entry"] == -0.3


def test_certify_spn_rank_one_psd_reports_a_pair(tmp_path, capsys):
    a = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    path = tmp_path / "a.json"
    path.write_text(matrix_dumps(SymMatrix(a)), encoding="utf-8")
    code = cli.main(["certify", "--cone", "spn", "--in", str(path)])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    cert = report["certificate"]
    assert cert["kind"] == "spn-pair"
    p, nn = np.array(cert["psd_part"]), np.array(cert["nonneg_part"])
    assert np.abs(p + nn - a).max() <= 1e-8


def _write(tmp_path, a):
    path = tmp_path / "a.json"
    m = a if isinstance(a, SymMatrix) else SymMatrix(a)
    path.write_text(matrix_dumps(m), encoding="utf-8")
    return str(path)


def _dominant_nn():
    return np.eye(4) * 3.0 + np.ones((4, 4)) / 2.0


def _simplex_witness():
    # x = (1/2, 1/2, 0) gives x^T A x = -1/2
    return np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("make,argv,code,kind", [
    (load_reference_a5, ["--cone", "dnn"], cli.EXIT_OK, "dnn"),
    (load_reference_a5, ["--cone", "cp"], cli.EXIT_NEGATIVE, "cp-refutation"),
    (load_reference_c, ["--cone", "cop"], cli.EXIT_OK, "sos-gram"),
    (load_reference_c, ["--cone", "spn"], cli.EXIT_NEGATIVE, "infeasibility"),
    (horn_matrix, ["--cone", "parrilo", "--level", "0"], cli.EXIT_NEGATIVE, "infeasibility"),
    (horn_matrix, ["--cone", "parrilo", "--level", "1"], cli.EXIT_OK, "sos-gram"),
    (_dominant_nn, ["--cone", "cp"], cli.EXIT_OK, "diagonally-dominant-nn"),
    (_simplex_witness, ["--cone", "cop"], cli.EXIT_NEGATIVE, "cop-refutation"),
], ids=["a5-dnn", "a5-cp", "c-cop", "c-spn", "horn-parrilo0", "horn-parrilo1",
        "dominant-cp", "witness-cop"])
def test_certify_exit_code_follows_the_answer(make, argv, code, kind, tmp_path, capsys):
    path = _write(tmp_path, make())
    assert cli.main(["certify", *argv, "--in", path]) == code
    report = json.loads(capsys.readouterr().out)
    assert cli.EXIT_OF_MEMBER[report["member"]] == code
    assert report["certificate"]["kind"] == kind
    if kind == "cp-refutation":
        assert report["certificate"]["level"] == 1


def test_certify_solver_error_exits_2_with_the_error(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("solver indeterminate: stalled")
    monkeypatch.setattr(cones, "cp_refute", fail)
    path = _write(tmp_path, load_reference_a5())
    assert cli.main(["certify", "--cone", "cp", "--in", path]) == cli.EXIT_INDETERMINATE
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is None
    assert report["error"] == "solver indeterminate: stalled"


def test_certify_parrilo0_badly_scaled_input_is_undecided(tmp_path, capsys):
    # PSD and NN, so never a "no"; the solver's ray does not hold at this scale
    path = _write(tmp_path, np.array([[1e308, 1.0], [1.0, 1.0]]))
    code = cli.main(["certify", "--cone", "parrilo", "--level", "0", "--in", path])
    assert code == cli.EXIT_INDETERMINATE
    assert json.loads(capsys.readouterr().out)["member"] is None


# PSD + NN, yet in neither summand cone: min entry -1.06, lambda_min -0.36
SPN_MIXED = np.array([[7.42, 1.88, -1.06, 4.02], [1.88, 0.81, 0.84, -0.37],
                      [-1.06, 0.84, 3.36, -0.83], [4.02, -0.37, -0.83, 5.84]])
_D = np.diag([1e6, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("argv", [["--cone", "spn"], ["--cone", "parrilo", "--level", "0"]],
                         ids=["spn", "parrilo0"])
@pytest.mark.parametrize("arr", [1e6 * SPN_MIXED, 1e9 * SPN_MIXED, 1e12 * SPN_MIXED,
                                 _D @ SPN_MIXED @ _D], ids=["1e6", "1e9", "1e12", "DAD"])
def test_certify_level0_rescaled_psd_nn_input_never_exits_1(arr, argv, tmp_path, capsys):
    code = cli.main(["certify", *argv, "--in", _write(tmp_path, arr)])
    assert code in (cli.EXIT_OK, cli.EXIT_INDETERMINATE)
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is (True if code == cli.EXIT_OK else None)


def test_certify_psd_gram_matrix_exits_0_with_a_factor(tmp_path, capsys):
    b = np.random.RandomState(4).randn(6, 4)
    a = b @ b.T  # rank four
    code = cli.main(["certify", "--cone", "psd", "--in", _write(tmp_path, a)])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    assert report["certificate"]["kind"] == "cholesky-factor"
    L = np.array(report["certificate"]["L"])
    assert np.abs(L @ L.T - a).max() <= 1e-9 * (1.0 + np.abs(a).max())


def test_certify_psd_indefinite_exits_1_with_a_direction(tmp_path, capsys):
    a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
    code = cli.main(["certify", "--cone", "psd", "--in", _write(tmp_path, a)])
    assert code == cli.EXIT_NEGATIVE
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is False
    assert report["certificate"]["kind"] == "negative-direction"
    v = np.array(report["certificate"]["v"])
    assert v @ a @ v < 0


def test_certify_bad_input_file_exits_64(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["certify", "--cone", "psd", "--in", missing]) == cli.EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["certify", "--cone", "psd", "--in", str(bad)]) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("option", [["--attempts", "8"], ["--seed", "0"]])
def test_certify_cop_takes_no_refuter_knobs(option, tmp_path, capsys):
    # Kaplan's scan is exact at n <= 12, and the descent above it is seeded
    # by module constants, so certify has no attempts or seed to set
    path = _write(tmp_path, _simplex_witness())
    assert cli.main(["certify", "--cone", "cop", "--in", path, *option]) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n,entries,reason", [
    (2, "5", "entries must be a list of rows, got 5"),
    (2, "[1.0, 2.0]", "row 0 is not a list: 1.0"),
    (2, "[[1.0, 1%s], [2.0, 1.0]]" % ("0" * 400), "bad float entry at row 0, column 1: 1000"),
    (0, "[]", "n must be >= 1"),
], ids=["entries-5", "flat-rows", "int-above-float-range", "n-0"])
def test_certify_malformed_float_file_exits_64_with_the_reason(n, entries, reason,
                                                               tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(f'{{"n": {n}, "flavor": "float", "entries": {entries}}}', encoding="utf-8")
    assert cli.main(["certify", "--cone", "nn", "--in", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith(f"malformed matrix file {path}: {reason}")


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_certify_non_finite_entry_exits_64_naming_it(token, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(f'{{"n": 2, "flavor": "float", "entries": [[1.0, 1.0], [{token}, 1.0]]}}',
                    encoding="utf-8")
    assert cli.main(["certify", "--cone", "nn", "--in", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        f"malformed matrix file {path}: non-finite entry at row 1, column 0")


@pytest.mark.parametrize("cone", ["nn", "psd"])
def test_certify_entry_above_half_the_float_range_answers_without_a_warning(cone, tmp_path,
                                                                          capsys):
    # the file is exactly symmetric, so it is kept as read: the sum A + A^T
    # of a symmetrization would overflow to inf
    path = tmp_path / "a.json"
    path.write_text('{"n": 2, "flavor": "float", "entries": [[1e308, 1.0], [1.0, 1.0]]}',
                    encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["certify", "--cone", cone, "--in", str(path)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["member"] is True


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = _write(tmp_path, np.eye(3))
    assert cli.main(["certify", "--cone", "parrilo", "--level", "1", "--in", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["level"] == 1
    assert cli.main(["certify", "--cone", "parrilo", "--in", path]) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert json.loads(first)["level"] == 0
    # a usage error that fails after --level was parsed
    bad = ["certify", "--cone", "parrilo", "--level", "1", "--in", path, "--tol", "x"]
    assert cli.main(bad) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["certify", "--cone", "parrilo", "--in", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == first


def test_certify_spn_mixed_sign_rank_one_exits_0_with_a_pair(tmp_path, capsys):
    v = np.random.default_rng([1, zlib.crc32(b"certify-rank1-16")]).normal(size=16)
    if v.min() >= 0.0 or v.max() <= 0.0:
        v[0] = -v[0]
    a = np.outer(v, v)
    code = cli.main(["certify", "--cone", "spn", "--in", _write(tmp_path, a)])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    cert = report["certificate"]
    assert cert["kind"] == "spn-pair"
    assert SpnPair(np.array(cert["psd_part"]), np.array(cert["nonneg_part"])).check(a, 1e-9)


def test_certify_cp_negative_entry_exits_1_with_a_level0_separator(tmp_path, capsys):
    a = np.eye(4) + np.ones((4, 4)) / 4
    a[0, 3] = a[3, 0] = -0.4
    code = cli.main(["certify", "--cone", "cp", "--in", _write(tmp_path, a)])
    assert code == cli.EXIT_NEGATIVE
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is False
    cert = report["certificate"]
    assert cert["kind"] == "cp-refutation"
    assert cert["level"] == 0
    m = np.array(cert["separator"])
    assert cert["pairing"] == float((a * m).sum()) < 0.0
    inner = cert["certificate"]
    assert inner["kind"] == "spn-pair"
    assert SpnPair(np.array(inner["psd_part"]), np.array(inner["nonneg_part"])).check(m, 1e-9)


def test_vrad_ball_exits_0_and_check_bounds_accepts_its_report(tmp_path, capsys):
    report = tmp_path / "ball.json"
    argv = ["--out", str(report), "vrad", "--cone", "ball", "-n", "3", "--samples", "100"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(report.read_text(encoding="utf-8"))["estimate"] == 1.0
    capsys.readouterr()
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_passed"] is True


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_vrad_nonpositive_ball_radius_exits_64(radius, capsys):
    assert cli.main(["vrad", "--cone", "ball", "-n", "3", "--samples", "100",
                     "--ball-radius", radius]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "ball_radius must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option,name", [("--tol", "oracle_tol")])
def test_vrad_nan_tolerance_exits_64_naming_it(option, name, capsys):
    assert cli.main(["vrad", "--cone", "nn", "-n", "3", "--samples", "100",
                     option, "nan"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{name} must be finite" in captured.err
    assert captured.out == ""


def test_vrad_lf_above_n8_exits_64_naming_the_orbit_size(capsys):
    assert cli.main(["vrad", "--cone", "lf", "--mode", "outer", "-n", "9",
                     "--samples", "100"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "n! = 362880" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,reason", [
    (["-n", "13"], "2^n - 1 = 8191 supports"),
    (["-n", "5", "--mode", "inner"], "cop is decided exactly"),
    (["-n", "5", "--mode", "outer"], "cop is decided exactly"),
], ids=["n13", "inner", "outer"])
def test_vrad_cop_above_n12_or_in_a_bisecting_mode_exits_64(argv, reason, capsys):
    assert cli.main(["vrad", "--cone", "cop", *argv, "--samples", "100"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert reason in captured.err
    assert captured.out == ""


def test_vrad_radial_error_exits_2_with_the_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise volume.RadialError("direction never exits the section")
    monkeypatch.setattr(volume, "vrad_mc", fail)
    assert cli.main(["vrad", "--cone", "ball", "-n", "3"]) == cli.EXIT_INDETERMINATE
    report = json.loads(capsys.readouterr().out)
    assert report == {"command": "vrad", "status": "indeterminate",
                      "error": "direction never exits the section"}


def test_check_bounds_on_a_file_exits_64(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text("{}", encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(path)]) == cli.EXIT_USAGE
    assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("text,reason", [
    (json.dumps({"cone": "nn", "estimate": 0.2, "n": 3}), "missing key 'ci'"),
    (json.dumps({"cone": "nn", "estimate": 0.2, "n": 3, "ci": None, "samples": 100,
                 "seed": 1, "dim": 5}), "not subscriptable"),
    ("{not json", "Expecting property name"),
    (json.dumps({"cone": "nn", "estimate": 0.2, "n": 3, "ci": [0.5, 0.1], "samples": 100,
                 "seed": 1, "dim": 5}), "need finite 0 <= ci_low <= estimate <= ci_high"),
    ('{"cone": "nn", "estimate": NaN, "n": 3, "ci": [-Infinity, Infinity], "samples": 100,'
     ' "seed": 1, "dim": 5}', "need finite 0 <= ci_low <= estimate <= ci_high"),
    *((json.dumps({"cone": cone, "estimate": 0.2, "n": n, "ci": [0.1, 0.3], "samples": 100,
                   "seed": 1, "dim": 5}), f"n must be an integer >= 3 (>= 2 for ball), got {n!r}")
      for cone, n in (("nn", 0), ("nn", -3), ("nn", 5.7), ("nn", True), ("nn", 2),
                      ("ball", 1))),
    (json.dumps({"cone": "nn", "estimate": 0.2, "n": 3, "ci": [0.1, 0.3], "samples": 100,
                 "seed": 1, "dim": 6}), "dim must be n(n+1)/2 - 1 = 5 at n = 3, got 6"),
], ids=["no-ci", "null-ci", "not-json", "reversed-ci", "nan-estimate-infinite-ci",
        "n-zero", "n-negative", "n-fraction", "n-bool", "nn-n2", "ball-n1", "wrong-dim"])
def test_check_bounds_malformed_report_exits_64_naming_the_file(text, reason, tmp_path, capsys):
    path = tmp_path / "nn.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)["error"]
    assert error.startswith(f"malformed vrad report {path}: ") and reason in error


@pytest.mark.parametrize("fields,reason", [
    ({"cone": "foo"}, "unknown cone 'foo'"),
    ({"samples": 3.7}, "samples must be an integer >= 100, got 3.7"),
    ({"samples": 99}, "samples must be an integer >= 100, got 99"),
    ({"mode": "middle"}, "unknown mode 'middle'"),
], ids=["unknown-cone", "fractional-samples", "few-samples", "unknown-mode"])
def test_check_bounds_bad_cone_samples_or_mode_exits_64_naming_the_file(fields, reason,
                                                                       tmp_path, capsys):
    report = {"cone": "nn", "n": 3, "estimate": 0.2, "ci": [0.1, 0.3], "samples": 100,
              "seed": 1, "dim": 5}
    path = tmp_path / "nn.json"
    path.write_text(json.dumps({**report, **fields}), encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == f"malformed vrad report {path}: {reason}"


def test_check_bounds_two_reports_of_one_cone_exit_64_naming_both(tmp_path, capsys):
    # check_bounds keys estimates by (cone, mode), so a second report of one
    # section would replace the first
    report = {"cone": "cp", "n": 5, "mode": "inner", "estimate": 0.2, "ci": [0.1, 0.3],
              "samples": 100, "seed": 1, "dim": 14}
    for name, seed in (("a.json", 1), ("b.json", 2)):
        (tmp_path / name).write_text(json.dumps({**report, "seed": seed}), encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)["error"]
    assert str(tmp_path / "a.json") in error and str(tmp_path / "b.json") in error


def test_check_bounds_pairs_the_inner_and_outer_sections_of_one_cone(tmp_path, capsys):
    report = {"cone": "cp", "n": 5, "samples": 100, "seed": 1, "dim": 14}
    for mode, est, ci in (("inner", 0.2, [0.15, 0.25]), ("outer", 0.3, [0.25, 0.35])):
        (tmp_path / f"{mode}.json").write_text(
            json.dumps({**report, "mode": mode, "estimate": est, "ci": ci}), encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    order = [c for c in out["checks"] if c["check"] == "order"]
    assert order == [{"check": "order", "pair": [["cp", "inner"], ["cp", "outer"]],
                      "passed": True, "estimates": [0.2, 0.3]}]
    assert {(c["cone"], c["mode"]) for c in out["checks"] if c["check"] == "band"} == \
        {("cp", "inner"), ("cp", "outer")}


@pytest.mark.parametrize("n,checks", [(2, ["band"]), (12, ["band", "nn-exact-lower"])],
                         ids=["n2", "n12"])
def test_check_bounds_checks_the_exact_nn_radius_from_n3(n, checks, tmp_path, capsys):
    # vrad_nn_exact is a closed form at every n >= 3; the ball section alone
    # exists at n = 2
    report = {"cone": "ball", "n": n, "mode": "exact", "estimate": 1.0, "ci": [1.0, 1.0],
              "samples": 100, "seed": 42, "dim": n * (n + 1) // 2 - 1}
    (tmp_path / "ball.json").write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path)]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == n and out["all_passed"] is True
    assert [c["check"] for c in out["checks"]] == checks
    assert all(c["passed"] for c in out["checks"])


@pytest.mark.parametrize("n", ["0", "1"])
def test_check_bounds_n_below_2_exits_64(n, tmp_path, capsys):
    # with reports at n = 3 on disk, -n 0 used to skip them all and divide by n
    report = {"cone": "nn", "n": 3, "estimate": 0.4, "ci": [0.3, 0.5], "samples": 100,
              "seed": 1, "dim": 5}
    (tmp_path / "nn.json").write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["check-bounds", "--dir", str(tmp_path), "-n", n]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == f"check-bounds -n must be >= 2, got {n}"


def test_construct_ecop_bundled_a5_exits_0(capsys):
    assert cli.main(["construct-ecop"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "feasible"
    assert report["pairing"] < 0.0


def test_construct_ecop_on_a_large_identity_exits_2(tmp_path, capsys):
    # <1e7 I, C> = -1/10 needs trace C < 0: the solver's C fails the exact
    # copositivity re-check, so the answer is indeterminate, not feasible
    path = _write(tmp_path, 1e7 * np.eye(5))
    assert cli.main(["construct-ecop", "--in", path]) == cli.EXIT_INDETERMINATE
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "indeterminate"
    assert report["error"].startswith("C is not copositive")


def test_construct_ecop_refuses_an_input_that_is_not_dnn(tmp_path, capsys):
    a = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # PSD, not NN
    assert cli.main(["construct-ecop", "--in", _write(tmp_path, a)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("A is not doubly nonnegative: nn fails") and "psd" not in error


def test_construct_ednn_cli_and_library_share_their_degrees():
    args = cli.build_parser().parse_args(["construct-ednn"])
    assert (args.m, args.mprime) == exceptional.construct_ednn.__defaults__[:2] == (12, 6)


@pytest.mark.parametrize("argv", [["--mprime", "-1"], ["--m", "-3", "--mprime", "-4"]])
def test_construct_ednn_bad_degrees_exit_64(argv, capsys):
    assert cli.main(["construct-ednn", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 <= mprime <= m" in json.loads(captured.err)["error"]


def test_construct_ednn_default_exits_0(capsys):
    assert cli.main(["construct-ednn"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "feasible"
    assert abs(report["horn_pairing"] + 0.05) <= 1e-6


def test_verify_paper_exits_0_iff_all_passed(capsys):
    code = cli.main(["verify-paper"])
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]) == 7
    assert code == (cli.EXIT_OK if report["all_passed"] else cli.EXIT_NEGATIVE)


_SCIPY_PROBE = """
import contextlib, io, json, sys
import coposlab, coposlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

gram, shifted, nn3, horn = sys.argv[1:]
steps = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    code = coposlab.cli.main(["vrad", "--cone", "cop", "-n", "6", "--samples", "200"])
steps["vrad"] = [code, scipy_modules()]
with contextlib.redirect_stdout(io.StringIO()):
    code = coposlab.cli.main(["vrad", "--cone", "spn", "-n", "4", "--samples", "2000",
                              "--seed", "1"])
steps["vrad-spn"] = [code, scipy_modules()]
for step, path in (("nn", gram), ("psd", gram), ("dnn", gram), ("parrilo", gram),
                   ("parrilo-vertex", shifted), ("cp", nn3), ("cop-vertex", shifted),
                   ("cop", horn)):
    cone = step.split("-")[0]
    level = ["--level", "1"] if cone == "parrilo" else []
    with contextlib.redirect_stdout(io.StringIO()):
        code = coposlab.cli.main(["certify", "--cone", cone, *level, "--in", path])
    steps[step] = [code, scipy_modules()]
print(json.dumps(steps))
"""


def test_import_and_sdp_free_certify_load_no_scipy(tmp_path):
    b = np.abs(np.random.RandomState(7).randn(8, 5))
    gram = _write(tmp_path, b @ b.T)  # doubly nonnegative
    shifted = tmp_path / "shifted.json"
    shifted.write_text(matrix_dumps(SymMatrix(horn_matrix().to_numpy() - 0.2 * np.eye(5))),
                       encoding="utf-8")
    nn3 = tmp_path / "nn3.json"
    nn3.write_text(matrix_dumps(SymMatrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                                     [0.0, 0.0, 1.0]]))), encoding="utf-8")
    horn = tmp_path / "horn.json"
    horn.write_text(matrix_dumps(horn_matrix()), encoding="utf-8")
    src = str(Path(coposlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, gram, str(shifted), str(nn3),
                          str(horn)], env=env, capture_output=True, text=True, check=True)
    steps = json.loads(run.stdout)
    assert steps["import"] == []
    # level 1 of the hierarchy on a DNN input lifts its summand split
    for cone in ("nn", "psd", "dnn", "parrilo"):
        assert steps[cone] == [cli.EXIT_OK, []], cone
    # and on Horn - 0.2 I it refutes the negative vertex e_0 + e_1
    assert steps["parrilo-vertex"] == [cli.EXIT_NEGATIVE, []]
    # cp at n <= 4 takes the level-0 closed form: the PSD slice refutes a
    # nonnegative matrix that is not PSD
    assert steps["cp"] == [cli.EXIT_NEGATIVE, []]
    # the cop section has Kaplan's closed-form radius, and so has spn at
    # n <= 4, where it equals cop
    assert steps["vrad"] == [cli.EXIT_OK, []]
    assert steps["vrad-spn"] == [cli.EXIT_OK, []]
    # cop on Horn - 0.2 I: the negative vertex rules out every level of the
    # hierarchy, and the vertex scan's witness refutes
    assert steps["cop-vertex"] == [cli.EXIT_NEGATIVE, []]
    # positive control: the copositivity of Horn takes an SDP, and with it scipy
    code, loaded = steps["cop"]
    assert code == cli.EXIT_OK
    assert "scipy.linalg" in loaded
