import json

import numpy as np
import pytest

from coposlab import cli
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
    path.write_text(matrix_dumps(SymMatrix(a)), encoding="utf-8")
    return str(path)


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
