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
