from fractions import Fraction

import numpy as np
import pytest

from coposlab.cones import InfeasibilityCert, SosGram, quartic_target
from coposlab.exceptional import construct_ecop, load_reference_a5
from coposlab.numerics import SymMatrix
from coposlab.quartic import monomials
from coposlab.sdp import sos_gram_assemble


@pytest.mark.parametrize("k", [1, 2])
def test_construct_ecop_pairs_and_certifies(k):
    a5 = load_reference_a5()
    cmat, gram = construct_ecop(a5, Fraction(1, 10), k)
    c = cmat.to_numpy()
    assert float((c * a5.to_numpy()).sum()) == pytest.approx(-0.1, abs=1e-7)
    assert isinstance(gram, SosGram)
    assert gram.basis == monomials(5, k + 2)
    target = {key: float(v) for key, v in quartic_target(cmat, k).items()}
    assert gram.check(target, 1e-6)


def test_construct_ecop_infeasible_ray_on_dense_rows_plus_pairing():
    # <I, C> = trace C >= 0 for every copositive C, so -1/10 is out of reach
    res = construct_ecop(SymMatrix(np.eye(5)), Fraction(1, 10), 1)
    assert isinstance(res, InfeasibilityCert)
    dense_rows = len(sos_gram_assemble({}, monomials(5, 3)).constraints)
    ray = res.ray
    assert ray.y.shape == (dense_rows + 1,)
    assert -0.1 * ray.y[-1] > 0.0  # b^T y: the coefficient rows have b = 0
    assert ray.psd_operators[0].shape == (35, 35)
    assert ray.max_violation() <= 1e-6
