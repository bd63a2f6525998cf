import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from coposlab import cones, exceptional
from coposlab.cones import (InfeasibilityCert, SosGram, frobenius, horn_matrix,
                            membership_basic, parrilo_member, quartic_target)
from coposlab.exceptional import (CosPoly, EdnnResult, TrigGram, VerificationError,
                                  build_ednn_sdp, compression_matrix, construct_ecop,
                                  construct_ednn, gram_function_coeffs,
                                  horn_pairing_coefficients, load_reference_a5,
                                  load_reference_c, load_reference_gram,
                                  read_off_series, verify_paper_examples)
from coposlab.numerics import QSqrt2, SymMatrix
from coposlab.quartic import monomials
from coposlab.sdp import DualRay, SdpSolution, SdpStatus, sos_gram_assemble


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


def test_construct_ecop_refuses_a_nonnegative_input_that_is_not_psd():
    a = SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValueError, match=r"not doubly nonnegative: psd fails with v\^T A v = -1$"):
        construct_ecop(a, Fraction(1, 10), 1)


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


@pytest.mark.parametrize("scale", [1e7, 1e9])
def test_construct_ecop_never_returns_a_c_that_is_not_copositive(scale):
    # <s I, C> = -1/10 forces trace C < 0, so no copositive C exists; the
    # solver's C has diagonal about -2e-9 / (s / 1e7), which cop_refute at
    # tol 0 finds and re-checks exactly
    with pytest.raises(VerificationError, match="C is not copositive"):
        construct_ecop(SymMatrix(scale * np.eye(5)), Fraction(1, 10), 1)


def test_construct_ecop_ray_counts_only_at_the_input_scale(monkeypatch):
    # a ray with b^T y = 1 whose violation times |b|_1 = 1/10 is 1, above
    # b^T y / 2: it does not refute at the scale of b, so no answer
    def fake_solve(prob, tol):
        y = np.zeros(len(prob.constraints))
        y[-1] = -10.0  # b^T y = -1/10 * -10 = 1
        ray = DualRay(y=y, psd_operators=[np.zeros((d, d)) for d in prob.psd_block_dims],
                      nonneg_part=np.zeros(prob.nonneg_dim), free_part=np.full(prob.free_dim, 10.0))
        return SdpSolution(status=SdpStatus.INFEASIBLE, psd_blocks=[], nonneg=np.zeros(0),
                           free=np.zeros(0), y=np.zeros(0), residuals=(0.0, 0.0, 0.0),
                           objective_value=None, iterations=0, dual_ray=ray)

    monkeypatch.setattr(exceptional, "sdp_solve", fake_solve)
    with pytest.raises(RuntimeError, match="does not refute at the input's scale"):
        construct_ecop(load_reference_a5(), Fraction(1, 10), 1)


@pytest.mark.parametrize("module,call,want", [
    (cones, lambda: parrilo_member(horn_matrix(), 1),
     "3a03a4288d95f78f8799e83103f22711d6d310f87322d8335698168fe5933c51"),
    (cones, lambda: parrilo_member(load_reference_c(), 1),
     "e772e6e89dc4b77a7010fb5db0b7cb8fd5c7e864225e61a184b7f7305cb2b090"),
    (cones, lambda: parrilo_member(horn_matrix(), 2),
     "dc8621786b30c17809c861947c8f0027d9b88714898e646789330fd31d9be780"),
    # cp_refute answers A5 from the Horn orbit; its SDP step is pinned alone
    (cones, lambda: cones._cp_sdp(load_reference_a5().to_numpy(), 1e-8),
     "9e1f5ba4fff0ca5baf8416489ea7894ec6cebdd4142bc9d3aac0b7af45d4abd2"),
    (exceptional, lambda: construct_ecop(load_reference_a5(), Fraction(1, 10), 1),
     "b177b1f04747414c3b23caf0c9ee660d2e921d90286fa22c776deb7ff121b598"),
    (exceptional, lambda: construct_ecop(load_reference_a5(), Fraction(1, 10), 2),
     "0a6a2522a352af5c46d0caeff678d1f12805c743adc87fbfab8b11cec3fb7269"),
])
def test_level_r_sdps_are_pinned(module, call, want, monkeypatch):
    # every row, coefficient and right-hand side of the one K^(r) SDP each
    # call solves, float for float: a change to the expansion of
    # (sum x_i^2)^r q_M or to the appended pairing rows shows here
    solved = []
    solve = module.sdp_solve

    def spy(prob, **kwargs):
        solved.append(prob)
        return solve(prob, **kwargs)

    monkeypatch.setattr(module, "sdp_solve", spy)
    call()
    assert len(solved) == 1
    d = solved[0].to_json_dict()
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == want


@pytest.mark.parametrize("module,call,most", [
    (cones, lambda: parrilo_member(horn_matrix(), 1), 10),
    (cones, lambda: parrilo_member(load_reference_c(), 1), 11),
    (exceptional, lambda: construct_ecop(load_reference_a5(), Fraction(1, 10), 1), 10),
    (exceptional, lambda: construct_ednn(Fraction(1, 40), 12, 6), 10),
])
def test_level1_solves_take_no_more_iterations(module, call, most, monkeypatch):
    # the solver's cost is per iteration: a change to the step that takes
    # more iterations on the paper's level-1 certificates shows here
    its = []
    solve = module.sdp_solve

    def spy(prob, **kwargs):
        sol = solve(prob, **kwargs)
        its.append(sol.iterations)
        return sol

    monkeypatch.setattr(module, "sdp_solve", spy)
    call()
    assert len(its) == 1 and its[0] <= most


# ---------------------------------------------------------------------------
# exceptional DNN construction and the bundled reference examples
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ednn():
    return construct_ednn(Fraction(1, 20), 12, 6)


@pytest.fixture(scope="module")
def paper_report():
    return verify_paper_examples()


def test_construct_ednn_pairs_a_dnn_a5_against_horn(ednn):
    assert isinstance(ednn, EdnnResult)
    assert abs(ednn.horn_pairing + 0.05) <= 1e-6
    a5 = ednn.a5.to_numpy()
    assert abs(float((a5 * horn_matrix().to_numpy()).sum()) + 0.05) <= 1e-6
    assert membership_basic(ednn.a5, "dnn", 1e-7)[0]
    assert TrigGram(mprime=6, gram=ednn.gram.to_numpy()).residual(ednn.f) <= 1e-6


def test_construct_ednn_defaults_to_degrees_twelve_and_six(ednn):
    res = construct_ednn(Fraction(1, 20))
    assert isinstance(res, EdnnResult)
    assert res.f == ednn.f and res.mprime == 6


def test_construct_ednn_degree_six_returns_a_dual_ray():
    # no degree-6 series with a_k >= 0 pairs negatively against Horn
    res = construct_ednn(Fraction(1, 20), 6, 3)
    assert isinstance(res, InfeasibilityCert)
    assert res.ray.max_violation() <= 1e-6


@pytest.mark.parametrize("check_id", [1, 3, 4, 5, 6, 7])
def test_verify_paper_check_passes(paper_report, check_id):
    assert [c.id for c in paper_report.checks] == list(range(1, 8))
    check = paper_report.checks[check_id - 1]
    assert check.passed, check.detail


def test_verify_paper_check_2_names_the_negative_value_of_f(paper_report):
    # f = 1 + 2 sum a_k cos(2 pi k x) is negative at 3/8, so no PSD Gram
    # represents it; the detail gives that value exactly
    check = paper_report.checks[1]
    assert not check.passed
    match = re.search(r"f\(3/8\) = (\S+) ~ (-[0-9.]+) < 0", check.detail)
    assert match is not None, check.detail
    coeffs = [float(c) for c in read_off_series(load_reference_a5()).coeffs]
    value = coeffs[0] + 2.0 * sum(c * math.cos(2.0 * math.pi * k * 3.0 / 8.0)
                                  for k, c in enumerate(coeffs) if k)
    assert value < -0.1
    assert abs(float(match.group(2)) - value) <= 1e-4


def test_verify_paper_check_2_names_the_half_series_of_b(paper_report):
    # B's cosine functionals are f's at frequency 0 and half of f's at every
    # frequency 1..6, exactly: v^T B v = (1 + f)/2, which certifies f >= -1
    f = read_off_series(load_reference_a5())
    b = load_reference_gram()
    got = gram_function_coeffs(b, b.n - 1)
    assert len(got) == f.m + 1 == 7
    assert got[0] == f.coeff(0) == 1
    assert all(got[k] == f.coeff(k) / 2 != f.coeff(k) for k in range(1, 7))
    assert got[1] == Fraction(8, 27) and f.coeff(1) == Fraction(16, 27)
    detail = paper_report.checks[1].detail
    assert "; v^T B v = (1 + f)/2 exactly, so B certifies f >= -1, not f >= 0; f(3/8) = " in detail


def test_verify_paper_check_6_gives_the_exact_pairing(paper_report):
    # the bundled C and A5 pair to an exact element of Q(sqrt2), -0.2847
    want = QSqrt2(Fraction(63087569, 3487050), Fraction(-31718137, 2440935))
    assert frobenius(load_reference_c(), load_reference_a5()) == want
    assert abs(float(want) + 0.284695) <= 1e-6
    assert paper_report.checks[5].detail == f"<C,A5> = {want} ~ {float(want):.6f}"


@pytest.mark.xfail(strict=True, reason="check 2: the bundled Gram B reproduces (1 + f)/2, "
                                       "not f (known defect)")
def test_verify_paper_all_passed(paper_report):
    assert paper_report.all_passed


def test_compression_float_equals_float_of_exact():
    # dyadic coefficients: every float sum is exact, so the two flavours
    # must agree bit for bit
    rng = np.random.default_rng(7)
    coeffs = [Fraction(int(v), 64) for v in rng.integers(0, 200, size=10)]
    exact = compression_matrix(CosPoly.exact(coeffs), 8)
    flt = compression_matrix(CosPoly.from_floats([float(c) for c in coeffs]), 8)
    assert np.array_equal(flt.to_numpy(), exact.to_numpy())


def test_gram_coefficients_float_and_exact_agree_on_bundled_b():
    b = load_reference_gram()
    exact = [float(c) for c in gram_function_coeffs(b, b.n - 1)]
    flt = gram_function_coeffs(b.to_numpy(), b.n - 1)
    assert len(flt) == len(exact) == 2 * b.n - 1
    assert np.abs(np.array(flt) - np.array(exact)).max() <= 1e-15


def test_horn_pairing_coefficients_reproduce_the_pairing():
    c0, c = horn_pairing_coefficients(12)
    horn = horn_matrix().to_numpy()
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.random(12)
        a5 = compression_matrix(CosPoly.from_floats([1.0, *a]), 5).to_numpy()
        assert c0 + float(np.dot(c, a)) == pytest.approx(float((a5 * horn).sum()), abs=1e-12)


def test_build_ednn_sdp_is_pinned():
    # every row, coefficient and right-hand side, float for float: a change
    # to the cosine Gram table or the Horn coefficients shows here
    d = build_ednn_sdp(Fraction(1, 20), 12, 6).to_json_dict()
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == "9ebf4763fe0e93c0e9a0c40964f141a485908c35af4d45d11ae9081e6b7e6ec5"


@pytest.mark.parametrize("m,mprime", [(12, -1), (-3, -4), (4, 5)])
def test_build_ednn_sdp_refuses_degrees_outside_zero_to_m(m, mprime):
    with pytest.raises(ValueError, match="0 <= mprime <= m"):
        build_ednn_sdp(Fraction(1, 20), m, mprime)
