import itertools
import zlib
from fractions import Fraction

import numpy as np
import pytest

from coposlab import cones, exceptional, volume
from coposlab.cones import (CopRefutation, CpRefutation, InfeasibilityCert,
                            SosGram, SpnPair, cop_refute, cp_refute,
                            frobenius, horn_matrix, membership_basic,
                            parrilo_member, quartic_target, spn_decompose)
from coposlab.numerics import CholeskyFactor, PivotList, QSqrt2, SymMatrix, exact_ldl_psd
from coposlab.exceptional import construct_ednn, load_reference_a5, load_reference_c
from coposlab.quartic import monomials
from coposlab.volume import SectionSpec, section_radii
from coposlab.sdp import (DualRay, LinExpr, SdpProblem, SdpStatus, gram_form_coeffs,
                          gram_rows, sdp_solve, sos_gram_assemble)


# ---------------------------------------------------------------------------
# the Horn matrix
# ---------------------------------------------------------------------------

def test_horn_entries_and_row_sums():
    h = horn_matrix()
    assert h.flavor == "exact"
    assert h[0, 1] == QSqrt2.of(-1)
    for i in range(5):
        total = QSqrt2.of(0)
        for j in range(5):
            total = total + h[i, j]
            assert h[i, j] == h[j, i]
        assert total == 1


# ---------------------------------------------------------------------------
# basic memberships
# ---------------------------------------------------------------------------

def test_membership_all_ones():
    j5 = SymMatrix(np.ones((5, 5)))
    for cone in ("nn", "psd", "dnn"):
        ok, _ = membership_basic(j5, cone)
        assert ok


def test_membership_horn_not_nn():
    ok, cert = membership_basic(horn_matrix(), "nn")
    assert not ok
    assert cert["min_entry"] == -1.0


def test_membership_reference_a5_dnn():
    ok, cert = membership_basic(load_reference_a5(), "dnn", 1e-7)
    assert ok
    assert isinstance(cert["psd"], CholeskyFactor)


# ---------------------------------------------------------------------------
# SPN decomposition
# ---------------------------------------------------------------------------

def test_spn_all_ones_and_identity():
    for a in (np.ones((5, 5)), np.eye(5)):
        res = spn_decompose(SymMatrix(a))
        assert isinstance(res, SpnPair)
        assert res.check(a, 1e-9)


def test_spn_rank_one_psd_at_default_tol():
    # v v^T with mixed signs sits on the PSD boundary and is never NN
    a = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    res = spn_decompose(SymMatrix(a), 1e-9)
    assert isinstance(res, SpnPair)
    assert res.check(a, 1e-9)


def test_spn_horn_refuted_with_separating_dnn_matrix():
    res = spn_decompose(horn_matrix())
    assert isinstance(res, InfeasibilityCert)
    m = res.separator
    assert np.linalg.eigvalsh(m)[0] >= -1e-8
    assert m.min() >= -1e-8
    pairing = float((horn_matrix().to_numpy() * m).sum())
    assert pairing < -0.9  # normalized to <A, M> = -1


def _rank_one_mixed(rng, n):
    v = rng.normal(size=n)
    if v.min() >= 0.0 or v.max() <= 0.0:
        v[0] = -v[0]
    return np.outer(v, v)


@pytest.fixture
def no_sdp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SDP was solved")
    monkeypatch.setattr(cones, "sdp_solve", refuse)


@pytest.fixture
def sdp_calls(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return sdp_solve(*args, **kwargs)
    monkeypatch.setattr(cones, "sdp_solve", spy)
    return calls


def test_spn_psd_or_nn_input_needs_no_sdp(no_sdp):
    inputs = [np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])]
    for n in range(3, 41):
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        gram = g @ g.T / n
        inputs += [np.abs(gram), gram, _rank_one_mixed(rng, n)]
    for a in inputs:
        res = spn_decompose(SymMatrix(a), 1e-9)
        assert isinstance(res, SpnPair)
        assert res.check(a, 1e-9)


def test_spn_sum_of_nontrivial_summands_reaches_the_sdp(sdp_calls):
    # the odd-trial generator of the hierarchy chain test: PSD + NN
    rng = np.random.RandomState(22)
    n, decided = 5, 0
    for _ in range(30):
        g = rng.randn(n, n)
        nn = np.abs(rng.randn(n, n))
        a = g @ g.T + 0.5 * (nn + nn.T)
        if a.min() >= 0.0 or np.linalg.eigvalsh(a)[0] >= 0.0:
            continue  # one summand alone already decides it
        before = len(sdp_calls)
        res = spn_decompose(SymMatrix(a), tol=1e-8)
        assert len(sdp_calls) == before + 1
        assert isinstance(res, SpnPair)
        assert res.check(a, 1e-8)
        decided += 1
    assert decided >= 10


def test_cop_inner_psd_or_nn_input_needs_no_sdp(no_sdp):
    for n in (3, 4, 6):
        g = np.random.default_rng(n).normal(size=(n, n))
        gram = g @ g.T / n
        for a in (gram, np.abs(gram), _rank_one_mixed(np.random.default_rng(n), n)):
            r, cert = cones.cop_inner(SymMatrix(a))
            assert r == 0
            assert cert.check(quartic_target(SymMatrix(a), 0), 1e-9)


def _psd_plus_nn_in_neither_summand(n=5):
    rng = np.random.RandomState(22)
    while True:
        g = rng.randn(n, n)
        nn = np.abs(rng.randn(n, n))
        a = g @ g.T + 0.5 * (nn + nn.T)
        if a.min() < 0.0 and np.linalg.eigvalsh(a)[0] < 0.0:
            return a


def test_cop_inner_sum_of_nontrivial_summands_solves_an_sdp(sdp_calls):
    a = _psd_plus_nn_in_neither_summand()
    r, cert = cones.cop_inner(SymMatrix(a))
    assert len(sdp_calls) >= 1
    assert cert.check(quartic_target(SymMatrix(a), r), 1e-7)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", range(3, 21))
def test_spn_sdp_solves_every_rank_one_bench_input(seed, n):
    # the P + N SDP on the certify bench's rank-one inputs, which are PSD on
    # the boundary and never NN; (1, 16) and (2, 20) once stalled
    rng = np.random.default_rng([seed, zlib.crc32(f"certify-rank1-{n}".encode())])
    a = _rank_one_mixed(rng, n)
    res = cones._spn_sdp(a, 1e-9)
    assert isinstance(res, SpnPair)
    assert res.check(a, 1e-9)


# ---------------------------------------------------------------------------
# the SOS hierarchy
# ---------------------------------------------------------------------------

def test_parrilo_horn_level0_infeasible():
    res = parrilo_member(horn_matrix(), 0)
    assert isinstance(res, InfeasibilityCert)


def test_parrilo_horn_level1_feasible():
    res = parrilo_member(horn_matrix(), 1, tol=1e-7)
    assert isinstance(res, SosGram)
    target = {k: float(v) for k, v in quartic_target(horn_matrix(), 1).items()}
    assert res.residual(target) <= 1e-7
    assert res.check(target, 1e-6)


def test_parrilo_horn_level1_feasible_at_default_tol():
    res = parrilo_member(horn_matrix(), 1)
    assert isinstance(res, SosGram)
    target = {k: float(v) for k, v in quartic_target(horn_matrix(), 1).items()}
    assert res.check(target, 1e-6)


def test_parrilo_identity_level0_feasible():
    res = parrilo_member(SymMatrix(np.eye(5)), 0)
    assert isinstance(res, SosGram)


def test_parrilo_level0_agrees_with_spn_on_random_matrices():
    rng = np.random.RandomState(20)
    agree = 0
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        a = 0.5 * (a + a.T)
        m = SymMatrix(a)
        spn = spn_decompose(m, tol=1e-8)
        sos = parrilo_member(m, 0, tol=1e-8)
        assert isinstance(spn, SpnPair) == isinstance(sos, SosGram)
        agree += 1
    assert agree == 100


def test_parrilo_blocked_status_matches_dense_reference():
    rng = np.random.RandomState(31)
    decided = 0
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, size=(4, 4))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, rng.uniform(0.0, 1.0, size=4))
        m = SymMatrix(a)
        for r in (0, 1):
            target = quartic_target(m, r)
            basis = monomials(4, r + 2)
            dense = sdp_solve(sos_gram_assemble(target, basis)).status
            if dense == SdpStatus.INDETERMINATE:
                continue
            res = parrilo_member(m, r)
            assert isinstance(res, SosGram) == (dense != SdpStatus.INFEASIBLE)
            if isinstance(res, SosGram):
                assert res.basis == basis
                assert res.gram.shape == (len(basis), len(basis))
                assert res.check({k: float(v) for k, v in target.items()}, 1e-6)
            else:
                assert isinstance(res, InfeasibilityCert)
            decided += 1
    assert decided >= 30


def _assert_ray_on_dense_rows(a, r, res):
    assert isinstance(res, InfeasibilityCert)
    basis = monomials(a.n, r + 2)
    dense = sos_gram_assemble(quartic_target(a, r), basis)
    y = res.ray.y
    assert y.shape == (len(dense.constraints),)
    b = np.array([rhs for _, rhs in dense.constraints])
    assert float(b @ y) > 0.0
    assert res.ray.max_violation() <= 1e-6
    # -A^T y of the dense problem on the full Gram; odd-monomial rows carry 0
    z = np.zeros((len(basis), len(basis)))
    for yv, (expr, _) in zip(y, dense.constraints):
        (_, _, i, j), _ = next(iter(expr.terms.items()))
        if any(e % 2 for e in np.add(basis[i], basis[j])):
            assert yv == 0.0
        for (_, _, i, j), c in expr.terms.items():
            v = yv * (c if i == j else c / 2.0)
            z[i, j] -= v
            if i != j:
                z[j, i] -= v
    assert np.allclose(res.ray.psd_operators[0], z, rtol=0.0, atol=1e-12)
    assert res.check(a, r) and not _negated(res).check(a, r)


def _negated(cert):
    # the same ray with y negated and its stored operators kept
    ray = cert.ray
    return InfeasibilityCert(DualRay(-ray.y, ray.psd_operators, ray.nonneg_part, ray.free_part))


def test_parrilo_ray_is_stated_on_the_dense_rows():
    a = SymMatrix(horn_matrix().to_numpy() - 0.2 * np.eye(5))
    _assert_ray_on_dense_rows(a, 1, parrilo_member(a, 1))


def _no_negative_vertex_noncopositive(n):
    # x = (2, 1, 0, ...) gives 4 - 8.4 + 4 < 0, but every 0/1 vector with
    # at most three ones gives a positive value
    a = np.eye(n)
    a[:2, :2] = [[1.0, -2.1], [-2.1, 4.0]]
    return a


def test_parrilo_ray_from_the_sdp_is_stated_on_the_dense_rows(sdp_calls):
    a = SymMatrix(_no_negative_vertex_noncopositive(4))
    assert cones._negative_vertex(a.to_numpy(), 1e-9) is None
    res = parrilo_member(a, 1)
    assert len(sdp_calls) == 1
    _assert_ray_on_dense_rows(a, 1, res)


# the shifted Hildebrand T-matrix of the CI step: no 0/1 vertex is negative
T_SHIFTED = np.array([[0.999, -1.960133, 0.348353, 0.932415, -0.877583],
                      [-1.960133, 3.996, -0.825336, 1.86483, 1.529684],
                      [0.348353, -0.825336, 0.24975, -0.716502, 0.382421],
                      [0.932415, 1.86483, -0.716502, 2.24775, -1.381591],
                      [-0.877583, 1.529684, 0.382421, -1.381591, 0.999]])


def test_infeasibility_check_rebuilds_the_moment_matrix_from_y():
    # the Horn matrix is in K^(1), so nothing refutes it there; a made-up ray
    # with y one-hot at the largest entry of b (b^T y = 1) and a stored Z = I
    # passes every test that reads the stored Z, but the moment matrix of
    # that y is not PSD
    h = horn_matrix()
    at, _ = gram_rows(tuple(monomials(5, 3)))
    target = quartic_target(h, 1)
    b = np.array([float(target.get(g, 0)) for g in at])
    k = int(np.argmax(b))
    y = np.zeros(len(at))
    y[k] = 1.0 / b[k]
    fake = InfeasibilityCert(DualRay(y, [np.eye(35)], np.zeros(0), np.zeros(0)))
    assert float(b @ y) == 1.0 and fake.ray.max_violation() == 0.0
    assert not fake.check(h, 1)
    # a y of the wrong length or level refutes nothing
    assert not InfeasibilityCert(DualRay(y[:-1], [], np.zeros(0), np.zeros(0))).check(h, 1)
    assert not fake.check(h, 0)


def test_infeasibility_check_passes_every_producers_ray(sdp_calls):
    # the level-0 DNN functional, the vertex ray at r = 0 and r = 1, and the
    # K^(1) SDP ray read back on the dense rows; each passes check and fails
    # it with y negated (_assert_ray_on_dense_rows)
    a = SymMatrix(horn_matrix().to_numpy() - 0.2 * np.eye(5))
    support, value = cones._negative_vertex(a.to_numpy(), 1e-9)
    t = SymMatrix(T_SHIFTED)
    assert cones._negative_vertex(T_SHIFTED, 1e-9) is None
    rays = [(a, 0, parrilo_member(a, 0)), (a, 0, cones._vertex_ray(5, 0, support, value)),
            (a, 1, parrilo_member(a, 1)), (t, 1, parrilo_member(t, 1))]
    assert len(sdp_calls) == 2  # the level-0 P + N SDP and the K^(1) SDP of t
    assert rays[0][2].separator is not None and "sign flips" in rays[2][2].note
    for m, r, cert in rays:
        _assert_ray_on_dense_rows(m, r, cert)


def _pm1_with_negative_triangle(n):
    a = np.ones((n, n))
    a[:3, :3] = 2.0 * np.eye(3) - 1.0  # a triangle of -1 entries
    a[0, n - 1] = a[n - 1, 0] = -1.0
    return a


@pytest.mark.parametrize("n", range(3, 7))
def test_cop_negative_vertex_needs_no_sdp_and_no_descent(n, no_sdp, monkeypatch):
    # a negative vertex lies in no K^(r), and Kaplan's scan finds the
    # witness, so the projected-gradient descent never runs
    monkeypatch.setattr(cones, "_project_simplex", None)
    pair = np.eye(n) + 0.1
    pair[0, n - 1] = pair[n - 1, 0] = -1.2
    inputs = [pair, _pm1_with_negative_triangle(n)]
    if n == 5:
        inputs.append(horn_matrix().to_numpy() - 0.2 * np.eye(5))
    for arr in inputs:
        a = SymMatrix(arr)
        assert cones.cop_inner(a) is None
        wit = cop_refute(a)
        assert wit is not None and wit.check_exact(a)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", range(3, 7))
def test_parrilo_negative_vertex_is_refuted_without_an_sdp(n, r, no_sdp):
    rng = np.random.default_rng([n, r, 1])
    shifted = np.abs(rng.normal(size=(n, n)))
    shifted = shifted + shifted.T
    shifted[n - 1, n - 1] = -0.5                       # |S| = 1
    pair = np.eye(n) + 0.1
    pair[0, n - 1] = pair[n - 1, 0] = -1.2             # |S| = 2
    for arr, size in ((shifted, 1), (pair, 2), (_pm1_with_negative_triangle(n), 3)):
        a = SymMatrix(arr)
        res = parrilo_member(a, r)
        _assert_ray_on_dense_rows(a, r, res)
        assert res.ray.max_violation() <= 1e-12
        b = np.array([rhs for _, rhs in sos_gram_assemble(quartic_target(a, r),
                                                          monomials(n, r + 2)).constraints])
        assert float(b @ res.ray.y) == pytest.approx(1.0, rel=1e-12)
        support, value = cones._negative_vertex(arr, 1e-9)
        assert len(support) == size and value < 0.0


@pytest.mark.parametrize("s", [1e9, 1e12, 1e20, 1e308])
def test_parrilo_level0_badly_scaled_psd_nn_input_is_never_refuted(s):
    # [[s, 1], [1, 1]] is PSD and NN; the solver's ray has b^T y = 1 but a
    # violation that a Gram of size s makes up, so it refutes nothing
    try:
        res = parrilo_member(SymMatrix(np.array([[s, 1.0], [1.0, 1.0]])), 0)
    except RuntimeError:
        return
    assert isinstance(res, SosGram)


def test_parrilo_level0_genuine_ray_still_refutes():
    a = SymMatrix(horn_matrix().to_numpy() - 0.2 * np.eye(5))
    res = parrilo_member(a, 0)
    assert isinstance(res, InfeasibilityCert)
    b = np.array([rhs for _, rhs in sos_gram_assemble(quartic_target(a, 0),
                                                      monomials(5, 2)).constraints])
    assert res.ray.max_violation() * np.abs(b).sum() < 0.5 * float(b @ res.ray.y)


@pytest.mark.parametrize("shift", [0.0, 0.2])
def test_parrilo_level0_ray_is_the_dnn_separator_on_the_dense_rows(shift):
    a = SymMatrix(horn_matrix().to_numpy() - shift * np.eye(5))
    res = parrilo_member(a, 0)
    _assert_ray_on_dense_rows(a, 0, res)
    m = res.separator
    assert m.min() >= -1e-9 and np.linalg.eigvalsh(m)[0] >= -1e-9
    assert float((a.to_numpy() * m).sum()) == pytest.approx(-1.0, rel=1e-6)


@pytest.mark.parametrize("seed", [[2, 8], [4, 6]])
def test_parrilo_level0_certifies_rank_one_inputs_the_sos_model_stalled_on(seed):
    # mixed-sign v v^T, PSD on the boundary of SPN: the census inputs
    # default_rng([s, n]) on which the level-0 SOS model once stalled
    a = SymMatrix(_rank_one_mixed(np.random.default_rng(seed), seed[1]))
    res = parrilo_member(a, 0)
    assert isinstance(res, SosGram)
    assert res.check(quartic_target(a, 0), 1e-8)


# PSD + NN, yet in neither summand cone: min entry -1.06, lambda_min -0.36
SPN_MIXED = np.array([[7.42, 1.88, -1.06, 4.02], [1.88, 0.81, 0.84, -0.37],
                      [-1.06, 0.84, 3.36, -0.83], [4.02, -0.37, -0.83, 5.84]])
_D = np.diag([1e6, 1.0, 1.0, 1.0])


def test_spn_mixed_input_splits_at_unit_scale():
    assert cones._summand_split(SPN_MIXED, 1e-9) is None
    pair = spn_decompose(SymMatrix(SPN_MIXED))
    assert isinstance(pair, SpnPair) and pair.check(SPN_MIXED, 1e-9)


def _yes_or_unknown(decide):
    """decide()'s answer, or None when it raises the solver's RuntimeError."""
    try:
        return decide()
    except RuntimeError as exc:
        assert ("does not refute at the input's scale" in str(exc)
                or str(exc).startswith("solver indeterminate"))
        return None


@pytest.mark.parametrize("arr", [1e6 * SPN_MIXED, 1e9 * SPN_MIXED, 1e12 * SPN_MIXED,
                                 _D @ SPN_MIXED @ _D], ids=["1e6", "1e9", "1e12", "DAD"])
def test_level0_rescaled_psd_nn_input_is_never_refuted(arr):
    # at 1e9 A the solver's P + N ray has b^T y = 1 but a violation of
    # 9e-10, which a point of size |b|_1 = 2.6e10 makes up: no refutation
    a = SymMatrix(arr)
    pair = _yes_or_unknown(lambda: spn_decompose(a))
    assert pair is None or (isinstance(pair, SpnPair) and pair.check(arr, 1e-9))
    gram = _yes_or_unknown(lambda: parrilo_member(a, 0))
    assert gram is None or (isinstance(gram, SosGram)
                            and gram.check(quartic_target(a, 0), 1e-8))


def test_negative_vertex_ignores_values_within_tol():
    a = np.eye(3)
    a[0, 1] = a[1, 0] = -1.0 - 0.25e-9   # x = e_0 + e_1 gives -0.5e-9, within tol
    assert cones._negative_vertex(a, 1e-9) is None
    a[0, 1] = a[1, 0] = -1.0 - 1e-6
    assert cones._negative_vertex(a, 1e-9)[0] == (0, 1)


def test_parrilo_monotone_in_level():
    rng = np.random.RandomState(21)
    for _ in range(50):
        n = 4
        g = rng.randn(n, n)
        p = g @ g.T
        nmat = np.abs(rng.randn(n, n))
        nmat = 0.5 * (nmat + nmat.T)
        a = SymMatrix(p + nmat)
        r0 = parrilo_member(a, 0, tol=1e-8)
        assert isinstance(r0, SosGram)
        r1 = parrilo_member(a, 1, tol=1e-7)
        assert isinstance(r1, SosGram)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", range(3, 7))
def test_parrilo_psd_or_nn_input_lifts_its_split_without_an_sdp(n, r, no_sdp):
    rng = np.random.default_rng([n, r])
    g = rng.normal(size=(n, n))
    gram = g @ g.T / n
    nearly_nn = np.abs(gram)
    nearly_nn[0, 1] = nearly_nn[1, 0] = -0.5e-9  # within tol of NN
    for a in (gram, np.abs(gram), _rank_one_mixed(rng, n), nearly_nn):
        m = SymMatrix(a)
        res = parrilo_member(m, r)
        assert isinstance(res, SosGram)
        assert res.basis == monomials(n, r + 2)
        assert res.check(quartic_target(m, r), 1e-9)


def test_parrilo_sum_of_nontrivial_summands_solves_an_sdp_at_level1(sdp_calls):
    a = _psd_plus_nn_in_neither_summand()
    res = parrilo_member(SymMatrix(a), 1, tol=1e-7)
    assert len(sdp_calls) == 1
    assert isinstance(res, SosGram)
    assert res.check(quartic_target(SymMatrix(a), 1), 1e-6)


def test_parrilo_level0_keeps_its_sdp_on_a_psd_input(sdp_calls):
    assert isinstance(parrilo_member(SymMatrix(np.eye(4)), 0), SosGram)
    assert len(sdp_calls) == 1


def test_hierarchy_chain_on_inner_generators():
    rng = np.random.RandomState(22)
    n = 5
    for trial in range(100):
        if trial % 2 == 0:
            b = np.abs(rng.randn(n, n + 2))
            a = b @ b.T  # completely positive
        else:
            g = rng.randn(n, n)
            nn = np.abs(rng.randn(n, n))
            a = g @ g.T + 0.5 * (nn + nn.T)  # PSD + NN
        m = SymMatrix(a)
        ok_spn = isinstance(spn_decompose(m, tol=1e-8), SpnPair)
        assert ok_spn
        if trial % 2 == 0:
            ok_nn, _ = membership_basic(m, "nn", 1e-9)
            ok_dnn, _ = membership_basic(m, "dnn", 1e-8)
            assert ok_nn and ok_dnn
        assert cop_refute(m) is None


# ---------------------------------------------------------------------------
# copositivity refutation
# ---------------------------------------------------------------------------

def test_cop_refute_negative_identity():
    res = cop_refute(SymMatrix(-np.eye(3)))
    assert res is not None
    assert res.check_exact(SymMatrix(-np.eye(3)))
    # the best vertex is a single axis with value -1 after normalization
    assert sum(res.x) == 1


def test_cop_refutation_check_requires_x_in_the_orthant():
    # [[1, 2], [2, 1]] is entrywise nonnegative, hence copositive: x = (1, -1)
    # gives x^T A x = -2 < 0 from outside the orthant and refutes nothing
    for a in (SymMatrix([[1, 2], [2, 1]], "exact"), SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))):
        assert not CopRefutation(x=(Fraction(1), Fraction(-1)), value=Fraction(-2)).check_exact(a)
        assert not CopRefutation(x=(Fraction(0), Fraction(0)), value=Fraction(0)).check_exact(a)
    neg = SymMatrix([[1, -3], [-3, 1]], "exact")
    half = (Fraction(1, 2), Fraction(1, 2))
    assert CopRefutation(x=half, value=QSqrt2.of(-1)).check_exact(neg)


def test_cop_refutation_check_compares_the_stated_value():
    # x^T A x = -1 at x = (1/2, 1/2): a stated value of -5 is false; None
    # states no value, as in a refutation read back from a CLI report
    half = (Fraction(1, 2), Fraction(1, 2))
    for a in (SymMatrix([[1, -3], [-3, 1]], "exact"), SymMatrix(np.array([[1.0, -3.0], [-3.0, 1.0]]))):
        assert not CopRefutation(x=half, value=Fraction(-5)).check_exact(a)
        assert CopRefutation(x=half, value=Fraction(-1)).check_exact(a)
        assert CopRefutation(x=half, value=None).check_exact(a)


def test_cop_refute_horn_finds_nothing():
    assert cop_refute(horn_matrix()) is None


def test_cop_refute_reference_c_finds_nothing():
    assert cop_refute(load_reference_c()) is None


def test_cop_refute_witness_exactly_negative():
    rng = np.random.RandomState(23)
    found = 0
    for trial in range(10):
        a = rng.randn(4, 4)
        a = 0.5 * (a + a.T)
        a[0, 0] = -abs(a[0, 0]) - 0.5  # guarantees refutability at e_1
        m = SymMatrix(a)
        res = cop_refute(m)
        assert res is not None
        assert res.check_exact(m)
        found += 1
    assert found == 10


def test_cop_refute_exact_matrix_witness_exact_arithmetic():
    m = SymMatrix([[1, -3], [-3, 1]], "exact")
    res = cop_refute(m)
    assert res is not None
    assert res.check_exact(m)
    assert isinstance(res.value, QSqrt2)
    assert res.value.sign() < 0


def _t_matrix(psi):
    """Hildebrand's T(psi) at n = 5: the first row is (1, -cos psi4,
    cos(psi4 + psi5), cos(psi2 + psi3), -cos psi3), and row i is row 0 with
    the indices of psi and the columns shifted by i; T(0) is Horn's."""
    t = np.eye(5)
    for i in range(5):
        p = np.roll(psi, -i)  # p[k] is psi_{k + 1 + i}, cyclically
        row = (-np.cos(p[3]), np.cos(p[3] + p[4]), np.cos(p[1] + p[2]), -np.cos(p[2]))
        for off, v in enumerate(row, 1):
            t[i, (i + off) % 5] = v
    return t


def test_t_matrix_at_zero_is_horn_and_symmetric():
    assert np.array_equal(_t_matrix(np.zeros(5)), horn_matrix().to_numpy())
    t = _t_matrix(np.random.default_rng(0).dirichlet(np.ones(6))[:5] * np.pi)
    assert np.array_equal(t, t.T)


def test_cop_refute_shifted_t_matrices_without_an_sdp(no_sdp):
    # T(psi) is copositive with zeros on consecutive triples, so
    # D (T(psi) - 1e-3 I) D is not copositive for a positive diagonal D
    rng = np.random.default_rng(2305)
    for _ in range(8):
        psi = rng.dirichlet(np.ones(6))[:5] * np.pi  # psi > 0, sum < pi
        d = np.diag(np.exp(rng.uniform(-1.0, 1.0, 5)))
        a = SymMatrix(d @ (_t_matrix(psi) - 1e-3 * np.eye(5)) @ d)
        res = cop_refute(a)
        assert res is not None and res.check_exact(a)
        assert all(t >= 0 for t in res.x) and sum(res.x) == 1


def test_cop_witness_is_an_exact_point_of_the_simplex():
    # the rounded coordinates of a witness sum to exactly 1: on the shifted
    # T-matrix of the CI step, whose coordinates rounded one by one summed
    # to 1 + 3.1e-12, and on Kaplan witnesses just outside the cop section
    # along seeded rays at n = 4..8
    inputs = [T_SHIFTED]
    for n in range(4, 9):
        spec = SectionSpec(cone="cop", n=n)
        dirs = np.random.RandomState(n).standard_normal((10, spec.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        t = section_radii(spec, dirs)
        inputs.extend(spec._center_mat + (1 + 1e-6) * t[:, None, None]
                      * volume._direction_matrices(spec, dirs))
    for arr in inputs:
        a = SymMatrix(arr)
        res = cop_refute(a)
        assert res is not None and res.check_exact(a)
        assert all(isinstance(t, Fraction) and t >= 0 for t in res.x) and sum(res.x) == 1


def test_cop_size_one_witness_builds_no_larger_support(monkeypatch):
    # a negative diagonal entry refutes at size 1; at n = 12 the 4095
    # supports of the larger sizes are never built
    built = []
    monkeypatch.setattr(cones, "combinations",
                        lambda items, k: built.append(k) or itertools.combinations(items, k))
    a = np.eye(12)
    a[7, 7] = -1.0
    res = cop_refute(SymMatrix(a))
    assert res is not None and res.x == tuple(Fraction(int(i == 7)) for i in range(12))
    assert built == [1]


def test_cop_refute_decides_the_horn_orbit_without_an_sdp(no_sdp):
    # D P H P^T D is copositive with zeros, so it gets None; shifted by
    # -delta I it is not copositive and gets an exact witness
    rng = np.random.default_rng(2325)
    h = horn_matrix().to_numpy()
    for _ in range(20):
        p = rng.permutation(5)
        d = np.diag(np.exp(rng.uniform(-1.0, 1.0, 5)))
        ph = h[np.ix_(p, p)]
        assert cop_refute(SymMatrix(d @ ph @ d)) is None
        a = SymMatrix(d @ (ph - 1e-3 * np.eye(5)) @ d)
        res = cop_refute(a)
        assert res is not None and res.check_exact(a)
        assert all(t >= 0 for t in res.x) and sum(res.x) == 1


def _kaplan_by_loops(a):
    """Kaplan's minimum, support by support: the smallest eigenvalue of a
    principal submatrix whose eigenvector is strictly one-signed."""
    n = len(a)
    low = np.inf
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            mu, vec = np.linalg.eigh(a[np.ix_(sup, sup)])
            for k in range(size):
                if np.all(vec[:, k] > 0) or np.all(vec[:, k] < 0):
                    low = min(low, mu[k])
    return low


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cop_refute_answers_none_exactly_when_kaplan_does(n):
    rng = np.random.default_rng([n, 7])
    for _ in range(20):
        a = rng.normal(size=(n, n)) + 1.5
        a = 0.5 * (a + a.T)
        res = cop_refute(SymMatrix(a))
        assert (res is None) == (_kaplan_by_loops(a) >= -1e-9 * (1.0 + np.abs(a).max()))
        if res is not None:
            assert res.check_exact(SymMatrix(a)) and all(t >= 0 for t in res.x)


@pytest.mark.parametrize("n", [5, 6])
def test_cop_refute_ends_where_the_cop_section_does(n):
    # the refuter and vrad's exact cop radius t* agree on where COP ends:
    # a witness just outside t*, none just inside
    spec = SectionSpec(cone="cop", n=n)
    dirs = np.random.RandomState(n).standard_normal((50, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for t, d_mat in zip(section_radii(spec, dirs), volume._direction_matrices(spec, dirs)):
        outside = SymMatrix(spec._center_mat + (1 + 1e-6) * t * d_mat)
        res = cop_refute(outside)
        assert res is not None and res.check_exact(outside) and all(x >= 0 for x in res.x)
        assert cop_refute(SymMatrix(spec._center_mat + (1 - 1e-6) * t * d_mat)) is None


def test_cop_refute_above_n12_descends_without_kaplan(monkeypatch):
    # the leading 8 x 8 block 6.5 I - (J - I) is negative only at supports
    # of 7 and 8, so no 0/1 vertex refutes and only the descent can
    a = np.eye(13) + 0.3
    a[:8, :8] = 6.5 * np.eye(8) - (np.ones((8, 8)) - np.eye(8))
    assert cones._negative_vertex(a, 1e-9) is None
    monkeypatch.setattr(cones, "_kaplan_eigh", None)
    res = cop_refute(SymMatrix(a))
    assert res is not None and res.check_exact(SymMatrix(a)) and all(t >= 0 for t in res.x)


# ---------------------------------------------------------------------------
# complete positivity refutation
# ---------------------------------------------------------------------------

def test_cp_refute_reference_a5(no_sdp):
    # <A5, H> = -1/20, so the Horn orbit refutes at level 1 without an SDP
    for a5 in (load_reference_a5(), SymMatrix(load_reference_a5().to_numpy())):
        res = cp_refute(a5, r=1)
        arr = a5.to_numpy()
        assert isinstance(res, CpRefutation) and res.level == 1
        assert res.pairing == float((arr * res.m).sum())
        assert abs(res.pairing + 1 / 200) <= 1e-12  # <A5, H> / 10
        assert any((res.m * 10 == m).all() for m in cones._horn_orbit())
        # the separator carries its own hierarchy certificate
        assert isinstance(res.certificate, SosGram) and res.certificate.basis == monomials(5, 3)
        target = {k: float(v) for k, v in quartic_target(SymMatrix(res.m), 1).items()}
        assert res.certificate.check(target, 1e-12)


def test_cp_refute_all_ones_none():
    assert cp_refute(SymMatrix(np.ones((5, 5))), r=1) is None


def test_cp_refute_identity_none():
    assert cp_refute(SymMatrix(np.eye(5)), r=1) is None


def test_cp_refute_level0_dnn_input_none():
    # any doubly nonnegative matrix pairs nonnegatively with PSD + NN
    a5 = SymMatrix(load_reference_a5().to_numpy())
    assert cp_refute(a5, r=0) is None


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("i, j", [(0, 2), (1, 1)])
def test_cp_refute_negative_entry_needs_no_sdp(r, i, j, no_sdp):
    a = np.eye(4) + np.ones((4, 4)) / 4
    a[i, j] = a[j, i] = -0.7
    res = cp_refute(SymMatrix(a), r=r)
    assert isinstance(res, CpRefutation)
    assert res.level == 0
    m = res.m
    assert m.min() >= 0.0
    assert float((m * (np.eye(4) + np.ones((4, 4)))).sum()) == 1.0
    assert res.pairing == float((a * m).sum()) < 0.0
    assert isinstance(res.certificate, SpnPair)
    assert res.certificate.check(m, 1e-9)
    assert SpnPair(np.zeros((4, 4)), m).check(m, 1e-9)


@pytest.mark.parametrize("r", [0, 1])
def test_cp_refute_negative_entry_within_threshold_goes_to_the_sdp(r, sdp_calls):
    a = np.eye(5) + np.ones((5, 5)) / 5
    a[1, 3] = a[3, 1] = -1e-12
    assert cp_refute(SymMatrix(a), r=r) is None
    # level 0 takes its PSD minimum in closed form; only level 1 solves an SDP
    assert len(sdp_calls) == r


def test_cp_refute_level0_psd_separator_needs_no_sdp(no_sdp):
    # nonnegative but not PSD: no NN vertex refutes, the PSD slice does
    a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = cp_refute(SymMatrix(a), r=0)
    assert isinstance(res, CpRefutation) and res.level == 0
    m = res.m
    assert res.pairing == float((a * m).sum()) < 0.0
    assert abs(float((m * (np.eye(3) + np.ones((3, 3)))).sum()) - 1.0) <= 1e-12
    assert isinstance(res.certificate, SpnPair) and res.certificate.check(m, 1e-9)
    # the closed form is the minimum over the PSD slice: lambda_min(L^-1 A L^-T)
    lower = np.linalg.cholesky(np.eye(3) + np.ones((3, 3)))
    w = np.linalg.inv(lower) @ a @ np.linalg.inv(lower).T
    assert abs(res.pairing - np.linalg.eigvalsh(w)[0]) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cp_refute_level0_matches_the_psd_plus_nn_sdp(n):
    # the hull of the PSD and NN slices is the slice of PSD + NN: the closed
    # form agrees with the SDP over M = P + N, <P + N, I + J> = 1
    rng = np.random.RandomState(40 + n)
    for _ in range(4):
        b = rng.rand(n, n)
        a = b + b.T  # nonnegative, so no NN vertex refutes it
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        prob = SdpProblem(psd_block_dims=[n], nonneg_dim=len(pairs))
        norm, obj = LinExpr(), LinExpr()
        for k, (i, j) in enumerate(pairs):
            w = 1.0 if i == j else 2.0
            norm.add_psd_entry(0, i, j, 2.0).add_nonneg(k, 2.0)
            obj.add_psd_entry(0, i, j, w * a[i, j]).add_nonneg(k, w * a[i, j])
        prob.constraints.append((norm, 1.0))
        prob.objective = obj
        sol = sdp_solve(prob, tol=1e-9)
        assert sol.status == SdpStatus.OPTIMAL
        res = cp_refute(SymMatrix(a), r=0)
        if res is None:
            assert sol.objective_value >= -1e-6
        else:
            assert abs(res.pairing - sol.objective_value) <= 1e-6


def _small_cp_inputs(n):
    # doubly nonnegative, nonnegative but not PSD, and mixed-sign
    b = np.abs(np.random.RandomState(n).randn(n + 2, n))
    nn_not_psd = np.eye(n)
    nn_not_psd[:3, :3] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    mixed = np.eye(n) + 0.1
    mixed[0, 1] = mixed[1, 0] = -0.3
    return {"dnn": b.T @ b, "nn-not-psd": nn_not_psd, "mixed": mixed}


@pytest.mark.parametrize("n", [3, 4])
def test_cp_refute_level1_at_small_n_needs_no_sdp(n, no_sdp):
    # for n <= 4, K^(1) = K^(0) = COP (Diananda), so level 1 is the closed form
    for kind, a in _small_cp_inputs(n).items():
        res = cp_refute(SymMatrix(a), r=1)
        if kind == "dnn":
            assert res is None
            continue
        assert isinstance(res, CpRefutation) and res.level == 0, kind
        assert isinstance(res.certificate, SpnPair) and res.certificate.check(res.m, 1e-9)
        assert res.pairing == float((a * res.m).sum()) < 0.0
        assert res.pairing == cp_refute(SymMatrix(a), r=0).pairing


def _level1_sdp_minimum(a):
    # the reference: min <A, M> over M in K^(1) with <M, I + J> = 1
    n = a.shape[0]
    prob, _ = cones.kr_problem(n, 1)
    prob.constraints.append((cones._pairing_expr(np.eye(n) + 1.0), 1.0))
    prob.objective = cones._pairing_expr(a)
    sol = sdp_solve(prob, tol=1e-9)
    assert sol.status == SdpStatus.OPTIMAL
    return sol.objective_value


@pytest.mark.parametrize("n", [3, 4])
def test_cp_refute_level1_at_small_n_matches_the_level1_sdp(n):
    rng = np.random.RandomState(60 + n)
    refuted = 0
    for _ in range(10):
        b = rng.rand(n, n)
        a = b + b.T + rng.uniform(0.0, 1.5) * np.eye(n)  # no NN vertex refutes it
        res = cp_refute(SymMatrix(a), r=1)
        value = _level1_sdp_minimum(a)
        if res is None:
            assert value >= -cones._cp_threshold(a, 1e-8)
        else:
            assert abs(res.pairing - value) <= 1e-6
            refuted += 1
    assert 0 < refuted < 10


@pytest.mark.parametrize("n", [5, 6])
def test_cp_refute_psd_slice_refutes_at_level1_above_n4(n, no_sdp):
    # nonnegative but not PSD: at r = 1 the PSD slice of K^(0), which lies
    # inside K^(1), refutes in closed form before the peel or the SDP
    b = np.random.RandomState(80 + n).rand(n, n)
    lower = np.linalg.cholesky(np.eye(n) + np.ones((n, n)))
    linv = np.linalg.inv(lower)
    for kind, a in [("b + b^T", b + b.T), ("nn-not-psd", _small_cp_inputs(n)["nn-not-psd"])]:
        res = cp_refute(SymMatrix(a), r=1)
        assert isinstance(res, CpRefutation) and res.level == 0, kind
        assert isinstance(res.certificate, SpnPair) and res.certificate.check(res.m, 1e-9)
        assert res.pairing == float((a * res.m).sum()) < 0.0
        assert abs(res.pairing - np.linalg.eigvalsh(linv @ a @ linv.T)[0]) <= 1e-12
        assert res.pairing == cp_refute(SymMatrix(a), r=0).pairing
        assert _level1_sdp_minimum(a) <= res.pairing + 1e-6


def _bbt(rng, n):
    b = rng.rand(n, n + 1)
    return b @ b.T


def _peel_rebuild(a, pivots):
    """Re-check a peel certificate exactly, apart from _cp_peel: subtract the
    nonnegative rank one of each pivot in turn; what is left must be a
    nonnegative PSD block of order <= 4 (or zero) on the unpeeled indices."""
    n = a.shape[0]
    rest = [[Fraction(v) for v in row] for row in a.tolist()]
    for p in pivots:
        col = [rest[i][p] for i in range(n)]
        assert col[p] > 0 and min(col) >= 0
        rest = [[rest[i][j] - col[i] * col[j] / col[p] for j in range(n)] for i in range(n)]
    keep = [i for i in range(n) if i not in pivots]
    block = [[rest[i][j] for j in keep] for i in keep]
    assert all(rest[i][j] == 0 for i in range(n) for j in range(n)
               if i in pivots or j in pivots)
    assert min(min(row) for row in block) >= 0
    assert len(keep) <= 4 or not any(map(any, block))
    assert isinstance(exact_ldl_psd(SymMatrix(block, "exact")), PivotList)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cp_peel_certificate_rebuilds_the_input_exactly(n, no_sdp):
    rng = np.random.RandomState(90 + n)
    certified = 0
    for _ in range(10):
        a = _bbt(rng, n)
        pivots = cones._cp_peel(a)
        if pivots is None:
            continue
        certified += 1
        assert len(set(pivots)) == len(pivots) >= n - 4
        _peel_rebuild(a, pivots)
        assert cp_refute(SymMatrix(a), r=1) is None
    assert certified >= 5


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cp_refute_boundary_cp_inputs_need_no_sdp(n, no_sdp):
    # I, J (rank one, peeled to a zero block) and I + J/5 are CP
    for a in (np.eye(n), np.ones((n, n)), np.eye(n) + np.ones((n, n)) / 5):
        pivots = cones._cp_peel(a)
        assert pivots is not None
        _peel_rebuild(a, pivots)
        assert cp_refute(SymMatrix(a), r=1) is None


def test_cp_peel_never_certifies_a_dnn_matrix_that_horn_separates():
    # H is copositive, so <A, H> < 0 proves A is not CP
    h = horn_matrix().to_numpy()
    a5 = load_reference_a5().to_numpy()
    inputs = [a5, construct_ednn(Fraction(1, 20), 12, 6).a5.to_numpy()]
    rng = np.random.RandomState(7)
    for _ in range(20):
        a = a5 + rng.uniform(0.0, 0.003) * _bbt(rng, 5) + rng.uniform(0.0, 0.002) * np.eye(5)
        inputs.append(a)
    for a in inputs:
        assert (a * h).sum() < 0.0
        assert a.min() >= 0.0 and np.linalg.eigvalsh(a)[0] > 0.0
        assert cones._cp_peel(a) is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cp_peel_refuses_inputs_outside_dnn(n):
    # a negative entry far below the float screen's slack, and nonnegative
    # inputs that are not PSD (each of the latter has a pivot whose S >= 0)
    tiny = np.eye(n)
    tiny[0, 1] = tiny[1, 0] = -1e-300
    b = np.random.RandomState(n).rand(n, n)
    for a in (tiny, _small_cp_inputs(n)["nn-not-psd"], b + b.T):
        assert cones._cp_peel(a) is None


def test_exact_schur_refuses_a_negative_entry_below_float_resolution():
    # S_13 = (1 - 2^-50) - 1 * 1 / 1 = -2^-50: the float screen lets it
    # through, the exact step does not
    a = np.eye(5) + np.diag([0.0, 1.0, 0.0, 1.0, 0.0])
    a[0, 1] = a[1, 0] = a[0, 3] = a[3, 0] = 1.0
    a[1, 3] = a[3, 1] = 1.0 - 2.0 ** -50
    block = [[Fraction(v) for v in row] for row in a.tolist()]
    assert cones._exact_schur(block, 0) is None
    s = cones._exact_schur(block, 2)
    assert s == [[block[i][j] for j in (0, 1, 3, 4)] for i in (0, 1, 3, 4)]


def test_cp_peel_certified_inputs_have_a_nonnegative_level1_minimum():
    rng = np.random.RandomState(5)
    certified = []
    while len(certified) < 10:
        a = _bbt(rng, 5)
        if cones._cp_peel(a) is not None:
            certified.append(a)
    for a in certified:
        assert _level1_sdp_minimum(a) >= -cones._cp_threshold(a, 1e-8)


def test_horn_orbit_grams_rebuild_the_level1_target_exactly():
    # Parrilo's identity, one integer Gram per distinct P H P^T: it rebuilds
    # (sum x_i^2) q_M coefficient for coefficient and is PSD exactly
    orbit = cones._horn_orbit()
    h = horn_matrix().to_numpy()
    perms = {np.asarray(h[np.ix_(p, p)], dtype=np.int64).tobytes()
             for p in itertools.permutations(range(5))}
    assert orbit.shape == (12, 5, 5) and {m.tobytes() for m in orbit} == perms
    basis = monomials(5, 3)
    for k, m in enumerate(orbit):
        assert int((m * (np.eye(5) + 1)).sum()) == 10
        triples = [t for t in itertools.combinations(range(5), 3)
                   if sum(m[a, b] < 0 for a, b in itertools.combinations(t, 2)) == 1]
        assert len(triples) == 5
        gram = cones._horn_gram(k)
        assert gram.dtype == np.int64 and (gram == gram.T).all()
        got = {g: int(v) for g, v in gram_form_coeffs(basis, gram).items() if v != 0}
        assert got == quartic_target(SymMatrix(m.tolist(), "exact"), 1)
        assert isinstance(exact_ldl_psd(SymMatrix(gram.tolist(), "exact")), PivotList)


def test_construct_ednn_solves_only_its_bootstrap_sdp(monkeypatch):
    # its non-CP check is the Horn orbit's, so cp_refute solves no SDP
    solved = []

    def spy(module):
        def call(prob, **kwargs):
            solved.append(module.__name__)
            return sdp_solve(prob, **kwargs)
        monkeypatch.setattr(module, "sdp_solve", call)
    spy(exceptional)
    spy(cones)
    res = construct_ednn(Fraction(1, 20), 12, 6)
    assert abs(res.horn_pairing + 0.05) <= 1e-6
    assert solved == ["coposlab.exceptional"]


def test_horn_step_refutes_no_seeded_bbt():
    # B B^T is CP, so no element of K^(1) pairs negatively with it
    rng = np.random.RandomState(11)
    for _ in range(300):
        assert cones._horn_refutation(_bbt(rng, 5), 1e-8) is None


def _horn_refuted_inputs():
    a5 = load_reference_a5().to_numpy()
    rng = np.random.RandomState(13)
    inputs = [a5, construct_ednn(Fraction(1, 20), 12, 6).a5.to_numpy()]
    for _ in range(3):
        p = rng.permutation(5)
        a = a5 + rng.uniform(0.0, 0.003) * _bbt(rng, 5) + rng.uniform(0.0, 0.002) * np.eye(5)
        inputs.append(a[np.ix_(p, p)])
    return inputs


def test_horn_step_refutations_are_bounded_by_the_level1_sdp():
    # P H P^T / 10 is a feasible point of the SDP, so its minimum is lower
    for a in _horn_refuted_inputs():
        res = cones._horn_refutation(a, 1e-8)
        assert isinstance(res, CpRefutation) and res.pairing < 0.0
        assert _level1_sdp_minimum(a) <= res.pairing + 1e-6


def test_dnn_input_the_horn_orbit_and_peel_refuse_reaches_the_sdp(sdp_calls):
    # A5 + I / 50: every orbit pairing is >= 0.05, the peel finds no proof,
    # and the SDP still refutes with a separator outside the Horn orbit
    a = load_reference_a5().to_numpy() + 0.02 * np.eye(5)
    assert np.einsum("kij,ij->k", cones._horn_orbit(), a).min() >= 0.0
    assert cones._horn_refutation(a, 1e-8) is None and cones._cp_peel(a) is None
    res = cp_refute(SymMatrix(a), r=1)
    assert len(sdp_calls) == 1
    assert isinstance(res, CpRefutation) and res.level == 1 and res.pairing < 0.0


def test_horn_step_is_kept_to_n5(no_sdp, monkeypatch):
    # H (+) 0 is not in K^(1), so at n = 6 cp_refute goes from the peel to
    # the SDP without the orbit
    def fail(*args):
        raise AssertionError("Horn orbit tried")
    monkeypatch.setattr(cones, "_horn_refutation", fail)
    a = np.zeros((6, 6))
    a[:5, :5] = load_reference_a5().to_numpy()
    a[5, 5] = 1.0
    with pytest.raises(AssertionError, match="an SDP was solved"):
        cp_refute(SymMatrix(a), r=1)


def test_cop_inner_at_n4_stops_after_level0(sdp_calls):
    # not copositive (x = (2, 1, 0, 0) gives -0.8) and no negative vertex, so
    # level 0 solves its SDP and fails; at n = 4 level 1 cannot do better
    a = np.array([[1.0, -2.2, 0.5, 0.5], [-2.2, 4.0, 0.5, 0.5],
                  [0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.5, 1.0]])
    assert cones._negative_vertex(a, 1e-9) is None
    x = np.array([2.0, 1.0, 0.0, 0.0])
    assert x @ a @ x < -0.79
    assert cones.cop_inner(SymMatrix(a)) is None
    assert len(sdp_calls) == 1


# ---------------------------------------------------------------------------
# Frobenius pairing
# ---------------------------------------------------------------------------

def test_frobenius_identity_with_horn():
    eye5 = SymMatrix([[int(i == j) for j in range(5)] for i in range(5)], "exact")
    val = frobenius(eye5, horn_matrix())
    assert val == 5


def test_frobenius_zero():
    z = SymMatrix([[0] * 4 for _ in range(4)], "exact")
    eye4 = SymMatrix([[int(i == j) for j in range(4)] for i in range(4)], "exact")
    assert frobenius(z, eye4) == 0


def test_frobenius_reference_pairing_exact():
    val = frobenius(load_reference_a5(), horn_matrix())
    assert isinstance(val, QSqrt2)
    assert val == Fraction(-1, 20)
    assert val.sign() < 0


def test_frobenius_dimension_mismatch():
    with pytest.raises(ValueError):
        frobenius(SymMatrix([[int(i == j) for j in range(3)] for i in range(3)], "exact"),
                  horn_matrix())
