import math
import warnings
from fractions import Fraction
from itertools import combinations
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

from coposlab import cones, volume
from coposlab.cones import (SpnPair, cop_refute, cp_refute, horn_matrix, membership_basic,
                            spn_decompose)
from coposlab.exceptional import load_reference_a5
from coposlab.numerics import SymMatrix
from coposlab.quartic import coeff_vector, sphere_moment
from coposlab.volume import RadialError, SectionSpec, radial, section_radii, vrad_mc
from test_cones import _t_matrix

CLOSED_FORM = [("nn", 5, None), ("psd", 5, None), ("dnn", 5, None), ("cp", 4, "exact"),
               ("cp", 5, "inner"), ("lf", 4, "outer"), ("ball", 5, None),
               ("cop", 3, "exact"), ("cop", 4, "exact"), ("cop", 5, None), ("cop", 6, None)]
# the sections whose radius is one SDP, one LP or a Kaplan radius with an
# SDP fallback a ray
PARAMETRIC = [("cp", 5, "outer"), ("spn", 4, None), ("lf", 3, "inner")]


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    dirs = np.random.RandomState(seed).standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def _bisect(spec, g: np.ndarray, bisect_tol: float) -> float:
    """The reference radius: bracket doubling plus bisection to
    `bisect_tol` on the membership oracle of `spec`, a section or a
    duck-typed one such as `_reference` (the section is convex)."""
    c = spec.star_center
    hi = 1.0
    lo = 0.0
    while spec.membership(c + hi * g):
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise RadialError("no bracket found within 1e6")
    while hi - lo > bisect_tol * hi:
        mid = 0.5 * (lo + hi)
        if spec.membership(c + mid * g):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference(spec, tol: float = 1e-12):
    """The section as a duck-typed spec whose membership decides the point
    apart from volume.py's radii: by cones' own deciders where the cone has
    one, by a numpy or LP test of the section's definition otherwise.

    nn, psd, dnn and cp exact (CP = DNN at n <= 4) take `membership_basic`,
    cop `cop_refute`; spn and cp outer keep the rules of the P + N split
    and of the K^(1) separator at tol 1e-8, an undecided spn solve counting
    as outside and an undecided cp one as inside.  cp inner tests its face
    rows, lf outer the apolar pairings with its sampled nonnegative forms,
    lf inner the LP of its generators' conic hull, and the ball the norm.
    """
    n, cone, mode = spec.n, spec.cone, spec.mode
    if cone == "ball":
        return SimpleNamespace(star_center=spec.star_center,
                               membership=lambda g: np.linalg.norm(g) <= spec.ball_radius + tol)
    if cone in ("nn", "psd", "dnn") or (cone, mode) == ("cp", "exact"):
        def member(a):
            return membership_basic(SymMatrix(a), "dnn" if cone == "cp" else cone, tol)[0]
    elif cone == "cop":
        def member(a):
            return cop_refute(SymMatrix(a), tol) is None
    elif cone == "spn":
        def member(a):
            try:
                return isinstance(spn_decompose(SymMatrix(a), tol=1e-8), SpnPair)
            except RuntimeError:
                return False
    elif (cone, mode) == ("cp", "outer"):
        def member(a):
            if not membership_basic(SymMatrix(a), "dnn", tol)[0]:
                return False
            try:
                return cp_refute(SymMatrix(a), r=1, tol=1e-8) is None
            except RuntimeError:
                return True
    elif cone == "cp":  # inner: a >= 0 entrywise and diagonally dominant
        def member(a):
            return a.min() >= -tol and (2.0 * np.diag(a) - a.sum(axis=1)).min() >= -tol
    elif mode == "outer":  # lf: apolar pairing 8 sum a_ij p_ij + 16 sum a_ii p_ii >= 0
        forms = np.array(volume._pos_samples(n, max(64, spec.generator_count // 4), spec.seed + 1))
        diag = np.arange(n)

        def member(a):
            pair = 8.0 * np.einsum("ij,kij->k", a, forms) + 16.0 * forms[:, diag, diag] @ np.diag(a)
            return pair.min() >= -tol
    else:  # lf inner: q_A in the conic hull of the generators
        from scipy.optimize import linprog
        gens = volume.lf_generators(n, spec.generator_count, spec.seed)
        cols = np.array([coeff_vector(m, n) for m in gens]).T

        def member(a):
            return linprog(np.zeros(cols.shape[1]), A_eq=cols, b_eq=coeff_vector(a, n),
                           bounds=(0, None), method="highs").status == 0
    return SimpleNamespace(star_center=spec.star_center,
                           membership=lambda g: member(spec.matrix_of(g)))


def _average_one(a: np.ndarray) -> np.ndarray:
    # the sphere average of sum a_ij x_i^2 x_j^2 is (2 tr a + sum a) / (n (n + 2))
    n = len(a)
    return a * n * (n + 2) / (2.0 * np.trace(a) + a.sum())


def _toward(spec, a: np.ndarray):
    """The unit direction from the star center toward the section point of
    a, and the distance to it."""
    d = spec.coords_of(a) - spec.star_center
    return d / np.linalg.norm(d), float(np.linalg.norm(d))


@pytest.mark.parametrize("cone,n,mode", CLOSED_FORM)
def test_closed_form_radii_match_bisection(cone, n, mode):
    # bisection on a decider apart from the radius, at the tight tolerance
    # 1e-12 that makes it the exact reference
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    dirs = unit_directions(spec.dim, 50, seed=11)
    fast = section_radii(spec, dirs)
    reference = _reference(spec)
    ref = np.array([_bisect(reference, g, 1e-9) for g in dirs])
    assert np.all(np.abs(fast - ref) <= 1e-8 * ref)


@pytest.mark.parametrize("cone,n,mode", CLOSED_FORM + PARAMETRIC)
def test_stacked_radii_equal_one_by_one(cone, n, mode):
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    dirs = unit_directions(spec.dim, 37, seed=5)
    one_by_one = np.array([radial(spec, g) for g in dirs])
    assert np.array_equal(section_radii(spec, dirs), one_by_one)


def test_ball_estimate_is_the_radius():
    spec = SectionSpec(cone="ball", n=5, ball_radius=1.7)
    est = vrad_mc(spec, 500, seed=3)
    assert abs(est.point_estimate - 1.7) <= 1e-12
    assert est.ci_low <= est.point_estimate <= est.ci_high
    assert est.ci_high - est.ci_low <= 1e-12 * 1.7


def test_unnormalized_direction_is_rejected():
    spec = SectionSpec(cone="psd", n=3)
    with pytest.raises(ValueError):
        section_radii(spec, 2.0 * unit_directions(spec.dim, 3, seed=0))


@pytest.mark.parametrize("cone,n,mode", CLOSED_FORM + PARAMETRIC)
def test_closed_form_membership_agrees_with_the_radius(cone, n, mode):
    # membership is the radius's rule, and the independent decider agrees
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    reference = _reference(spec)
    for g in unit_directions(spec.dim, 3, seed=2):
        r = section_radii(spec, g[None, :])[0]
        for section in (spec, reference):
            assert section.membership(spec.star_center + 0.999 * r * g)
            assert not section.membership(spec.star_center + 1.001 * r * g)


@pytest.mark.parametrize("cone,n,mode,kwargs", [
    ("psd", 4, None, {}),                            # closed form, in blocks
    ("lf", 3, "inner", {"generator_count": 16}),     # one LP a ray
    ("spn", 4, None, {}),                            # stacked SDPs, in blocks
])
def test_vrad_mc_is_deterministic(cone, n, mode, kwargs):
    spec = SectionSpec(cone=cone, n=n, mode=mode, **kwargs)
    out = [vrad_mc(spec, 100, seed=4, bisect_tol=1e-2).to_json_dict() for _ in range(2)]
    assert out[0] == out[1]


def test_stacked_parametric_radii_equal_one_by_one():
    spec = SectionSpec(cone="spn", n=4)
    dirs = unit_directions(spec.dim, 23, seed=6)
    stacked = volume._radial_spn(spec, volume._direction_matrices(spec, dirs))
    assert np.array_equal(stacked, np.array([radial(spec, g) for g in dirs]))


def test_parametric_radii_match_bisection():
    spec = SectionSpec(cone="spn", n=4)
    reference = _reference(spec)
    for g in unit_directions(spec.dim, 5, seed=12):
        ref = _bisect(reference, g, 1e-7)
        assert abs(radial(spec, g) - ref) <= 1e-6 * ref


def test_boundary_bisection_emits_no_runtime_warning():
    # the tight bisection on the P + N split, with warnings raised as
    # errors, meets the exact radius (Kaplan's COP radius, SPN = COP at
    # n = 4) to within the SDP oracle's tolerance, a few 1e-8; its last bits
    # follow the solver's rounding near the boundary, so they are not pinned
    spec = SectionSpec(cone="spn", n=4)
    reference = _reference(spec)
    dirs = unit_directions(spec.dim, 5, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([_bisect(reference, g, 1e-9) for g in dirs])
    exact = section_radii(spec, dirs)
    assert np.all(np.abs(got - exact) <= 1e-7 * exact)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cop_closed_form_brackets_the_pn_sdp(n):
    # the SDP's primal point is feasible and SPN lies in COP, so it can only
    # under-report; at n <= 4, where SPN = COP, it meets Kaplan's radius
    spec = SectionSpec(cone="cop", n=n)
    dirs = unit_directions(spec.dim, 200, seed=21)
    fast = section_radii(spec, dirs)
    sdp = volume._radial_spn_sdp(spec, volume._direction_matrices(spec, dirs))
    assert np.all(sdp <= fast * (1 + 1e-9))
    if n <= 4:
        assert np.all(fast <= sdp * (1 + 1e-6))


def _one_signed_witness(a):
    """Kaplan's scan, apart from `volume._kaplan_min`: over the principal
    submatrices a_S, the eigenvector of the most negative eigenvalue that
    has a strictly one-signed eigenvector, made positive and padded with
    zeros off S; None when no such eigenvalue is negative."""
    n = len(a)
    best, low = None, 0.0
    for size in range(1, n + 1):
        for sup in combinations(range(n), size):
            mu, vec = np.linalg.eigh(a[np.ix_(sup, sup)])
            for k in np.flatnonzero(mu < low):
                v = vec[:, k] * np.sign(vec[0, k])
                if np.all(v > 0):
                    best, low = np.zeros(n), mu[k]
                    best[list(sup)] = v
    return best


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cop_radius_is_bracketed_by_an_exact_witness(n):
    # just inside the radius no support refutes; just outside, the binding
    # support's one-signed eigenvector is a rational x >= 0 with x^T A x < 0
    spec = SectionSpec(cone="cop", n=n)
    dirs = unit_directions(spec.dim, 50, seed=22)
    t = section_radii(spec, dirs)
    for r, d_mat in zip(t, volume._direction_matrices(spec, dirs)):
        assert _one_signed_witness(spec._center_mat + (1 - 1e-6) * r * d_mat) is None
        a = spec._center_mat + (1 + 1e-6) * r * d_mat
        cert = cones._exact_witness(SymMatrix(a), _one_signed_witness(a))
        assert cert is not None and cert.check_exact(SymMatrix(a))
        assert all(x >= 0 for x in cert.x)


def test_cop_radius_lies_between_the_bisected_hierarchy_and_refuter():
    # the bisecting modes that Kaplan's radius replaced, as duck-typed
    # sections: K^(1) membership from inside, the multistart refuter from
    # outside
    spec = SectionSpec(cone="cop", n=5)
    dirs = unit_directions(spec.dim, 2, seed=31)
    t = section_radii(spec, dirs)
    tol = 1e-6
    oracles = {"inner": lambda a: cones.cop_inner(a, spec.oracle_tol) is not None,
               "outer": lambda a: cones._simplex_descent(a.to_numpy())[1] >= -1e-9}
    got = {}
    for mode, member in oracles.items():
        section = SimpleNamespace(star_center=spec.star_center,
                                  membership=lambda g: member(SymMatrix(spec.matrix_of(g))))
        got[mode] = np.array([_bisect(section, g, tol) for g in dirs])
        assert np.all(np.abs(got[mode] - t) <= tol * t), mode
    assert np.all(got["inner"] <= t * (1 + tol)) and np.all(t <= got["outer"] * (1 + tol))


def test_cop_radius_toward_horn_is_its_distance():
    # H is copositive with x^T H x = 0 at x = e_1 + e_2, so its section
    # point, 7H/3 at sphere average one, lies on the boundary
    spec = SectionSpec(cone="cop", n=5)
    g, dist = _toward(spec, _average_one(horn_matrix().to_numpy()))
    assert abs(section_radii(spec, g[None, :])[0] - dist) <= 1e-12 * dist


def test_cop_radius_toward_a_t_matrix_is_its_distance():
    # Hildebrand's T(psi) is copositive with zeros on consecutive triples,
    # so its section point lies on the boundary, as Horn's does
    spec = SectionSpec(cone="cop", n=5)
    rng = np.random.default_rng(2312)
    for _ in range(20):
        psi = rng.dirichlet(np.ones(6))[:5] * np.pi  # psi > 0, sum < pi
        g, dist = _toward(spec, _average_one(_t_matrix(psi)))
        assert abs(section_radii(spec, g[None, :])[0] - dist) <= 1e-12 * dist


def test_cp_outer_radii_match_bisection():
    spec = SectionSpec(cone="cp", n=5, mode="outer")
    reference = _reference(spec)
    for g in unit_directions(spec.dim, 3, seed=32):
        ref = _bisect(reference, g, 1e-7)
        assert abs(radial(spec, g) - ref) <= 1e-6 * ref


@pytest.mark.parametrize("n,count", [(3, 20), (4, 20), (5, 50)])
def test_cp_outer_radii_against_dnn(n, count):
    # at n <= 4, K^(1) = K^(0) = PSD + NN, whose dual is DNN; at n = 5,
    # K^(1) holds PSD + NN, so its dual lies inside DNN
    outer = SectionSpec(cone="cp", n=n, mode="outer")
    dirs = unit_directions(outer.dim, count, seed=33)
    got = section_radii(outer, dirs)
    dnn = section_radii(SectionSpec(cone="dnn", n=n), dirs)
    if n <= 4:
        assert np.all(np.abs(got - dnn) <= 1e-6 * dnn)
    else:
        assert np.all(got <= dnn * (1 + 1e-6))


def test_cp_outer_radius_toward_a5_stops_short_of_it():
    # A5 is DNN but refuted at level 1: the ray toward it leaves the cp
    # outer section before it reaches A5, and the dnn section after
    a5 = _average_one(load_reference_a5().to_numpy())
    outer = SectionSpec(cone="cp", n=5, mode="outer")
    g, dist = _toward(outer, a5)
    assert section_radii(outer, g[None, :])[0] < dist
    assert section_radii(SectionSpec(cone="dnn", n=5), g[None, :])[0] >= dist


@pytest.mark.parametrize("cone,n,mode", [("cp", 5, "outer"), ("spn", 6, None)])
def test_sdp_stacks_keep_the_radii_bit_for_bit(cone, n, mode, monkeypatch):
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    dirs = unit_directions(spec.dim, 10, seed=34)
    one_stack = section_radii(spec, dirs)
    monkeypatch.setattr(volume, "_SDP_STACK", 4)
    assert np.array_equal(section_radii(spec, dirs), one_stack)


@pytest.mark.parametrize("cone,n,mode,kwargs", [
    ("nn", 4, None, {}), ("psd", 4, None, {}), ("dnn", 4, None, {}),
    ("spn", 4, None, {}), ("spn", 5, None, {}), ("spn", 6, None, {}),
    ("cop", 5, None, {}), ("cp", 4, "exact", {}), ("cp", 5, "inner", {}),
    ("cp", 5, "outer", {}), ("lf", 3, "inner", {"generator_count": 16}),
    ("lf", 4, "outer", {}), ("ball", 3, None, {}),
])
def test_radii_never_ask_the_membership_oracle(cone, n, mode, kwargs, monkeypatch):
    spec = SectionSpec(cone=cone, n=n, mode=mode, **kwargs)

    def refuse(self, g):
        raise AssertionError("membership oracle called")
    monkeypatch.setattr(SectionSpec, "membership", refuse)
    assert vrad_mc(spec, 100, seed=35).point_estimate > 0


@pytest.mark.parametrize("cone,n,mode,match", [
    ("nn", 4, None, "star center is not interior"),   # a face radius < 0
    ("cp", 5, "outer", "SDP failed"),                 # unbounded or infeasible SDPs
    ("spn", 6, None, "SDP failed"),
])
def test_star_center_outside_the_section_is_refused_by_the_radius(cone, n, mode, match,
                                                                   monkeypatch):
    # a center with a -10 s off-diagonal entry is not copositive, so it lies
    # outside every one of these sections; the radii refuse it
    def outside(n):
        c = n * (n + 2) / (4.0 * n + 2.0) * (np.eye(n) + np.ones((n, n)) / n)
        c[0, 1] = c[1, 0] = -10.0 * c[0, 0]
        return c
    monkeypatch.setattr(volume, "_center_matrix", outside)
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    assert spec._center_mat[0, 1] < 0
    with pytest.raises(RadialError, match=match):
        section_radii(spec, unit_directions(spec.dim, 20, seed=36))


@pytest.mark.parametrize("cone,n,mode", [("cp", 5, "outer"), ("lf", 3, "inner")])
def test_building_a_section_solves_no_sdp_and_no_lp(cone, n, mode, monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran while building the section")
    for module, name in ((volume, "sdp_solve_many"), (cones, "sdp_solve"),
                         (scipy.optimize, "linprog")):
        monkeypatch.setattr(module, name, refuse)
    SectionSpec(cone=cone, n=n, mode=mode)


def _horn_rays(spec):
    # from the star center toward the section point of s H, s = 1, 2, 4: H is
    # copositive but not PSD + NN, so Kaplan's COP radius overshoots there
    h = horn_matrix().to_numpy()
    dirs = np.array([spec.coords_of(s * h) - spec.star_center for s in (1, 2, 4)])
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def test_spn_radii_bracket_the_stacked_sdp():
    # the SDP's primal point is feasible, so it can only under-report
    spec = SectionSpec(cone="spn", n=5)
    d_mats = volume._direction_matrices(spec, unit_directions(spec.dim, 200, seed=23))
    fast = volume._radial_spn(spec, d_mats)
    sdp = volume._radial_spn_sdp(spec, d_mats)
    assert np.all(sdp <= fast * (1 + 1e-9))
    assert np.all(fast <= sdp * (1 + 1e-6))


def test_spn_stacked_radii_equal_one_by_one_across_the_fallback():
    spec = SectionSpec(cone="spn", n=5)
    dirs = np.concatenate([unit_directions(spec.dim, 60, seed=24), _horn_rays(spec)])
    d_mats = volume._direction_matrices(spec, dirs)
    t = volume._radial_cop(spec, d_mats)
    peeled = volume._peel_certifies(spec._center_mat + t[:, None, None] * d_mats,
                                    spec.oracle_tol)
    assert 0 < peeled.sum() < len(dirs)
    one_by_one = np.array([radial(spec, g) for g in dirs])
    assert np.array_equal(section_radii(spec, dirs), one_by_one)


def test_spn_rays_toward_horn_are_refused_and_take_the_sdp():
    spec = SectionSpec(cone="spn", n=5)
    d_mats = volume._direction_matrices(spec, _horn_rays(spec))
    t = volume._radial_cop(spec, d_mats)
    assert not volume._peel_certifies(spec._center_mat + t[:, None, None] * d_mats,
                                      spec.oracle_tol).any()
    sdp = volume._radial_spn_sdp(spec, d_mats)
    assert np.array_equal(volume._radial_spn(spec, d_mats), sdp)
    assert np.all(t >= 1.1 * sdp)


def test_peel_refuses_the_horn_orbit_and_its_yes_decomposes():
    rng = np.random.RandomState(25)
    h = horn_matrix().to_numpy()
    orbit = []
    for _ in range(200):
        p, d = rng.permutation(5), rng.uniform(0.2, 5.0, 5)
        orbit.append(d[:, None] * h[np.ix_(p, p)] * d[None, :])
    assert not volume._peel_certifies(np.array(orbit), 1e-9).any()
    # on the section boundary and off it
    spec = SectionSpec(cone="spn", n=5)
    d_mats = volume._direction_matrices(spec, unit_directions(spec.dim, 20, seed=26))
    t = volume._radial_cop(spec, d_mats)
    g = rng.normal(size=(60, 5, 5))
    mats = np.concatenate([spec._center_mat + t[:, None, None] * d_mats,
                           np.eye(5) + 0.2 + 0.4 * (g + np.swapaxes(g, 1, 2))])
    ok = volume._peel_certifies(mats, 1e-9)
    assert 0 < ok.sum() < len(mats)
    split = 0
    for a in mats[ok]:
        res = spn_decompose(SymMatrix(a))
        assert isinstance(res, SpnPair) and res.check(a, 1e-8)
        split += a.min() < 0 and np.linalg.eigvalsh(a)[0] < 0
    assert split >= 10  # most are in neither summand cone


@pytest.mark.parametrize("cone,n,mode", [("dnn", 5, None), ("dnn", 3, None), ("cp", 4, "exact")])
def test_pivot_test_keeps_the_eigvalsh_radii_bit_for_bit(cone, n, mode, monkeypatch):
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    dirs = unit_directions(spec.dim, 2000, seed=27)
    fast = section_radii(spec, dirs)
    monkeypatch.setattr(volume, "_positive_definite", lambda m: np.zeros(len(m), dtype=bool))
    assert np.array_equal(fast, section_radii(spec, dirs))
    # and the PSD side binds on some rays but not on all
    faces = section_radii(SectionSpec(cone="nn", n=n), dirs)
    assert 0 < np.sum(fast < faces) < len(dirs)


@pytest.mark.parametrize("n", [3, 4])
def test_cop_closed_form_analytic_radii(n):
    # C = s (I + J/n); C - t (E_12 + E_21) leaves the cone when its (1, 2)
    # entry reaches -s (1 + 1/n), and C - t I when a diagonal entry reaches
    # 0: every support of size >= 2 has its repeated eigenvalue s on
    # eigenvectors that sum to zero, so the singletons decide
    spec = SectionSpec(cone="cop", n=n)
    s = n * (n + 2) / (4.0 * n + 2.0)
    e12 = np.zeros((n, n))
    e12[0, 1] = e12[1, 0] = 1.0
    got = volume._radial_cop(spec, np.array([-e12, -np.eye(n)]))
    assert np.allclose(got, [s * (1 + 2.0 / n), s * (1 + 1.0 / n)], rtol=1e-13, atol=0)


def _unpruned_cop_radii(spec, d_mats):
    # every support of every ray through `eigh`, as before the pruned scan
    low = cones._kaplan_min(d_mats, spec._supports, spec._support_inv)
    return np.divide(-1.0, low, out=np.full(low.shape, np.inf), where=low < 0)


@pytest.mark.parametrize("cone,n,count", [("cop", 3, 400), ("cop", 4, 400), ("cop", 5, 300),
                                          ("cop", 6, 200), ("cop", 7, 100), ("cop", 8, 60),
                                          ("spn", 5, 300)])
def test_pruned_cop_scan_keeps_the_unpruned_radii_bit_for_bit(cone, n, count):
    spec = SectionSpec(cone=cone, n=n)
    d_mats = volume._direction_matrices(spec, unit_directions(spec.dim, count, seed=40 + n))
    assert np.array_equal(volume._radial_cop(spec, d_mats), _unpruned_cop_radii(spec, d_mats))


def _tied_rays(n):
    # direction matrices whose radius many supports reach together: -E_ij
    # and -I, where every support of size >= 2 ties with the singletons,
    # and at n = 5 the rays toward multiples of Horn's matrix and toward
    # T-matrices, whose zeros sit on several supports at once
    mats = [-np.eye(n)]
    for i, j in combinations(range(n), 2):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        mats.append(-e)
    if n == 5:
        spec = SectionSpec(cone="cop", n=5)
        rng = np.random.default_rng(2312)
        dirs = [_toward(spec, _average_one(_t_matrix(rng.dirichlet(np.ones(6))[:5] * np.pi)))[0]
                for _ in range(20)]
        dirs = np.concatenate([_horn_rays(spec), dirs])
        mats.extend(volume._direction_matrices(spec, dirs))
    return np.array(mats)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pruned_cop_scan_keeps_the_radii_of_tied_supports(n):
    spec = SectionSpec(cone="cop", n=n)
    d_mats = _tied_rays(n)
    got = volume._radial_cop(spec, d_mats)
    want = _unpruned_cop_radii(spec, d_mats)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_chl_test_keeps_every_pair_of_a_stack_with_a_singular_block():
    # one exactly singular M_S fails the whole batched solve, so its stack
    # keeps the pairs that pass the row tests; [[1, -1.5], [-1.5, 4]] passes
    # them, but it is copositive and its solve is positive
    mats = np.array([[[1.0, -2.0], [-2.0, 1.0]], [[1.0, -1.5], [-1.5, 4.0]],
                     [[1.0, 0.5], [0.5, 1.0]], [[1.0, -1.0], [-1.0, 1.0]]])
    idx = np.array([[0, 1]])
    assert volume._chl_may_lower(mats[:3], idx)[:, 0].tolist() == [True, False, False]
    assert volume._chl_may_lower(mats, idx)[:, 0].tolist() == [True, True, False, True]


def test_pruned_cop_scan_sends_few_pairs_to_eigh(monkeypatch):
    # the work guard: at n = 6 each ray has 57 supports of size >= 2, and
    # the unpruned scan sends all of them to `eigh`
    spec = SectionSpec(cone="cop", n=6)
    dirs = unit_directions(spec.dim, 500, seed=41)
    solved = []
    eigh = np.linalg.eigh

    def counting(a):
        if a.shape[-1] >= 2:
            solved.append(a.size // a.shape[-1] ** 2)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    section_radii(spec, dirs)
    pairs = len(dirs) * (2 ** 6 - 1 - 6)
    assert sum(solved) <= 0.12 * pairs  # 9.0% today


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1.0])
def test_bisect_tol_outside_0_1_is_refused_before_any_loop(bad, monkeypatch):
    # 0 or less would never end a bisection, and NaN would end it at once
    monkeypatch.setattr(volume, "section_radii", None)
    spec = SectionSpec(cone="nn", n=3)
    g = unit_directions(spec.dim, 1, seed=0)[0]
    with pytest.raises(ValueError, match="bisect_tol"):
        vrad_mc(spec, 100, seed=0, bisect_tol=bad)
    with pytest.raises(ValueError, match="bisect_tol"):
        radial(spec, g, bisect_tol=bad)


@pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
def test_bad_oracle_tol_is_refused_by_name(bad):
    with pytest.raises(ValueError, match="oracle_tol"):
        SectionSpec(cone="psd", n=3, oracle_tol=bad)


def test_lf_section_above_n8_is_refused_before_building_generators(monkeypatch):
    # one permutation orbit at n = 9 would hold 9! = 362880 generators; with
    # no permutations at hand a missing check fails at once, not at 1 GB
    monkeypatch.setattr(volume, "permutations", None)
    with pytest.raises(ValueError, match="362880"):
        SectionSpec(cone="lf", n=9, mode="inner")
    with pytest.raises(ValueError, match="n must be <= 8"):
        volume.lf_generators(10, 16, seed=0)


@pytest.mark.parametrize("mode", ["inner", "outer"])
def test_cop_bisecting_modes_are_refused(mode):
    with pytest.raises(ValueError, match="cop is decided exactly"):
        SectionSpec(cone="cop", n=5, mode=mode)


def test_cop_section_above_n12_is_refused_before_building_supports(monkeypatch):
    # with no combinations at hand a missing check fails at once, not after
    # building 2^13 - 1 supports
    monkeypatch.setattr(cones, "combinations", None)
    with pytest.raises(ValueError, match="2\\^n - 1 = 8191 supports"):
        SectionSpec(cone="cop", n=13)


def test_lf_inner_radius_is_one_lp():
    spec = SectionSpec(cone="lf", n=3, mode="inner", generator_count=64)
    reference = _reference(spec)
    for g in unit_directions(spec.dim, 5, seed=13):
        ref = _bisect(reference, g, 1e-9)
        assert abs(radial(spec, g) - ref) <= 1e-6 * ref


def test_vrad_mc_spans_several_blocks():
    spec = SectionSpec(cone="nn", n=3)
    samples = 2 * volume._BLOCK + 17
    dirs = np.random.RandomState(9).standard_normal((samples, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = section_radii(spec, dirs)
    want = float(np.mean(radii ** spec.dim) ** (1.0 / spec.dim))
    assert vrad_mc(spec, samples, seed=9).point_estimate == want


def test_cop_blocks_shrink_with_the_support_stack_and_keep_the_estimate(monkeypatch):
    # the largest support stack at n = 9 holds C(9, 5) x 25 = 3150 floats a
    # ray, so a block holds _BLOCK x 1400 // 3150 rays
    spec = SectionSpec(cone="cop", n=9)
    radii = section_radii(spec, unit_directions(spec.dim, 100, seed=3))
    want = float(np.mean(radii ** spec.dim) ** (1.0 / spec.dim))
    monkeypatch.setattr(volume, "_BLOCK", 64)
    blocks = []
    stacked = volume.section_radii
    monkeypatch.setattr(volume, "section_radii",
                        lambda s, dirs: blocks.append(len(dirs)) or stacked(s, dirs))
    assert vrad_mc(spec, 100, seed=3).point_estimate == want
    assert blocks == [28, 28, 28, 16]


def test_vrad_mc_ci_is_the_delta_method_interval():
    # the 95% interval of log E[r^d], mapped through the 1/d power
    spec = SectionSpec(cone="psd", n=4)
    samples, d = 500, spec.dim
    dirs = np.random.RandomState(5).standard_normal((samples, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    p = section_radii(spec, dirs) ** d
    est = float(p.mean() ** (1.0 / d))
    rel = NormalDist().inv_cdf(0.975) * float(p.std(ddof=1)) / (float(p.mean()) * math.sqrt(samples))
    got = vrad_mc(spec, samples, seed=5)
    assert (got.point_estimate, got.ci_low, got.ci_high) == \
        (est, est * math.exp(-rel / d), est * math.exp(rel / d))


def test_vrad_mc_ci_covers_the_exact_nn_radius():
    # 40 fixed seeds at n=3, where the estimator is sound: a 95% interval
    # should hold the exact value about 38 times; 36 leaves room for chance
    spec = SectionSpec(cone="nn", n=3)
    exact = volume.vrad_nn_exact(3)
    hits = sum(e.ci_low <= exact <= e.ci_high
               for e in (vrad_mc(spec, 2000, seed=s) for s in range(40)))
    assert hits >= 36


def _fraction_det(m):
    """Exact determinant of a square list of Fraction rows by Gaussian elimination."""
    a = [row[:] for row in m]
    d = len(a)
    det = Fraction(1)
    for k in range(d):
        piv = next((r for r in range(k, d) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, d):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, d):
                    a[r][c] -= f * a[k][c]
    return det


def _nn_vrad_rational(n):
    """The NN simplex's volume radius from the rational Gram D^T Gamma D of
    its vertex differences, with Gamma built from the exact sphere moments.

    Vertex p is w_p e_p in the aggregated coordinates, with w = n(n+2)/3 on
    x_i^4 and n(n+2) on x_i^2 x_j^2 (each of sphere average one), and
    Vol = sqrt(det) / d!.
    """
    keys = [(i, j) for i in range(n) for j in range(i, n)]

    def moment(p, q):
        alpha = [0] * n
        for k in keys[p] + keys[q]:
            alpha[k] += 2
        return sphere_moment(tuple(alpha))

    m = len(keys)
    w = [Fraction(n * (n + 2), 3 if i == j else 1) for (i, j) in keys]
    gv = [[w[p] * moment(p, q) * w[q] for q in range(m)] for p in range(m)]
    gram = [[gv[k][l] - gv[k][0] - gv[0][l] + gv[0][0] for l in range(1, m)]
            for k in range(1, m)]
    d = m - 1
    vol = math.sqrt(float(_fraction_det(gram))) / math.factorial(d)
    ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return (vol / ball) ** (1.0 / d)


@pytest.mark.parametrize("n", range(3, 11))
def test_vrad_nn_exact_matches_the_rational_simplex_volume(n):
    want = _nn_vrad_rational(n)
    assert abs(volume.vrad_nn_exact(n) - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [40, 1000])
def test_vrad_nn_exact_is_finite_and_above_the_lower_bound_at_large_n(n):
    # d = 819 and 500499: the closed form works in logs, so nothing overflows
    got = volume.vrad_nn_exact(n)
    assert math.isfinite(got) and 1.0 / (math.sqrt(2.0) * n) <= got < 1.0


@pytest.mark.parametrize("n", [2, 0, -1])
def test_vrad_nn_exact_below_n3_raises(n):
    with pytest.raises(ValueError, match="n must be >= 3"):
        volume.vrad_nn_exact(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_vrad_nn_exact_matches_the_float_simplex_volume(n):
    # independent of the Gamma table: the simplex volume |det(v_k - v_0)| / d!
    # in the orthonormal coordinates of SectionSpec.coords_of
    spec = SectionSpec(cone="nn", n=n)
    c = n * (n + 2)
    verts = []
    for i in range(n):
        for j in range(i, n):
            a = np.zeros((n, n))
            a[i, j] = a[j, i] = c / 3.0 if i == j else c / 2.0
            verts.append(spec.coords_of(a))
    diffs = np.array(verts[1:]) - verts[0]
    d = spec.dim
    _, logdet = np.linalg.slogdet(diffs)
    log_vol = logdet - math.lgamma(d + 1)
    log_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1)
    want = math.exp((log_vol - log_ball) / d)
    assert abs(volume.vrad_nn_exact(n) - want) <= 1e-9 * want
