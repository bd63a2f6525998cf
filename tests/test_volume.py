import warnings

import numpy as np
import pytest

from coposlab import volume
from coposlab.volume import SectionSpec, radial, section_radii, vrad_mc

CLOSED_FORM = [("nn", 5, None), ("psd", 5, None), ("dnn", 5, None), ("cp", 4, "exact"),
               ("cp", 5, "inner"), ("lf", 4, "outer"), ("ball", 5, None)]


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    dirs = np.random.RandomState(seed).standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


@pytest.mark.parametrize("cone,n,mode", CLOSED_FORM)
def test_closed_form_radii_match_bisection(cone, n, mode):
    # the oracle accepts points up to oracle_tol * scale outside the section,
    # which moves the bisection radius outward by ~1e-8 relative at the
    # default 1e-9; a tight oracle makes bisection the exact reference
    spec = SectionSpec(cone=cone, n=n, mode=mode, oracle_tol=1e-12)
    assert spec.closed_form
    dirs = unit_directions(spec.dim, 50, seed=11)
    fast = section_radii(spec, dirs)
    ref = np.array([radial(spec, g, method="bisect", bisect_tol=1e-9) for g in dirs])
    assert np.all(np.abs(fast - ref) <= 1e-8 * ref)


@pytest.mark.parametrize("cone,n,mode", CLOSED_FORM)
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


def test_sections_without_closed_form_are_refused():
    spec = SectionSpec(cone="spn", n=3)
    assert not spec.closed_form
    with pytest.raises(ValueError):
        section_radii(spec, unit_directions(spec.dim, 2, seed=0))
    with pytest.raises(ValueError):
        radial(SectionSpec(cone="nn", n=3), unit_directions(5, 1, seed=0)[0], method="newton")


def test_unnormalized_direction_is_rejected():
    spec = SectionSpec(cone="psd", n=3)
    with pytest.raises(ValueError):
        section_radii(spec, 2.0 * unit_directions(spec.dim, 3, seed=0))


def test_lf_outer_membership_is_the_face_test():
    spec = SectionSpec(cone="lf", n=4, mode="outer")
    g = unit_directions(spec.dim, 1, seed=2)[0]
    r = section_radii(spec, g[None, :])[0]
    assert spec.membership(spec.star_center + 0.999 * r * g)
    assert not spec.membership(spec.star_center + 1.001 * r * g)


@pytest.mark.parametrize("cone,n,mode,kwargs", [
    ("psd", 4, None, {}),                            # closed form, in blocks
    ("lf", 3, "inner", {"generator_count": 16}),     # one LP a ray
    ("spn", 4, None, {}),                            # stacked SDPs, in blocks
])
def test_vrad_mc_ignores_the_thread_count(cone, n, mode, kwargs, monkeypatch):
    spec = SectionSpec(cone=cone, n=n, mode=mode, **kwargs)
    out = []
    for threads in ("1", "2"):
        monkeypatch.setenv("COPOSLAB_THREADS", threads)
        out.append(vrad_mc(spec, 100, seed=4, bisect_tol=1e-2).to_json_dict())
    assert out[0] == out[1]


@pytest.mark.parametrize("cone,n,mode", [("spn", 4, None), ("cop", 4, "exact")])
def test_stacked_parametric_radii_equal_one_by_one(cone, n, mode):
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    dirs = unit_directions(spec.dim, 23, seed=6)
    stacked = volume._radial_spn(spec, volume._direction_matrices(spec, dirs))
    assert np.array_equal(stacked, np.array([radial(spec, g) for g in dirs]))


@pytest.mark.parametrize("cone,n,mode", [("spn", 4, None), ("cop", 4, "exact")])
def test_parametric_radii_match_bisection(cone, n, mode):
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    for g in unit_directions(spec.dim, 5, seed=12):
        ref = radial(spec, g, method="bisect", bisect_tol=1e-7)
        assert abs(radial(spec, g) - ref) <= 1e-6 * ref


@pytest.mark.parametrize("cone,n,mode", [("spn", 4, None), ("cop", 4, "exact")])
def test_boundary_bisection_emits_no_runtime_warning(cone, n, mode):
    # the tight bisection queries boundary points where a refinement step of
    # the solver overflows; the step is rejected, and the radii are those
    # the solver gave before the overflow was silenced
    want = [float.fromhex(h) for h in ("0x1.d464087600000p-2", "0x1.c4feb30a00000p-2",
                                       "0x1.8eed4e8200000p-2", "0x1.e924034c00000p-2",
                                       "0x1.b463920a00000p-2")]
    spec = SectionSpec(cone=cone, n=n, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [radial(spec, g, method="bisect", bisect_tol=1e-9)
               for g in unit_directions(spec.dim, 5, seed=12)]
    assert got == want


def test_lf_inner_radius_is_one_lp():
    spec = SectionSpec(cone="lf", n=3, mode="inner", generator_count=64)
    assert not spec.closed_form
    for g in unit_directions(spec.dim, 5, seed=13):
        ref = radial(spec, g, method="bisect", bisect_tol=1e-9)
        assert abs(radial(spec, g) - ref) <= 1e-6 * ref


def test_vrad_mc_spans_several_blocks():
    spec = SectionSpec(cone="nn", n=3)
    samples = 2 * volume._BLOCK + 17
    dirs = np.random.RandomState(9).standard_normal((samples, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = section_radii(spec, dirs)
    want = float(np.mean(radii ** spec.dim) ** (1.0 / spec.dim))
    assert vrad_mc(spec, samples, seed=9).point_estimate == want
