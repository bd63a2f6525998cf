"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `coposlab`.  Function times (`*_s` named after a
function) are inclusive: they hold the outermost calls of that function,
children in other layers included.  `<layer>.self_s` is the time spent in the
layer's own code, with every wrapped call into another layer taken out, and
`<layer>.share` is that self time over the traced pass's wall time.  The
shares of all layers plus `trace.unattributed_share` (harness and unwrapped
code) add up to one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from .spans import Snapshot, Target

LAYERS = ("sdp", "cones", "numerics", "quartic", "exceptional", "volume", "cli")


def _observe_sdp(counters: Counter, args, kwargs, sol, exc) -> None:
    problem = args[0] if args else kwargs["problem"]
    # N: svec dimension of the cone part; m: constraints passed in
    n_cone = sum(d * (d + 1) // 2 for d in problem.psd_block_dims) + problem.nonneg_dim
    m = len(problem.constraints)
    counters["sdp.svec_dim_max"] = max(counters["sdp.svec_dim_max"], n_cone)
    counters["sdp.constraints_max"] = max(counters["sdp.constraints_max"], m)
    if sol is None:
        return
    counters["sdp.iters"] += sol.iterations
    counters["sdp.schur_flops"] += sol.iterations * (2 * m * n_cone ** 2 + 2 * m * m * n_cone)
    if sol.status.value == "indeterminate":
        counters["sdp.indeterminate"] += 1


def _observe_cones(counters: Counter, args, kwargs, result, exc) -> None:
    if isinstance(exc, RuntimeError):
        counters["cones.indeterminate"] += 1


TARGETS: List[Target] = [
    ("sdp", "coposlab.sdp", "sdp_solve", _observe_sdp),
    ("sdp", "coposlab.sdp", "sos_gram_assemble", None),
    ("cones", "coposlab.cones", "parrilo_member", _observe_cones),
    ("cones", "coposlab.cones", "cp_refute", _observe_cones),
    ("cones", "coposlab.cones", "spn_decompose", _observe_cones),
    ("cones", "coposlab.cones", "cop_refute", _observe_cones),
    ("cones", "coposlab.cones", "membership_basic", None),
    ("numerics", "coposlab.numerics", "psd_certificate", None),
    ("numerics", "coposlab.numerics", "exact_ldl_psd", None),
    ("quartic", "coposlab.quartic", "monomials", None),
    ("quartic", "coposlab.quartic", "poly_mul", None),
    ("quartic", "coposlab.quartic", "basis_M", None),
    ("exceptional", "coposlab.exceptional", "construct_ednn", None),
    ("exceptional", "coposlab.exceptional", "construct_ecop", None),
    ("exceptional", "coposlab.exceptional", "verify_paper_examples", None),
    ("volume", "coposlab.volume", "SectionSpec.__post_init__", None),
    ("volume", "coposlab.volume", "SectionSpec.membership", None),
    ("volume", "coposlab.volume", "radial", None),
    ("volume", "coposlab.volume", "vrad_mc", None),
    ("volume", "coposlab.volume", "vrad_nn_exact", None),
    ("cli", "coposlab.cli", "main", None),
]

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER: Dict[str, str] = {
    "sdp.solves": "count", "sdp.solve_s": "s", "sdp.assemble_s": "s", "sdp.iters": "count",
    "sdp.indeterminate": "count", "sdp.svec_dim_max": "count",
    "sdp.constraints_max": "count", "sdp.schur_flops": "flop", "sdp.share": "frac",
    "cones.parrilo_s": "s", "cones.cp_refute_s": "s", "cones.spn_s": "s",
    "cones.cop_refute_s": "s", "cones.basic_s": "s", "cones.indeterminate": "count",
    "cones.self_s": "s", "cones.share": "frac",
    "numerics.psd_cert_calls": "count", "numerics.psd_cert_s": "s",
    "numerics.exact_ldl_s": "s", "numerics.share": "frac",
    "quartic.s": "s", "quartic.setup_s": "s", "quartic.share": "frac",
    "exceptional.self_s": "s", "exceptional.share": "frac",
    "volume.spec_s": "s", "volume.rays": "count", "volume.radial_s": "s",
    "volume.oracle_calls": "count", "volume.oracle_per_ray": "count/ray",
    "volume.self_s": "s", "volume.share": "frac", "volume.ci_rel": "frac",
    "volume.nn_err": "frac",
    "cli.calls": "count", "cli.self_s": "s", "cli.share": "frac",
    "trace.overhead_frac": "frac", "trace.unattributed_share": "frac",
    "tasks.failed_frac": "frac",
}

# metrics that must repeat exactly between two traced passes on one seed
DETERMINISTIC = ("sdp.solves", "sdp.iters", "sdp.schur_flops", "sdp.indeterminate",
                 "cones.indeterminate", "numerics.psd_cert_calls", "volume.rays",
                 "volume.oracle_calls", "cli.calls")


def counts(snap: Snapshot) -> Dict[str, int]:
    c = snap.counters
    return {
        "sdp.solves": snap.calls("sdp.sdp_solve"),
        "sdp.iters": c["sdp.iters"],
        "sdp.indeterminate": c["sdp.indeterminate"],
        "sdp.svec_dim_max": c["sdp.svec_dim_max"],
        "sdp.constraints_max": c["sdp.constraints_max"],
        "sdp.schur_flops": c["sdp.schur_flops"],
        "cones.indeterminate": c["cones.indeterminate"],
        "numerics.psd_cert_calls": snap.calls("numerics.psd_certificate"),
        "volume.rays": snap.calls("volume.radial"),
        "volume.oracle_calls": snap.calls("volume.SectionSpec.membership"),
        "cli.calls": snap.calls("cli.main"),
    }


def times(snap: Snapshot, wall_s: float) -> Dict[str, float]:
    out = {
        "sdp.solve_s": snap.incl("sdp.sdp_solve"),
        "sdp.assemble_s": snap.incl("sdp.sos_gram_assemble"),
        "cones.parrilo_s": snap.incl("cones.parrilo_member"),
        "cones.cp_refute_s": snap.incl("cones.cp_refute"),
        "cones.spn_s": snap.incl("cones.spn_decompose"),
        "cones.cop_refute_s": snap.incl("cones.cop_refute"),
        "cones.basic_s": snap.incl("cones.membership_basic"),
        "numerics.psd_cert_s": snap.incl("numerics.psd_certificate"),
        "numerics.exact_ldl_s": snap.incl("numerics.exact_ldl_psd"),
        "quartic.s": snap.layer_self("quartic"),
        "volume.radial_s": snap.incl("volume.radial"),
        "cli.self_s": snap.layer_self("cli"),
    }
    for layer in ("cones", "exceptional", "volume"):
        out[f"{layer}.self_s"] = snap.layer_self(layer)
    shares = {f"{layer}.share": snap.layer_self(layer) / wall_s for layer in LAYERS}
    out.update(shares)
    out["trace.unattributed_share"] = 1.0 - sum(shares.values())
    return out


def setup_times(snap: Snapshot) -> Dict[str, float]:
    """Cold fixture construction, traced once before the passes."""
    return {"volume.spec_s": snap.incl("volume.SectionSpec.__post_init__"),
            "quartic.setup_s": snap.layer_self("quartic")}


def counter_mismatch(a: Dict[str, int], b: Dict[str, int]) -> List[str]:
    return [k for k in DETERMINISTIC if a[k] != b[k]]


def per_layer_metrics(cnt: Dict[str, int], tms: Dict[str, float], setup: Dict[str, float],
                      extra: Dict[str, float]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    values.update(cnt)
    values.update(tms)
    values.update(setup)
    values.update(extra)
    rays = cnt["volume.rays"]
    values["volume.oracle_per_ray"] = cnt["volume.oracle_calls"] / rays if rays else 0.0
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER}
