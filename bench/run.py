"""Benchmark runner for coposlab.

    python3 bench/run.py --workload hierarchy|vrad|certify --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # everything

Run it from anywhere inside a checkout; it imports the library from the
checkout's `src/`.  It is single-process and single-threaded: BLAS and
`COPOSLAB_THREADS` are pinned to one thread before numpy loads.

With `--trace 0` it measures `setup_s` in fresh subprocesses, then runs the
workload's seeded task list in whole passes until `--seconds` is spent (at
least two passes), and reports the end-to-end metrics.  With `--trace 1` it
runs one untraced pass and two traced passes and reports the per-layer
metrics.  Either way every answer is re-checked (bench/check.py), the answers
of all passes must be bit-identical, and the last line of stdout is the JSON
result.  See bench/README.md for the metrics and workloads.
"""

import os

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "COPOSLAB_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 9          # measured set-up subprocesses, after one discarded warm one
MIN_PASSES = 2
TAIL_BEYOND = 10        # the tail percentile keeps this many tasks beyond it
WORKLOADS = ("hierarchy", "vrad", "certify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
              "peak_rss_mb": "MB"}


def import_library():
    """Put the checkout's `src/` first on the path and import coposlab from it."""
    src = ROOT / "src"
    if not (src / "coposlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coposlab sources under {src}; "
                         "run the benchmark inside a checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]
    import coposlab
    if Path(coposlab.__file__).resolve().parent != (src / "coposlab").resolve():
        raise SystemExit(f"error: coposlab imported from {coposlab.__file__}, not {src}")


def setup_child(workload: str, seed: int) -> None:
    """Body of one set-up subprocess: the cold import plus the fixtures."""
    start = time.perf_counter()
    import_library()
    import coposlab.cli  # noqa: F401
    from bench import workloads
    workloads.fixtures(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_RUNS cold set-ups, each normalized by the host speed
    sampled just before and just after it."""
    from bench import hostspeed
    probe = hostspeed.HostProbe(hostspeed.SETUP_KERNEL)
    probe.kernel()
    values = []
    for k in range(SETUP_RUNS + 1):
        before = [probe.kernel() for _ in range(3)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=dict(os.environ, **PINNED), capture_output=True, text=True,
            timeout=120, check=True)
        after = [probe.kernel() for _ in range(3)]
        if k:  # the first one compiles bytecode and warms the page cache
            factor = statistics.fmean(before + after) / probe.nominal_s
            values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] / factor)
    return statistics.median(values)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, latencies, outcomes, answers, raw_wall_s, factor):
        self.latencies = latencies          # normalized seconds per task
        self.wall_s = sum(latencies)        # normalized seconds
        self.outcomes = outcomes            # (result, exception) per task, or None
        self.answers = answers              # fingerprint of each task's answer
        self.raw_wall_s = raw_wall_s        # measured, kernel samples excluded
        self.factor = factor                # mean host slowness over the pass


def one_pass(tasks, probe, keep: bool) -> Pass:
    """One pass over the task list; only a kept pass holds on to the answers."""
    from bench import check, hostspeed
    log = hostspeed.SpeedLog(probe)
    spans, outcomes = [], []
    for task in tasks:
        t0 = time.perf_counter()
        try:
            outcome = (task.call(), None)
        except Exception as exc:  # a failed task is recorded, and the run goes on
            outcome = (None, exc)
        spans.append((t0, time.perf_counter()))
        outcomes.append(outcome)
        log.maybe_sample()
    log.sample()
    latencies = [(t1 - t0) / log.factor(t0, t1) for t0, t1 in spans]
    answers = [check.fingerprint(res, exc) for res, exc in outcomes]
    return Pass(latencies, outcomes if keep else None, answers,
                sum(t1 - t0 for t0, t1 in spans), log.factor(spans[0][0], spans[-1][1]))


def timed_passes(tasks, seconds: float, probe):
    """Whole passes until `seconds` would be overrun, at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(tasks, probe, keep=not passes))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def tail(values):
    """The highest percentile with TAIL_BEYOND values beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} tasks leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def review(tasks, passes, check):
    """Verdicts on the first pass, and the tasks whose answers changed later."""
    first = passes[0].outcomes
    verdicts = [check.check(t.kind, t.info, res, exc) for t, (res, exc) in zip(tasks, first)]
    estimates = [(t.name, res) for t, (res, exc) in zip(tasks, first)
                 if t.kind == "vrad" and exc is None]
    for name, verdict in check.vrad_order(estimates).items():
        idx = next(i for i, t in enumerate(tasks) if t.name == name)
        if verdicts[idx].status == check.OK:
            verdicts[idx] = verdict
    unstable = sorted({tasks[i].name for p in passes[1:]
                       for i, answer in enumerate(p.answers) if answer != passes[0].answers[i]})
    vrad = check.vrad_summary([res for _, res in estimates])
    return verdicts, unstable, vrad


def host_line():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    pins = " ".join(f"{k}={v}" for k, v in PINNED.items())
    return (f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} pinned: {pins}")


def report_failures(tasks, verdicts, unstable, check):
    failed = [(t, v) for t, v in zip(tasks, verdicts) if v.status != check.OK]
    for t, v in failed:
        print(f"# {v.status}: {t.name}: {v.reason}")
    for name in unstable:
        print(f"# unstable: {name}: answer differs between passes")
    wrong = any(v.status == check.WRONG for v in verdicts)
    return len(failed), not wrong and not unstable


def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(args, workdir):
    from bench import check, hostspeed, workloads
    setup_s = measure_setup(args.workload, args.seed)
    probe = hostspeed.HostProbe(hostspeed.KERNEL[args.workload])
    probe.kernel()
    fx = workloads.fixtures(args.workload, args.seed)
    tasks = workloads.build_tasks(args.workload, args.seed, fx, workdir)
    workloads.warmup(args.workload, fx, workdir)
    passes = timed_passes(tasks, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the tail pools the first MIN_PASSES passes, so its sample count, and with
    # it the percentile, does not depend on how many passes fit in the run
    pooled = [x for p in passes[:MIN_PASSES] for x in p.latencies]
    tail_s, tail_pct = tail(pooled)
    p50_s = statistics.median(x for p in passes for x in p.latencies)
    verdicts, unstable, (ci_rel, nn_err) = review(tasks, passes, check)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace=0")
    print(host_line())
    failed, correct = report_failures(tasks, verdicts, unstable, check)
    print(f"# passes={len(passes)} tasks={len(tasks)}; task_p50_s is over all "
          f"{len(tasks) * len(passes)} latencies, task_tail_s is p{tail_pct:.2f} of the "
          f"{len(pooled)} latencies of the first {MIN_PASSES} passes")
    print("# pass walls (raw s / host factor): "
          + " ".join(f"{p.raw_wall_s:.3f}/{p.factor:.3f}" for p in passes))
    print(f"{'failed_frac':28s} {failed / len(tasks):.6g} frac ({failed} of {len(tasks)})")
    if args.workload == "vrad":
        print(f"{'vrad_ci_rel':28s} {ci_rel:.6g} frac")
        print(f"{'vrad_nn_err':28s} {nn_err:.6g} frac")
    metrics = {"setup_s": setup_s, "wall_s": statistics.median(p.wall_s for p in passes),
               "task_p50_s": p50_s, "task_tail_s": tail_s,
               "peak_rss_mb": peak_rss_mb}
    emit(correct, len(tasks), failed, metrics, END_TO_END)


def traced_run(args, workdir):
    from bench import check, hostspeed, layers, spans, workloads
    probe = hostspeed.HostProbe(hostspeed.KERNEL[args.workload])
    tracer = spans.Tracer()

    def traced(fn):
        undo = spans.install(tracer, layers.TARGETS, "coposlab")
        tracer.reset()
        tracer.enabled = True
        try:
            out = fn()
        finally:
            tracer.enabled = False
            spans.uninstall(undo)
        return out, tracer.snapshot()

    fx, setup_snap = traced(lambda: workloads.fixtures(args.workload, args.seed))
    tasks = workloads.build_tasks(args.workload, args.seed, fx, workdir)
    workloads.warmup(args.workload, fx, workdir)
    plain = one_pass(tasks, probe, keep=True)
    runs = [traced(lambda: one_pass(tasks, probe, keep=False)) for _ in range(2)]

    verdicts, unstable, (ci_rel, nn_err) = review(tasks, [plain] + [p for p, _ in runs], check)
    print(f"# workload={args.workload} seed={args.seed} trace=1: one untraced pass, "
          f"two traced passes")
    print(host_line())
    failed, correct = report_failures(tasks, verdicts, unstable, check)
    cnt = [layers.counts(snap) for _, snap in runs]
    drift = layers.counter_mismatch(cnt[0], cnt[1])
    for name in drift:
        print(f"# unstable: counter {name} differs between traced passes: "
              f"{cnt[0][name]} != {cnt[1][name]}")
    tms = [layers.times(snap, p.raw_wall_s) for p, snap in runs]
    mean_times = {k: statistics.fmean(t[k] for t in tms) for k in tms[0]}
    traced_wall = statistics.fmean(p.wall_s for p, _ in runs)
    extra = {"trace.overhead_frac": traced_wall / plain.wall_s - 1.0,
             "tasks.failed_frac": failed / len(tasks),
             "volume.ci_rel": ci_rel, "volume.nn_err": nn_err}
    metrics = layers.per_layer_metrics(cnt[0], mean_times, layers.setup_times(setup_snap),
                                       extra)
    print(f"# normalized walls: untraced {plain.wall_s:.3f} s, traced {traced_wall:.3f} s; "
          f"host factors {plain.factor:.3f} " + " ".join(f"{p.factor:.3f}" for p, _ in runs))
    emit(correct and not drift, len(tasks), failed, metrics, layers.PER_LAYER)


def run_all(args):
    """Every workload, untraced then traced, one subprocess each."""
    results = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
            print(proc.stdout, end="", flush=True)
            results.append((workload, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("# summary")
    for workload, trace, res in results:
        print(f"# {workload:9s} trace={trace} correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return
    if args.workload == "all":
        run_all(args)
        return
    import_library()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        (traced_run if args.trace else untraced_run)(args, workdir)


if __name__ == "__main__":
    main()
