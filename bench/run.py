#!/usr/bin/env python3
"""sfsampler benchmark: one workload, in one fresh process, as a closed loop.

    python3 bench/run.py --workload mix2d-grad --seed 1 --seconds 45 --trace 0

One caller runs the workload back to back (each run starts when the
previous one ends) for --seconds, after one untimed warm-up run. Every run
is checked: it must not raise, its samples must be finite, and its output
bytes must equal those of the earlier runs on the same input. With
--trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1 an untraced and a traced pass plus a step replay give the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

BLAS and OpenMP pools are pinned to one thread before numpy loads, so a
workload's thread count is its ``workers`` setting.
"""

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A fresh interpreter up to a built target and config: what every CLI
# call pays before it samples.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy, sfsampler; "
    "from sfsampler.config import read_ini, sampler_from_config, target_from_config; "
    "s = read_ini(sys.argv[2]); target_from_config(s); sampler_from_config(s)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import sfsampler from this checkout's src/ and nothing else."""
    if not (SRC / "sfsampler" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sfsampler package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfsampler

    if pathlib.Path(sfsampler.__file__).resolve().parent != SRC / "sfsampler":
        raise SystemExit(f"bench: sfsampler imported from {sfsampler.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def steal_s():
    """CPU time the hypervisor gave to other guests, summed over all CPUs.

    On a shared VM, minutes of heavy steal slow every run; printing it
    beside the run walls tells such an invocation from a slower program.
    None where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


@dataclasses.dataclass
class Loop:
    walls: list
    cpu_s: float
    attempted: int
    failed: int
    steal_s: float | None


def run_loop(bench, seconds, min_runs, tracer=None, target=None):
    """Closed loop over the run seeds for ``seconds`` and at least ``min_runs``."""
    walls, cpu, failed, i = [], 0.0, 0, 0
    steal0, start = steal_s(), time.perf_counter()
    while i < min_runs or time.perf_counter() - start < seconds:
        j = i % len(bench.run_seeds)
        i += 1
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            out = bench.run_once(j, tracer, target)
            wall, cpu_run = time.perf_counter() - t0, time.process_time() - c0
            bench.check(j, out)
        except Exception:
            # A failed run is counted, not fatal: the loop must keep going.
            traceback.print_exc()
            failed += 1
            continue
        walls.append(wall)
        cpu += cpu_run
    steal1 = steal_s()
    return Loop(walls, cpu, i, failed, None if steal0 is None or steal1 is None else steal1 - steal0)


def mean_wall(loop):
    """The mean run wall: the timed runs' summed wall over their count.

    Throughput is then the work of all timed runs over their wall. On a
    shared 2-core VM the machine switches between a fast and a slow
    regime, each lasting 5 to 30 s, at 20 to 40 % apart. In 4 to 5 minute
    traces of back-to-back runs of each workload, the mean over a 30 s
    window spread 0.06 to 0.12 (IQR over median, over all window starts)
    on every workload. The median spread up to 0.17 and the fastest run up
    to 0.14: the median flips with the share of time in each regime, and
    the fastest run misses the fast one when a window has few runs. The
    fastest run, the median and the quartiles are printed beside it.
    """
    if not loop.walls:
        raise SystemExit("bench: no run succeeded")
    return statistics.fmean(loop.walls)


def describe(loop):
    walls = sorted(loop.walls)
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {"n": len(walls), "min_s": walls[0], "q1_s": q[0], "median_s": statistics.median(walls),
            "q3_s": q[2], "mean_s": statistics.fmean(walls), "steal_s": loop.steal_s}


def measure_setup(ini):
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), ini], check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def end_to_end(bench, seconds):
    from sfsampler.sampler import sfs_run

    spec = bench.spec
    setup_s = measure_setup(bench.ini)
    warm = run_loop(bench, 0.0, 1)
    loop = run_loop(bench, seconds, len(bench.run_seeds))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = warm.attempted + loop.attempted, warm.failed + loop.failed
    ok = True

    if spec.workers > 1 and 0 in bench.first:
        # philox-blocks-v1: the worker count never changes the bytes.
        attempted += 1
        config = dataclasses.replace(bench.config, seed=bench.run_seeds[0])
        single = sfs_run(config, bench.target, workers=1).samples
        if single.tobytes() != bench.first[0].tobytes():
            print(f"bench: workers={spec.workers} and workers=1 differ", file=sys.stderr)
            failed += 1

    seeds = sorted(bench.first)
    w2_ratio = bench.w2_ratio()
    errs = [bench.drift_err(i) for i in seeds]
    drift_err = statistics.median(rms for rms, _ in errs)
    if not w2_ratio < spec.w2_ratio_limit:
        print(f"bench: sample_w2_ratio {w2_ratio} over {spec.w2_ratio_limit}", file=sys.stderr)
        ok = False
    if not drift_err < spec.drift_err_limit:
        print(f"bench: drift_err_rms {drift_err} over {spec.drift_err_limit}", file=sys.stderr)
        ok = False

    particle_steps, probe_evals = bench.work()
    wall = mean_wall(loop)
    metrics = {
        "setup_s": (setup_s, "s"),
        "probe_evals_per_s": (probe_evals / wall, "1/s"),
        "particle_steps_per_s": (particle_steps / wall, "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "sample_w2_ratio": (w2_ratio, "ratio"),
        "drift_err_rms": (drift_err, "abs"),
        "success_frac": ((attempted - failed) / attempted, "fraction"),
    }
    info = {
        "runs": describe(loop),
        "run_seeds_checked": len(seeds),
        "drift_err_max": statistics.median(mx for _, mx in errs),
    }
    return ok and failed == 0, attempted, failed, metrics, info


def per_layer(bench, seconds, seed):
    import numpy as np
    from replay import replay_run
    from spans import NO_SPANS, Tracer, layer_totals
    from workloads import traced_target

    spec = bench.spec
    warm = run_loop(bench, 0.0, 1)
    untraced = run_loop(bench, seconds / 2, 2)
    tracer = Tracer()
    with bench.instrument(tracer) as target:
        traced = run_loop(bench, seconds / 2, 2, tracer, target)
    attempted = warm.attempted + untraced.attempted + traced.attempted
    failed = warm.failed + untraced.failed + traced.failed

    replayer = Tracer()
    replay_match = 1.0
    if spec.kind != "check" and 0 in bench.first:
        config = dataclasses.replace(bench.config, seed=bench.run_seeds[0])
        y = replay_run(config, traced_target(bench.target, replayer), spec.workers, replayer)
        replay_match = float(y.tobytes() == bench.first[0].tobytes())
        if not replay_match:
            print("bench: the step replay diverged from sfs_run; its layer times are void",
                  file=sys.stderr)

    tracer.write(os.path.join(bench.out_dir, f"spans-{seed}-runs.jsonl"))
    replayer.write(os.path.join(bench.out_dir, f"spans-{seed}-replay.jsonl"))

    runs = len(traced.walls)
    if not runs:
        raise SystemExit("bench: no traced run succeeded")
    ran, replayed = layer_totals(tracer.spans), layer_totals(replayer.spans)

    def span(name):
        return ran.get(name, NO_SPANS)

    def per_run(name, field="total_s"):
        # Each layer is timed either in the traced runs or in the one-run
        # replay, never both, so the sum is that layer's time per run.
        return getattr(span(name), field) / runs + getattr(replayed.get(name, NO_SPANS), field)

    _, probe_evals = bench.work()
    log_f, grad = span("targets.log_f"), span("targets.grad_log_f")
    point = span("drift.point_call").durations * 1e6
    root = span("sampler.sfs_run" if spec.kind == "run" else "cli.main")
    csv = os.path.join(bench.sample_dir, "samples.csv")
    metrics = {
        "targets.log_f_s": (log_f.total_s / runs, "s"),
        "targets.grad_log_f_s": (grad.total_s / runs, "s"),
        "targets.log_f_pts_per_probe": (log_f.items / (probe_evals * runs), "ratio"),
        "targets.grad_pts_per_probe": (grad.items / (probe_evals * runs), "ratio"),
        "targets.calls": ((log_f.calls + grad.calls) / runs, "count"),
        "targets.regularized_self_s": (per_run("targets.regularized", "self_s"), "s"),
        "rng.probe_draw_s": (per_run("rng.probe_draw"), "s"),
        "rng.increment_s": (per_run("rng.increment"), "s"),
        "rng.normal_row_s": (per_run("rng.normal_row"), "s"),
        "drift.core_self_s": (per_run("drift.core", "self_s"), "s"),
        "drift.exact_s": (per_run("drift.exact"), "s"),
        "drift.point_calls": (point.size / runs, "count"),
        "drift.point_call_us_p50": (float(np.percentile(point, 50)) if point.size else 0.0, "us"),
        "drift.point_call_us_p99": (float(np.percentile(point, 99)) if point.size else 0.0, "us"),
        "sampler.euler_s": (per_run("sampler.euler"), "s"),
        "sampler.worker_busy_frac": (
            (log_f.total_s + grad.total_s) / (spec.workers * root.total_s), "fraction"),
        "sampler.cpu_per_wall": (untraced.cpu_s / sum(untraced.walls), "ratio"),
        "batches.save_s": (per_run("batches.save_batch"), "s"),
        "batches.csv_bytes": (os.path.getsize(csv) if spec.kind == "sample" else 0, "bytes"),
        "cli.self_s": (per_run("cli.main", "self_s"), "s"),
        "trace.overhead_frac": (mean_wall(traced) / mean_wall(untraced) - 1.0, "fraction"),
        "trace.replay_match": (replay_match, "count"),
    }
    info = {"untraced_runs": describe(untraced), "traced_runs": describe(traced)}
    return failed == 0 and replay_match == 1.0, attempted, failed, metrics, info


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, str(OUT / args.workload))
    if args.trace:
        ok, attempted, failed, metrics, info = per_layer(bench, args.seconds, args.seed)
    else:
        ok, attempted, failed, metrics, info = end_to_end(bench, args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment(), **info}))
    print(json.dumps({
        "correct": bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
