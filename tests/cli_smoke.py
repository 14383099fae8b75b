"""Command-level checks of the sfs command: the same seed gives the same bytes on
reruns and at any worker count, and bad input exits with its stable code before
writing any file. The sfs command is the only argument:

    python tests/cli_smoke.py sfs
    PYTHONPATH=$PWD/src python tests/cli_smoke.py python -m sfsampler.cli

Each case runs in its own fresh temporary directory, so a source path on PYTHONPATH
must be absolute. Every case prints one line; a failure names the check that failed
and makes the exit status 1. A new command-level check is a new case here.
"""

import functools
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SFS = []
PM2 = "kind = mixture\nweights = 0.5 0.5\nmeans = 2; -2\n"
PM2_2D = PM2.replace("2; -2", "2 0; -2 0")
BUMP = "kind = bump\n"
SMOKE = dict(seed=7, steps=10, particles=64, drift="mc-grad", mc_size=8)
TILES = dict(SMOKE, particles=300, mc_size=128)
PLAN = "\n[plan]\naxis = steps\nvalues = 2 4 8\n"
ULA = "\n[ula]\nstep_size = 0.05\nburn_in = 20\n"
W12, W13 = ["--workers 1", "--workers 2"], ["--workers 1", "--workers 3"]
FROM_RESOLVED = ["", "--config 0/resolved.ini"]


def check(ok, what):
    if not ok:
        raise AssertionError(what)


def text(target=PM2, tail="", **run):
    """A run file: the [target] lines (the ±2 mixture's by default), these [run] keys, then `tail`."""
    keys = "".join(f"{key} = {value}\n" for key, value in run.items())
    return f"[target]\n{target}\n[run]\n{keys}{tail}"


def ini(name, content):
    path = Path(name)
    path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    return name


def expect_exit(code, *argv, absent=None):
    """Run sfs with `argv`; check its exit status and that it left no `absent` path."""
    got = subprocess.run(SFS + list(argv), capture_output=True)
    command = " ".join(["sfs", *argv])
    if got.returncode != code:
        raise AssertionError(f"{command} exited {got.returncode}, not {code}: {said(got)}")
    check(absent is None or not os.path.exists(absent), f"{command} wrote {absent}")
    return got


def said(got):
    """The end of what a process printed, on one line."""
    return " ".join((got.stderr or got.stdout).decode(errors="replace").split())[-300:]


def sfs(*argv):
    return expect_exit(0, *argv)


def same_bytes(first, *others):
    for other in others:
        check(Path(first).read_bytes() == Path(other).read_bytes(), f"{first} and {other} differ")


def runs_agree(command, runs, files="", digest=None):
    """Run `command --config run.ini` once per flag string in `runs` (a run's own --config
    comes last and wins), with --out named by the run's index if `files` are named. Each
    run must write the first run's bytes to each of `files`, or print them if none is
    named; `digest` pins the sha256 of the first run's first file."""
    files = files.split()
    got = [sfs(command, "--config", "run.ini", *flags.split(), *(["--out", str(i)] if files else []))
           for i, flags in enumerate(runs)]
    for i in range(1, len(runs)):
        for name in files:
            same_bytes(f"0/{name}", f"{i}/{name}")
        check(files or got[i].stdout == got[0].stdout, f"{command} {runs[i]} printed other bytes")
    if digest:
        sha = hashlib.sha256(Path("0", files[0]).read_bytes()).hexdigest()
        check(sha == digest, f"0/{files[0]} lost its pinned sha256")
    return got


def quiet(got):
    check(not got.stderr, f"stderr: {said(got)}")


def python(*argv):
    """Run a new interpreter on `argv`; check it exits 0."""
    got = subprocess.run([sys.executable, *argv], capture_output=True)
    check(got.returncode == 0, f"python exited {got.returncode}: {said(got)}")
    return got


def floored_cut_samples(workers):
    """Print the sample bytes of a floored target whose gradient is +inf where f = 0."""
    import numpy as np
    from sfsampler import EpsSchedule, SamplerConfig, TargetSpec, sfs_run

    def log_f(x):
        return np.where(np.abs(x[:, 0]) < 1.5, -x[:, 0] ** 2, -np.inf)

    def grad_log_f(x):
        return np.where(np.abs(x) < 1.5, -2.0 * x, np.inf)

    target = TargetSpec(name="cut", dim=1, log_f=log_f, grad_log_f=grad_log_f)
    # m = 128 makes 128-particle tiles: 300 particles are three, for three threads.
    config = SamplerConfig(steps=10, particles=300, seed=5, drift="mc-grad", mc_size=128,
                           eps=EpsSchedule.parse("fixed:0.2"))
    samples = sfs_run(config, target, workers=workers).samples
    if not np.isfinite(samples).all():
        sys.exit("non-finite samples")
    sys.stdout.buffer.write(samples.tobytes())


# Each command, with --config run.ini, its flags and --out out, exits with the code
# and leaves no out directory.
REFUSALS = {
    "workers_below_one_exit_4": (4, text(**SMOKE), "drift-check --workers 0"),
    "sweep_over_a_step_count_that_is_not_whole_exits_2":
        (2, text(tail=PLAN.replace("2 4 8", "4.5 8 16"), **SMOKE), "sweep"),
    "monte_carlo_sweep_without_mc_size_exits_4":
        (4, text(tail=PLAN, seed=7, steps=10, particles=64, drift="mc-grad"), "sweep"),
    "m_driven_eps_sweep_with_the_closed_form_exits_4":
        (4, text(tail=PLAN, seed=7, steps=10, particles=64, eps_rule="log"), "sweep"),
    "drift_check_on_a_bump_exits_4": (4, text(BUMP, seed=1), "drift-check"),
    "a_run_file_naming_a_metric_exits_2":
        (2, text(tail=PLAN + "metric = assignment\n", **dict(SMOKE, particles=1000)), "sweep"),
    "a_config_that_is_not_utf8_exits_2": (2, b"\xff\xfe[target]\n", "sample"),
    "every_run_command_refuses_an_m_driven_eps_on_a_closed_form_run":
        (4, text(seed=3, eps_rule="log"), "sample", "drift-check", "regularity"),
    "check_commands_refuse_the_closed_form_drift_on_a_bump":
        (4, text(BUMP, seed=1, drift="exact", eps_rule="fixed:0.2"), "drift-check", "regularity"),
    "an_overflowing_gaussian_mean_exits_4":
        (4, text("kind = gaussian\nmean = 1e200\n", seed=1, steps=4, particles=8), "sample", "drift-check"),
    "overflowing_mixture_means_exit_4": (4, text(PM2.replace("2; -2", "1e200; -1e200"), seed=1, steps=4,
                                                 particles=8), "sample", "drift-check"),
    "an_overflowing_potential_mean_exits_4": (4, text("kind = gaussian-potential\nmean = 1e200\n", seed=1,
                                                      steps=4, particles=8, drift="mc-stein", mc_size=8),
                                              "sample", "regularity"),
    "a_ula_post_steps_key_exits_2": (2, text(tail=ULA + "post_steps = 60\n", **SMOKE), "compare"),
    "a_run_file_cannot_ask_for_a_path": (2, text(**SMOKE, record_trajectory="true"), "sample", "sweep"),
    # 10**6 particles over 201 points is 2.01e8 values, over the 2**27 budget.
    "a_path_over_the_budget_exits_4":
        (4, text(seed=7, steps=10, particles=64), "sample --trajectory --particles 1000000 --steps 200"),
    "an_eps_rule_out_of_range_exits_4": (4, text(seed=7, steps=10, particles=64), "sample --eps-rule fixed:1.5"),
    "an_eps_rule_that_is_no_rule_exits_2": (2, text(seed=7, steps=10, particles=64), "sample --eps-rule sqrt"),
    "a_sweep_with_a_repeated_axis_value_exits_2":
        (2, text(tail="\n[plan]\naxis = particles\nvalues = 600 600 64 64\n", **SMOKE), "sweep"),
    "a_plan_name_key_exits_2":
        (2, text(tail=PLAN.replace("[plan]\n", "[plan]\nname = x\n"), seed=7, steps=4, particles=32), "sweep"),
}

# Same bytes: the run file, then the arguments of runs_agree.
AGREE = {
    "sample_reruns_and_reproduces_from_its_resolved_ini":
        (text(**SMOKE), "sample", ["", *FROM_RESOLVED], "samples.csv resolved.ini"),
    "sweep_reruns_and_reproduces_from_its_resolved_ini":
        (text(tail=PLAN, **SMOKE), "sweep", ["", *FROM_RESOLVED], "cells.csv plan.json"),
    "compare_reruns_give_the_same_bytes": (text(tail=ULA, **SMOKE), "compare", ["", ""], "sfs.csv ula.csv"),
    "compare_reproduces_from_its_resolved_ini":
        (text(tail=ULA, **SMOKE), "compare", FROM_RESOLVED, "sfs.csv ula.csv"),
    "drift_check_prints_the_same_bytes_on_one_and_two_threads": (text(**SMOKE), "drift-check", W12),
    "drift_check_on_a_floored_mixture_prints_the_same_bytes_on_one_and_two_threads":
        (text(tail="eps_rule = fixed:0.2\n", **SMOKE), "drift-check", W12),
    # 4000 particles at m = 2048 are 8 spans of 512: more than 2 * workers at 2 and 3 workers.
    "eight_spans_of_drift_give_the_same_bytes_on_1_2_and_3_threads":
        (text(**dict(SMOKE, steps=2, particles=4000, mc_size=2048)), "sample", [*W12, "--workers 3"],
         "samples.csv"),
    "closed_form_drift_on_two_components_gives_the_same_bytes_on_one_and_three_threads":
        (text(seed=7, steps=10, particles=3000, drift="exact"), "sample", W13, "samples.csv"),
    "closed_form_drift_on_three_components_gives_the_same_bytes_on_one_and_three_threads":
        (text("kind = mixture\nweights = 0.2 0.3 0.5\nmeans = 2; -2; 0.5\n", seed=7, steps=10,
              particles=3000, drift="exact"), "sample", W13, "samples.csv"),
    "a_sweep_gives_the_same_bytes_on_one_and_two_threads":
        (text(tail=PLAN, **SMOKE), "sweep", W12, "plan.json cells.csv"),
    "a_sliced_sweep_gives_the_same_cells_on_one_and_two_threads":
        (text(PM2_2D, PLAN, **SMOKE), "sweep", W12, "cells.csv"),
    "a_2d_sweep_scores_with_sliced_w2_and_keeps_its_pinned_cells_on_one_and_two_threads":
        (text(PM2_2D, PLAN, **SMOKE), "sweep", W12, "cells.csv",
         "45471dd866bca62579b17ae22334d0025b334bf981c3f2f3bc88d7c65067111b"),
    "a_3d_potential_under_mc_grad_keeps_its_pinned_bytes_on_one_and_three_threads":
        (text("kind = gaussian-potential\nmean = 1 -0.5 2\n", **TILES), "sample", W13, "samples.csv",
         "af31239ab4f1b39ae23c09cc50ee94484ab95f71beb8f0000d2c18c61d0e9d4b"),
    "requests_that_resolve_to_one_run_write_one_record": (text(seed=7, steps=10, particles=64), "sample",
                                                          ["", "--drift exact", "--drift exact --mc-size 64"],
                                                          "samples.csv"),
    "compare_runs_that_differ_only_in_drift_write_the_same_ula_csv":
        (text(tail=ULA, seed=7, steps=10, particles=64, mc_size=8), "compare",
         ["--drift mc-grad", "--drift mc-stein"], "ula.csv"),
    "sweeps_that_run_the_same_cells_write_one_plan_json":
        (text(tail=PLAN, seed=7, steps=4, particles=32), "sweep",
         ["", "--drift exact --mc-size 64", "--steps 100"], "plan.json cells.csv"),
}


def refusal(code, content, *commands):
    def run():
        ini("run.ini", content)
        for command, *flags in (line.split() for line in commands):
            expect_exit(code, command, "--config", "run.ini", *flags, "--out", "out", absent="out")
    return run


def agreement(content, *args):
    def run():
        ini("run.ini", content)
        runs_agree(*args)
    return run


def case_import_of_the_package_loads_no_heavy_scipy_subpackage():
    loaded = python("-c", "import sys, sfsampler.cli; print(*sys.modules)").stdout.decode().split()
    heavy = [m for m in loaded if m.startswith(("scipy.optimize", "scipy.spatial", "scipy.sparse"))]
    check(not heavy, "loaded at import: " + " ".join(heavy))


def case_three_drift_tiles_give_the_same_bytes_and_no_warning_on_1_3_and_64_threads():
    ini("run.ini", text(**TILES))
    for run in runs_agree("sample", [*W13, "--workers 64"], "samples.csv"):
        quiet(run)


def case_the_largest_seed_gives_the_same_bytes_and_the_sidecar_names_the_stream_policy():
    import sfsampler

    ini("run.ini", text(steps=10, particles=300, drift="mc-grad", mc_size=128))
    runs_agree("sample", [f"--seed {2**128 - 1} {flag}" for flag in ("--workers 1", *W12)], "samples.csv")
    policy = json.loads(Path("0/samples.json").read_text())["config"]["stream_policy"]
    check(policy == sfsampler.STREAM_POLICY, f"stream_policy {policy}")


def case_regularity_on_a_3d_mixture_follows_the_seed_alone():
    ini("run.ini", text("kind = mixture\nweights = 0.3 0.7\nmeans = 1 0 0; -1 0.5 0\n", seed=5, steps=10,
                        particles=64))
    seed5 = runs_agree("regularity", ["--seed 5", "--seed 5", *(f"--seed 5 {w}" for w in W13)])[0].stdout
    check(seed5 != sfs("regularity", "--config", "run.ini", "--seed", "6").stdout, "seed 6 prints seed 5's bytes")


def case_check_commands_save_under_out_exactly_the_report_they_print():
    ini("run.ini", text(**SMOKE))
    for command, report in (("drift-check", "drift_check.json"), ("regularity", "regularity.json")):
        printed = sfs(command, "--config", "run.ini", "--out", command).stdout
        check(printed == Path(command, report).read_bytes(), f"{command} saved other bytes than it printed")


def case_an_out_below_a_file_exits_2():
    expect_exit(2, "sample", "--config", ini("run.ini", text(**SMOKE)), "--out", "run.ini/x")


def case_regularity_runs_on_the_log_floored_bump_and_exits_5_without_a_floor():
    sfs("regularity", "--config", ini("floored.ini", text(BUMP, seed=1, eps_rule="log")))
    expect_exit(5, "regularity", "--config", ini("bump.ini", text(BUMP, seed=1)))


def case_csv_writer_gives_savetxt_bytes_on_a_million_values():
    import numpy as np
    from sfsampler.batches import _write_rows

    gen = np.random.default_rng(19)
    values = np.exp(gen.uniform(np.log(1e-8), np.log(1e20), 10**6)) * gen.choice([-1.0, 1.0], 10**6)
    values[:16] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                   1e-5, 1e-4, 1e16, 1e17, 1e-14, 2.0**50 + 0.25, 2.0**50 + 0.75, 4096.0]
    values = values.reshape(-1, 4)
    with open("writer.csv", "w", newline="\n") as fh:
        _write_rows(fh, values)
    np.savetxt("savetxt.csv", values, fmt="%.17g", delimiter=",")
    same_bytes("writer.csv", "savetxt.csv")


def diverging_compare():
    ini("run.ini", text(tail="\n[ula]\nstep_size = 5\nburn_in = 20\n", **dict(SMOKE, mc_size=64)))
    return expect_exit(5, "compare", "--config", "run.ini", "--out", "out", absent="out/comparison.json")


def case_a_diverging_langevin_chain_in_compare_exits_5_with_context():
    report = json.loads(diverging_compare().stdout)
    context = sorted(report["context"])
    check(report["error"] == "NonFiniteStateError" and context == ["particle_index", "step_index"],
          f"error report {report}")


def case_a_diverging_compare_prints_no_numpy_warning():
    check(b"RuntimeWarning" not in diverging_compare().stderr, "a RuntimeWarning on stderr")


def case_drift_check_on_a_far_apart_mixture_is_silent():
    quiet(sfs("drift-check", "--config", ini("run.ini", text(PM2.replace("2; -2", "40; -40"), seed=7))))


def case_a_recorded_path_changes_no_byte_of_the_run():
    ini("run.ini", text(**SMOKE))
    runs_agree("sample", ["", "--trajectory"], "samples.csv resolved.ini")
    check(Path("1/trajectories.npy").exists(), "--trajectory wrote no trajectories.npy")
    check(not Path("0/trajectories.npy").exists(), "a run without --trajectory wrote trajectories.npy")


def case_target_options_that_build_one_target_write_one_plan_json():
    for out, target in (("plain", "kind = standard\n"), ("dim", "kind = standard\ndim = 1\n")):
        sfs("sweep", "--config", ini("run.ini", text(target, PLAN, seed=7, steps=4, particles=32)), "--out", out)
    same_bytes("plain/plan.json", "dim/plan.json")


def case_regularity_reports_b_sup_and_checks_it_against_gamma_over_xi():
    reports = []
    for xi in ("0.13533", "5000"):
        declared = ini("run.ini", text(PM2 + f"\n[target.regularity]\ngamma = 5961.916\nxi = {xi}\n", seed=1))
        reports.append(json.loads(sfs("regularity", "--config", declared).stdout))
    keys = [(sorted(r["estimate"]), sorted(r["checks"])) for r in reports]
    ok = [r["checks"]["b_sup_ok"] for r in reports]
    want = (["b_sup_hat", "n_points"], ["b_sup_bound", "b_sup_ok"])
    check(keys == [want, want] and ok == [True, False], f"keys {keys}, b_sup_ok {ok}")


def case_a_floored_target_with_an_infinite_gradient_where_f_is_0_runs_silently_on_1_and_3_threads():
    here = os.path.dirname(os.path.abspath(__file__))
    one, three = (python("-W", "error", "-c", f"import sys; sys.path.insert(0, {here!r}); import cli_smoke; "
                         f"cli_smoke.floored_cut_samples({workers})") for workers in (1, 3))
    quiet(one)
    quiet(three)
    check(one.stdout == three.stdout, "three threads give other sample bytes than one")


CASES = {name: refusal(*row) for name, row in REFUSALS.items()}
CASES.update((name, agreement(*row)) for name, row in AGREE.items())
CASES.update((name[5:], fn) for name, fn in list(globals().items()) if name.startswith("case_"))


def run_case(command, name):
    """Run one case with this sfs command in a fresh directory; return whether it passed
    and its report line."""
    SFS[:] = command
    start, problem, home = time.perf_counter(), None, os.getcwd()
    with tempfile.TemporaryDirectory(prefix="sfs-smoke-") as work:
        os.chdir(work)
        try:
            CASES[name]()
        except AssertionError as exc:
            problem = str(exc)
        except Exception as exc:  # a crash fails its case; the others still run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = f"{type(exc).__name__} at {os.path.basename(where.filename)}:{where.lineno}: {exc}"
        finally:
            os.chdir(home)
    took = f"{time.perf_counter() - start:4.1f} s"
    return problem is None, f"ok    {took}  {name}" if problem is None else f"FAIL  {took}  {name}: {problem}"


def main(argv):
    if not argv:
        sys.exit("usage: python tests/cli_smoke.py SFS-COMMAND...")
    passed = 0
    # Two worker processes run the cases, each in its own directory; lines print in case order.
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for ok, line in pool.imap(functools.partial(run_case, argv), CASES):
            passed += ok
            print(line, flush=True)
    print(f"{passed} of {len(CASES)} cases passed")
    return 0 if passed == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
