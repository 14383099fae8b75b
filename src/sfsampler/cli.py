"""Command line front end.

Subcommands: sample (run the diffusion sampler and write a batch),
drift-check (Monte-Carlo drift against the closed form on a grid),
sweep (run an experiment plan), compare (budget-matched Langevin
comparison), regularity (the grid supremum of |b| against the declared
gamma / xi). Each prints one JSON object, its report or its error, and exits
with a stable code rather than a traceback: 2 config or I/O, 3 unknown target
kind, 4 validation, unsupported operation or refused allocation, 5 numerical
breakdown mid-run. A report that cannot be written exits 2, unless the reader
left (a closed pipe): then the command keeps its own code.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .batches import dump_json, save_batch, write_json
from .config import (
    RUN_KEYS,
    VALUE_TYPES,
    plan_from_config,
    read_ini,
    sampler_from_config,
    target_from_config,
    ula_from_config,
    write_resolved_ini,
)
from .drift import ProbeGrid, _mc_mode, drift_exact, estimate_regularity, probe_points
from .drift import drift_mc_stein  # noqa: F401 - bench/workloads.py patches cli.drift_mc_stein
from .errors import ConfigError, DriftSingularityError, NonFiniteStateError, UnknownTargetError
from .harness import compare_samplers, run_experiment
from .sampler import _run_evaluator, sfs_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNKNOWN_TARGET = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfs",
        description="Diffusion-based sampler for unnormalized targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, report, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=report is None, help="output directory")
        for key, kind in RUN_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), type=VALUE_TYPES[kind],
                           help=f"override [run] {key}")
        p.add_argument("--workers", type=int, default=1, help="drift evaluation threads (>= 1)")
        if name == "sample":
            p.add_argument("--trajectory", action="store_true", help="record and save full paths")
        p.set_defaults(func=func, report=report)
    return parser


def _load(args):
    """Read the run file: its sections, the target, and the sampler config.

    Every subcommand starts here, so an --out that cannot become a directory
    exits 2 before any work; --workers below 1 exits 4 at the command's first
    drift evaluator, also before any work. Each [run] key whose flag was given
    overrides the file's value.
    """
    sections = read_ini(args.config)
    target = target_from_config(sections)
    overrides = {key: getattr(args, key) for key in RUN_KEYS}
    config = sampler_from_config(sections, overrides)
    path = os.path.abspath(args.out or ".")  # the nearest existing path must be a directory
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"--out {args.out}: {path} is not a directory")
    return sections, target, config


def _cmd_sample(args):
    _, target, config = _load(args)
    batch = sfs_run(config, target, workers=args.workers, record_trajectory=args.trajectory)
    paths = save_batch(batch, args.out, stem="samples")
    write_resolved_ini(os.path.join(args.out, "resolved.ini"), target, config)
    if batch.trajectories is not None:
        np.save(os.path.join(args.out, "trajectories.npy"), batch.trajectories)
    return {
        "command": "sample",
        "config_digest": batch.config_digest,
        "csv": paths["csv"],
        "dim": batch.dim,
        "n": batch.n,
        "out": args.out,
        "wallclock": batch.wallclock,
    }


def _mc_evaluator(args):
    """The Monte-Carlo evaluator of the check commands, on ``--workers`` threads.

    m defaults to 64. The run's own drift and floor resolve first, so every
    config ``sample`` refuses is refused here; a closed-form run is then checked
    through the target's Monte-Carlo mode (the gradient form when there is one).
    """
    _, target, config = _load(args)
    if config.mc_size is None:
        config = replace(config, mc_size=64)
    ev, _ = _run_evaluator(config, target, args.workers)
    if ev.mode == "exact":
        ev, _ = _run_evaluator(replace(config, drift=_mc_mode(target)), target, args.workers)
    return ev


def _cmd_drift_check(args):
    ev = _mc_evaluator(args)
    target = ev.target
    grid = ProbeGrid()
    pts = probe_points(grid, target.dim, seed=ev.seed)
    cells = []
    worst = 0.0
    for t in grid.t_values:
        exact = drift_exact(target, pts, t)
        approx = ev.batch(pts, t, 0)
        err = np.linalg.norm(approx - exact, axis=1)
        rms = float(np.sqrt(np.mean(err**2)))
        worst = max(worst, float(err.max()))
        cells.append({"t": float(t), "rms": rms, "max": float(err.max())})
    return {
        "command": "drift-check",
        "cells": cells,
        "max_error": worst,
        "mc_size": ev.m,
        "mode": ev.mode,
        "n_points": int(len(pts)),
        "seed": ev.seed,
        "target": target.name,
    }


def _cmd_sweep(args):
    sections, target, base = _load(args)
    plan = plan_from_config(sections, target, base)
    summary = run_experiment(plan, args.out, workers=args.workers)
    write_resolved_ini(os.path.join(args.out, "resolved.ini"), target, base, plan=plan)
    return {
        "command": "sweep",
        "cells": len(summary["cells"]),
        "failures": summary["failures"],
        "fit": summary["fit"],
        "out": args.out,
        "plan_digest": summary["plan_digest"],
    }


def _cmd_compare(args):
    sections, target, config = _load(args)
    ula = ula_from_config(sections)
    report = compare_samplers(
        target,
        config,
        ula_step_size=ula["step_size"],
        ula_burn_in=ula["burn_in"],
        out_dir=args.out,
        workers=args.workers,
    )
    write_resolved_ini(os.path.join(args.out, "resolved.ini"), target, config, ula=ula)
    return {"command": "compare", "out": args.out, **report}


def _cmd_regularity(args):
    ev = _mc_evaluator(args)
    target = ev.target
    estimate = estimate_regularity(ev)
    report = {"command": "regularity", "estimate": asdict(estimate), "target": target.name}
    if target.regularity is not None:
        reg = target.regularity
        b_sup_bound = reg.gamma / reg.xi
        report["declared"] = reg.describe()
        report["checks"] = {
            "b_sup_bound": float(b_sup_bound),
            "b_sup_ok": bool(estimate.b_sup_hat <= b_sup_bound),
        }
    return report


# name: (handler, report file or None, help), in --help order. --out is
# optional where a report file is named, and main saves the report there.
COMMANDS = {
    "sample": (_cmd_sample, None, "run the sampler and write a batch"),
    "drift-check": (_cmd_drift_check, "drift_check.json",
                    "Monte-Carlo drift against the closed form on a grid"),
    "sweep": (_cmd_sweep, None, "run the [plan] sweep from the config"),
    "compare": (_cmd_compare, None, "budget-matched Langevin comparison"),
    "regularity": (_cmd_regularity, "regularity.json",
                   "grid sup |b| against the declared gamma / xi"),
}


# First match wins; any other exception propagates, so a programming error shows.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (UnknownTargetError, EXIT_UNKNOWN_TARGET),
    ((DriftSingularityError, NonFiniteStateError), EXIT_NUMERICAL),
    ((ValueError, MemoryError), EXIT_VALIDATION),  # UnsupportedTargetError is a ValueError
    (OSError, EXIT_CONFIG),
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        payload = args.func(args)
        if args.report and args.out:
            write_json(os.path.join(args.out, args.report), payload)
        code = EXIT_OK
    except Exception as exc:
        code = next((c for kinds, c in EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        context = {"context": exc.context} if hasattr(exc, "context") else {}
        payload = {"error": type(exc).__name__, "exit": code, "message": str(exc), **context}
    try:
        dump_json(payload, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at /dev/null so the exit flush cannot fail again. A reader that
        # left keeps the command's code; any other failed write is an I/O failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code if isinstance(exc, BrokenPipeError) else EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
