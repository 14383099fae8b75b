"""Sweep and comparison harness: run cells, score them, persist artifacts.

A plan fixes a target, a base sampler config, one swept axis, and a
replication count. Each cell runs its replications with child seeds
derived from the root seed, scores every run against fresh ground truth,
and the harness writes three artifacts under the output directory:
plan.json (the work its cells run), cells.csv (one scored row per cell,
stable byte-for-byte across reruns), and summary.json (fit, failures, timing).
Cell failures are isolated: one bad cell is recorded and skipped, the
sweep continues.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .batches import config_digest, rate_table_csv, save_batch, write_json
from .drift import default_drift_mode
from .metrics import fit_rate, w2_metric, w2_noise_floor, w2_score
from .errors import UnsupportedTargetError, check_int, check_real
from .sampler import EpsSchedule, SamplerConfig, _run_evaluator, sfs_run, ula_run
from .targets import TargetSpec, describe, sample_ground_truth

SWEEP_AXES = ("steps", "particles", "mc_size", "eps")


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep: one axis varied over at least three values, scored by the target's w2_metric.

    Attributes:
        target: the built TargetSpec; plan.json holds its batch-record description.
        base: the SamplerConfig request all cells share; its seed is the sweep root.
        axis: the swept SamplerConfig field: "steps", "particles", "mc_size" or "eps".
        values: at least three axis values, kept as floats.
        replications: independent runs per cell, at least three.
    """

    target: TargetSpec
    base: SamplerConfig
    axis: str
    values: tuple
    replications: int = 3

    def __post_init__(self):
        object.__setattr__(self, "replications", check_int("replications", self.replications, 3))
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        # Floats, as a run file gives them, so equal values give one plan.json. A
        # count axis takes whole values only; one below 1 fails its own cell.
        values = tuple(check_real(f"{self.axis} value", value) for value in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 3:
            raise ValueError(f"a sweep needs at least 3 axis values, got {len(values)}")
        if len(set(values)) < len(values):
            raise ValueError(f"{self.axis} values must differ, got {values!r}")
        for value in values:
            if not value.is_integer() and self.axis != "eps":
                raise ValueError(f"{self.axis} values must be whole numbers, got {value!r}")

    def describe(self):
        """The plan as plan.json holds it: the base as its cells run it.

        The drift is what "auto" resolves to, m is None for the closed form, the
        eps rule stays as given (each cell binds it), and the swept setting is
        left out, so requests that run alike give one plan. "metric" is the
        W2 its cells score with.
        """
        desc = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        base = dataclasses.asdict(self.base)
        drift = default_drift_mode(self.target) if self.base.drift == "auto" else self.base.drift
        base.update(drift=drift, mc_size=None if drift == "exact" else self.base.mc_size)
        del base[self.axis]
        return {**desc, "base": base, "metric": w2_metric(self.target.dim),
                "target": describe(self.target)}


def _cell_config(base, axis, value):
    value = EpsSchedule(rule="fixed", value=value) if axis == "eps" else int(value)
    return dataclasses.replace(base, **{axis: value})  # every axis is a SamplerConfig field


def run_experiment(plan, out_dir, workers=1):
    """Run every cell of a plan and write plan.json, cells.csv, summary.json.

    ``workers`` drift threads run each cell; any count gives the same bytes.

    Returns:
        The summary dict. Failed cells appear under "failures" keyed by
        axis value; successful cells carry mean W2, its standard error
        over replications, and the cell's ground-truth noise floor.
    """
    target = plan.target
    if target.sampler is None:
        raise UnsupportedTargetError(
            f"a sweep scores against ground truth; target {target.name!r} has no sampler")
    # The base run's drift and floor as every cell resolves them; on the mc_size
    # and eps axes each cell brings its own m or floor, so the base has none.
    base = plan.base
    if plan.axis in ("mc_size", "eps"):
        m = 1 if plan.axis == "mc_size" else base.mc_size
        base = dataclasses.replace(base, mc_size=m, eps=EpsSchedule())
    ev, _ = _run_evaluator(base, target, workers)
    if plan.axis == "mc_size" and ev.mode == "exact":
        raise ValueError(
            "an mc_size sweep needs a Monte-Carlo drift mode; the closed-form drift ignores m"
        )

    metric = w2_metric(target.dim)
    plan_desc = plan.describe()
    plan_digest = config_digest(plan_desc)
    write_json(os.path.join(out_dir, "plan.json"), {"digest": plan_digest, "plan": plan_desc})

    start = time.perf_counter()
    cells = []
    failures = {}
    for ci, value in enumerate(plan.values):
        try:
            cfg = _cell_config(plan.base, plan.axis, value)
            seeds = _rng.child_seeds(plan.base.seed, ci, 2 * plan.replications + 1)
            floor = w2_noise_floor(target, cfg.particles, seeds[-1], pairs=1)
            scores = []
            for r in range(plan.replications):
                run_cfg = dataclasses.replace(cfg, seed=seeds[2 * r])
                batch = sfs_run(run_cfg, target, workers=workers)
                truth = sample_ground_truth(target, cfg.particles, seeds[2 * r + 1])
                scores.append(w2_score(metric, batch.samples, truth.samples, seeds[2 * r + 1]))
            scores = np.asarray(scores)
            cells.append(
                {
                    "noise_floor": float(floor),
                    "replications": plan.replications,
                    "value": value,
                    "w2_mean": float(scores.mean()),
                    "w2_se": float(scores.std(ddof=1) / np.sqrt(len(scores))),
                }
            )
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures[str(value)] = f"{type(exc).__name__}: {exc}"

    columns = ("value", "replications", "w2_mean", "w2_se", "noise_floor")
    rate_table_csv(os.path.join(out_dir, "cells.csv"), (plan.axis,) + columns[1:],
                   [tuple(c[key] for key in columns) for c in cells])

    fit = None
    if len(cells) >= 3:
        xs = [float(c["value"]) for c in cells]
        ys = [c["w2_mean"] for c in cells]
        if all(v > 0 for v in xs) and all(v > 0 for v in ys):
            fit = dataclasses.asdict(fit_rate(xs, ys))

    summary = {
        "axis": plan.axis,
        "cells": cells,
        "failures": failures,
        "fit": fit,
        "plan_digest": plan_digest,
        "wallclock": time.perf_counter() - start,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def mode_mass_balance(samples, mixture):
    """Fraction of samples nearest each mixture mean, against the weights.

    A sampler that loses a mode shows up as a large max_abs_error here
    even when scalar metrics look tolerable. The samples must be (n, dim),
    n >= 1, and finite: a NaN row is nearest no mean, and no rows give no
    fractions.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] != mixture.dim:
        raise ValueError(f"samples must be (n, {mixture.dim}), got shape {x.shape}")
    if x.shape[0] == 0 or not np.isfinite(x).all():
        raise ValueError("samples must be at least one row, every value finite")
    sq = np.zeros((x.shape[0], mixture.n_components))
    for j in range(mixture.dim):
        sq += (x[:, j, None] - mixture.means[None, :, j]) ** 2
    # Compare roots, as scipy's cdist does: squared distances one ulp apart
    # can share a root, and then they tie and the lower index wins.
    assign = np.argmin(np.sqrt(sq), axis=1)
    frac = np.bincount(assign, minlength=mixture.n_components) / x.shape[0]
    return {
        "fractions": [float(v) for v in frac],
        "max_abs_error": float(np.max(np.abs(frac - mixture.weights))),
        "weights": [float(w) for w in mixture.weights],
    }


def compare_samplers(target, config, ula_step_size, ula_burn_in, out_dir=None, workers=1):
    """Run the diffusion sampler and a budget-matched Langevin baseline.

    The budget is particles * steps * mc_size target evaluations for the
    diffusion run, so each Langevin chain runs steps * mc_size iterations:
    ula_burn_in discarded, the rest kept. Neither run records its path.

    Args:
        target: TargetSpec both samplers draw from.
        config: SamplerConfig for the diffusion run (a Monte-Carlo drift
            mode; the budget is undefined for the exact evaluator).
        ula_step_size: Langevin step h.
        ula_burn_in: discarded Langevin iterations, fewer than the budget.
        out_dir: when given, write comparison.json and both sample CSVs.
        workers: drift threads for the diffusion run, checked before either run.

    Returns:
        Report dict with per-sampler W2 and mode-mass balance.
    """
    if target.sampler is None:
        raise UnsupportedTargetError(
            f"a comparison scores against ground truth; target {target.name!r} has no sampler")
    ev, _ = _run_evaluator(config, target, workers)
    if ev.mode == "exact":
        raise ValueError(
            "budget matching needs a Monte-Carlo drift mode; the exact "
            "evaluator has no per-step evaluation count"
        )
    total = config.steps * ev.m
    ula_burn_in = check_int("ula_burn_in", ula_burn_in, minimum=0)
    ula_post_steps = total - ula_burn_in
    if ula_post_steps < 1:
        raise ValueError(f"burn_in {ula_burn_in} eats the whole budget of {total} iterations")

    # Langevin first, so its checks refuse bad input before any diffusion work.
    ula_batch = ula_run(target, config.particles, config.seed, ula_post_steps, ula_step_size,
                        ula_burn_in)
    sfs_batch = sfs_run(config, target, workers=workers)

    gt_seed = _rng.child_seeds(config.seed, 0, 1)[0]
    truth = sample_ground_truth(target, config.particles, gt_seed).samples
    metric = w2_metric(target.dim)

    def score(samples):
        entry = {"w2": w2_score(metric, samples, truth, gt_seed), "metric": metric}
        if target.mixture is not None:
            entry["mode_mass"] = mode_mass_balance(samples, target.mixture)
        return entry

    report = {
        "budget": {
            "evaluations": total * config.particles,
            "per_particle": total,
            "ula_burn_in": ula_burn_in,
            "ula_post_steps": ula_post_steps,
            "ula_step_size": ula_batch.config["ula"]["step_size"],
        },
        "config_digest": sfs_batch.config_digest,
        "sfs": score(sfs_batch.samples),
        "target": sfs_batch.config["target"],
        "ula": score(ula_batch.samples),
    }
    if out_dir is not None:
        save_batch(sfs_batch, out_dir, stem="sfs")
        save_batch(ula_batch, out_dir, stem="ula")
        write_json(os.path.join(out_dir, "comparison.json"), report)
    return report
