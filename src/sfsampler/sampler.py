"""Euler-Maruyama integration of the drifted diffusion over unit time.

A run starts every particle at the origin and takes K equal steps of size
s = 1/K, evaluating the drift at the left endpoint t_k = k/K (never at
t = 1) and adding sqrt(s) Gaussian increments. Increments for step k are
the rows of one block from the (seed, increment, k) substream; a
Monte-Carlo drift batch for particle i at step k is row i of the
(seed, drift, k) block. The drift evaluator owns the worker threads, which
only split its evaluation across particles, never the draws, so results
are byte-identical for any worker count.

Also provides an unadjusted Langevin baseline over the same targets for
budget-matched comparisons, run by the same Euler-Maruyama loop.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .batches import SampleBatch
from .drift import _CHUNK_VALUES  # noqa: F401 - bench/replay.py chunks its replay by it
from .drift import DRIFT_MODES, DriftEvaluator
from .errors import ConfigError, NonFiniteStateError, UnsupportedTargetError, check_int, check_real
from .targets import _record, _returned, regularize

TRAJECTORY_BUDGET = 1 << 27  # recorded path values (float64), about 1 GiB


@dataclass(frozen=True)
class EpsSchedule:
    """Rule that picks the Gaussian-floor weight from the MC batch size m.

    Rules: "none" (no floor), "fixed" (explicit value), "log" with
    eps = (log m)^(-1/5), and "power" with eps = m^(-1/5). The rules tied
    to m exist because the regularized drift error balances the floor bias
    against Monte-Carlo noise at those rates.
    """

    rule: str = "none"
    value: float | None = None

    def __post_init__(self):
        if self.rule not in ("none", "fixed", "log", "power"):
            raise ValueError(f"unknown eps rule {self.rule!r}")
        if self.rule == "fixed":
            value = check_real("fixed eps", self.value, low=0.0, high=1.0)
            object.__setattr__(self, "value", value)
        elif self.value is not None:
            raise ValueError(f"eps rule {self.rule!r} takes no value")

    @staticmethod
    def parse(text):
        """Parse CLI/config syntax: none | log | power | fixed:<value>.

        Text that is no rule raises ConfigError; a fixed value that is a
        number outside (0, 1) raises the constructor's ValueError.
        """
        text = text.strip()
        if text in ("none", "log", "power"):
            return EpsSchedule(rule=text)
        rule, _, value = text.partition(":")
        try:
            value = float(value) if rule == "fixed" else None
        except ValueError:
            value = None
        if value is None:
            raise ConfigError(f"cannot parse eps rule {text!r}")
        return EpsSchedule(rule="fixed", value=value)

    def __str__(self):
        """The text form ``parse`` reads back to an equal schedule."""
        return f"fixed:{self.value!r}" if self.rule == "fixed" else self.rule

    def bind(self, m=None):
        """Resolve the schedule to a concrete eps, once per run."""
        if self.rule == "none":
            return 0.0
        if self.rule == "fixed":
            return self.value
        if m is None:
            raise ValueError(
                f"eps rule {self.rule!r} is driven by the Monte-Carlo batch size, "
                "which the exact evaluator does not have"
            )
        m = check_int("m", m)
        if self.rule == "log":
            if m < 3:
                raise ValueError("log rule needs m >= 3 to give eps < 1")
            return float(math.log(m) ** -0.2)
        if m < 2:
            raise ValueError("power rule needs m >= 2 to give eps < 1")
        return float(m ** -0.2)


@dataclass(frozen=True)
class SamplerConfig:
    """The request for one diffusion run, which ``resolved.ini`` writes back.

    ``sfs_run`` records the drift, m and eps it resolves to, not the request.

    Attributes:
        steps: number K of Euler steps.
        particles: number n of independent particles.
        seed: root seed; runs are a pure function of (config, target).
        drift: "auto", "exact", "mc-grad", or "mc-stein".
        mc_size: Monte-Carlo batch size m for the mc modes.
        eps: Gaussian-floor schedule, bound once per run.
    """

    steps: int
    particles: int
    seed: int
    drift: str = "auto"
    mc_size: int | None = None
    eps: EpsSchedule = EpsSchedule()

    def __post_init__(self):
        for name in ("steps", "particles"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.drift not in ("auto",) + DRIFT_MODES:
            raise ValueError(f"drift must be auto or one of {DRIFT_MODES}, got {self.drift!r}")
        if self.mc_size is not None:
            object.__setattr__(self, "mc_size", check_int("mc_size", self.mc_size))
        object.__setattr__(self, "seed", _rng.check_seed(self.seed))


def _run_evaluator(config, target, workers=1):
    """The evaluator a run of ``config`` uses, on the floored target when eps > 0, and its eps."""
    ev = DriftEvaluator(target, config.drift, m=config.mc_size, seed=config.seed, workers=workers)
    eps = config.eps.bind(ev.m)
    return (dataclasses.replace(ev, target=regularize(target, eps)) if eps > 0.0 else ev), eps


@np.errstate(over="ignore", invalid="ignore")  # the error is the report; pool threads keep theirs
def _euler_maruyama(x, drift, h, scale, seed, role, steps, message, path=None):
    """Take ``steps`` in-place steps x += h * drift(x, k) + scale * xi_k; return x.

    xi_k is the (seed, role, k) block, drawn into one reused buffer, and the
    drift's fresh array is scaled in place. The first non-finite row raises
    NonFiniteStateError(message.format(row, k)); ``path[:, k + 1]`` gets x.
    """
    inc = np.empty_like(x)
    for k in range(steps):
        b = drift(x, k)
        _rng.substream(seed, role, k).standard_normal(out=inc)
        b *= h  # x += h * b, then x += scale * inc, with no temporaries
        x += b
        inc *= scale
        x += inc
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise NonFiniteStateError(message.format(bad, k), particle_index=bad, step_index=k)
        if path is not None:
            path[:, k + 1] = x
    return x


def sfs_run(config, target, *, workers=1, record_trajectory=False):
    """Integrate the diffusion and return terminal states.

    Args:
        config: SamplerConfig; the eps schedule is bound here, and a
            positive eps swaps the run target for its regularized form.
        target: TargetSpec to sample from.
        workers: drift-evaluation threads, at least 1, which the run's
            DriftEvaluator checks and owns. Any value yields byte-identical
            results; more threads only speed up Monte-Carlo drift.
        record_trajectory: keep the whole path, not just terminal states;
            the samples and the resolved config are the same either way.
            A path of more than TRAJECTORY_BUDGET values is refused before
            any step.

    Returns:
        SampleBatch with (n, dim) terminal states, the resolved record (its
        ``sfs`` block: drift, m, eps, particles, seed, steps), and its digest.

    Raises:
        UnsupportedTargetError, ValueError: the drift or the eps floor
            does not resolve for this config and target, before any step.
        DriftSingularityError: every probe of some particle fell where
            f = 0 (propagates with particle and step context).
        NonFiniteStateError: a particle state left the finite range.
    """
    ev, eps = _run_evaluator(config, target, workers)

    n, p, k_steps = config.particles, target.dim, config.steps
    resolved = _record(target, algorithm="sfs", sfs={"drift": ev.mode, "eps": eps, "m": ev.m,
                       "particles": n, "seed": config.seed, "steps": k_steps})

    trajectories = None
    if record_trajectory:
        need = n * (k_steps + 1) * p
        if need > TRAJECTORY_BUDGET:
            raise ValueError(f"trajectory recording needs {need} values, over the budget of "
                             f"{TRAJECTORY_BUDGET}; record fewer particles or steps")
        trajectories = np.zeros((n, k_steps + 1, p))

    start = time.perf_counter()
    y = _euler_maruyama(
        np.zeros((n, p)), lambda x, k: ev.batch(x, k / k_steps, k),
        1.0 / k_steps, math.sqrt(1.0 / k_steps), config.seed, _rng.ROLE_INCREMENT, k_steps,
        "particle {} became non-finite after step {}", trajectories)
    return SampleBatch.record(y, resolved, config.seed, start, trajectories)


def ula_run(target, particles, seed, steps, step_size, burn_in):
    """Unadjusted Langevin baseline: n parallel chains, terminal states kept.

    Each chain starts from the base Gaussian and runs burn_in plus steps
    iterations of x <- x + h grad log pi(x) + sqrt(2h) xi_k, where pi is the
    target density: ``sfs_run``'s Euler-Maruyama loop, with xi_k from the
    Langevin step streams. A chain that leaves the finite range raises
    NonFiniteStateError, the first such chain and its iteration in the
    message. The record holds these settings alone.

    Args:
        target: TargetSpec with a gradient.
        particles: number n of chains.
        seed: root seed of the Langevin init and step streams.
        steps: iterations kept after burn-in, at least 1.
        step_size: positive Langevin step h.
        burn_in: non-negative iterations discarded before the terminal state.

    Returns:
        SampleBatch of terminal states.
    """
    if target.grad_log_f is None:
        raise UnsupportedTargetError(f"Langevin needs grad log f, {target.name!r} has none")
    n, p, seed = check_int("particles", particles), target.dim, _rng.check_seed(seed)
    steps, burn_in = check_int("steps", steps), check_int("burn_in", burn_in, minimum=0)
    step_size = check_real("step_size", step_size, low=0.0)
    resolved = _record(target, algorithm="ula", ula={
        "burn_in": burn_in, "particles": n, "seed": seed, "step_size": step_size, "steps": steps})

    start = time.perf_counter()
    x = _euler_maruyama(
        _rng.substream(seed, _rng.ROLE_ULA_INIT, 0).standard_normal((n, p)),
        lambda x, k: _returned(target, "grad_log_f", target.grad_log_f(x), (n, p)) - x,
        step_size, math.sqrt(2.0 * step_size), seed, _rng.ROLE_ULA_STEP, burn_in + steps,
        "Langevin chain {} became non-finite after iteration {}")
    return SampleBatch.record(x, resolved, seed, start)
