"""The benchmark's workloads: their inputs, their runs and their output checks.

Each workload is one way a user drives the drift loop. README.md in this
directory records why each was chosen and which layer metric should move
which end-to-end metric on it. Inputs come from the benchmark seed: it is
split into the workload's run seeds (SUBSEEDS unless it sets more; the
timed runs cycle through them) and TRUTH_BATCHES ground-truth seeds. Runs with the same run seed must give
the same bytes. sample_w2_ratio pools the samples of all run seeds, and
drift_err_rms is the median over them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from unittest import mock

import numpy as np

import sfsampler.drift
import sfsampler.rng
from sfsampler import cli
from sfsampler.config import read_ini, sampler_from_config, target_from_config
from sfsampler.drift import ProbeGrid, _mc_drift_core, drift_exact, probe_points
from sfsampler.metrics import sliced_w2, w2_noise_floor, wasserstein2_1d
from sfsampler.sampler import SamplerConfig, sfs_run
from sfsampler.targets import regularize, sample_ground_truth

SUBSEEDS = 8
# W2 at the noise floor varies by about 40% (IQR over median) from one
# ground-truth batch to the next, whatever n, so the pooled samples are
# compared with several. Pooling the run seeds' batches also lets the
# sampler's bias, which does not shrink with n, dominate the noise.
TRUTH_BATCHES = 8
# The noise floor is a property of (target, n), not of a run's inputs, so
# it is estimated once from a fixed seed with enough pairs to be steady.
FLOOR_SEED = 424242
FLOOR_PAIRS = 8
# The drift error looks at no more than this many samples of a batch.
ERR_POINTS = 8192
# ``sfs drift-check`` checks mc-grad with this m when the config sets none.
DRIFT_CHECK_M = 64

TARGET_INI = {
    "mix2d": "kind = mixture\nweights = 0.5 0.5\nmeans = 2 0; -2 0\n",
    "mix1d": "kind = mixture\nweights = 0.5 0.5\nmeans = 2; -2\n",
    "bump": "kind = bump\nradius = 3\n",
}


@dataclass(frozen=True)
class Workload:
    """One workload.

    kind is "run" (library ``sfs_run``), "sample" (``sfs sample``, in
    process) or "check" (``sfs drift-check``, in process). For "check",
    particles and steps size the untimed sampler run of the checked drift
    that gives sample_w2_ratio. The two limits are the largest
    sample_w2_ratio and drift_err_rms the benchmark accepts as correct,
    about twice what the code measured when the benchmark was written.
    seeds is the number of run seeds, whose samples sample_w2_ratio pools.
    """

    name: str
    kind: str
    target: str
    drift: str
    particles: int
    steps: int
    mc_size: int | None
    w2_ratio_limit: float
    drift_err_limit: float
    eps_rule: str = "none"
    workers: int = 1
    seeds: int = SUBSEEDS

    def ini_text(self, seed):
        run = [f"seed = {seed}", f"drift = {self.drift}", f"eps_rule = {self.eps_rule}"]
        if self.kind != "check":
            run += [f"steps = {self.steps}", f"particles = {self.particles}"]
        if self.mc_size is not None:
            run.append(f"mc_size = {self.mc_size}")
        return "[target]\n" + TARGET_INI[self.target] + "\n[run]\n" + "\n".join(run) + "\n"


# BENCHMARK.json lists, and so gates changes on, only mix2d-grad and
# mix1d-exact-sample. The other two run by name: on a shared 2-core VM
# their throughput spread too widely from one invocation to the next
# (README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mix2d-grad", "run", "mix2d", "mc-grad", particles=4096, steps=3,
                 mc_size=256, w2_ratio_limit=25.0, drift_err_limit=0.15),
        Workload("bump-eps-grad-w2", "run", "bump", "mc-grad", particles=256, steps=4,
                 mc_size=10_000, eps_rule="log", workers=2, seeds=2 * SUBSEEDS,
                 w2_ratio_limit=6.0, drift_err_limit=0.01),
        Workload("mix1d-exact-sample", "sample", "mix1d", "exact", particles=100_000,
                 steps=25, mc_size=None, w2_ratio_limit=30.0, drift_err_limit=0.06),
        Workload("mix2d-stein-check", "check", "mix2d", "mc-stein", particles=1024,
                 steps=4, mc_size=16, w2_ratio_limit=12.0, drift_err_limit=5.0),
    )
}


_QUAD_Z = np.linspace(-12.0, 12.0, 4801)


def quadrature_drift_1d(target, x, t):
    """Reference drift at 1-D points x: grad log Q_{1-t} f by quadrature.

    Sums phi(z) f(x + sqrt(1-t) z) grad log f over a fine uniform z grid,
    normalized by the same sum without the gradient; independent of the
    Monte-Carlo estimator it checks.
    """
    z = _QUAD_Z
    pts = (x[:, :1] + math.sqrt(1.0 - t) * z[None, :]).reshape(-1, 1)
    lf = target.log_f(pts).reshape(len(x), -1) - 0.5 * z * z
    g = target.grad_log_f(pts).reshape(len(x), -1)
    w = np.exp(lf - lf.max(axis=1, keepdims=True))
    return ((w * g).sum(axis=1) / w.sum(axis=1))[:, None]


def traced_target(target, tracer):
    """The target with spans, counting rows, around its callables."""
    grad = target.grad_log_f
    return dataclasses.replace(
        target,
        log_f=tracer.wrap("targets.log_f", target.log_f, count_rows=True),
        grad_log_f=None if grad is None else tracer.wrap("targets.grad_log_f", grad, count_rows=True),
    )


class Bench:
    """A workload's inputs, written under ``out_dir``, and its runs."""

    def __init__(self, spec, seed, out_dir):
        self.spec = spec
        state = np.random.SeedSequence(int(seed)).generate_state(
            spec.seeds + TRUTH_BATCHES, np.uint64
        )
        self.run_seeds = [int(s) for s in state[:spec.seeds]]
        self.truth_seeds = [int(s) for s in state[spec.seeds:]]
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.ini = os.path.join(out_dir, "input.ini")
        with open(self.ini, "w") as fh:
            fh.write(spec.ini_text(self.run_seeds[0]))
        self.sample_dir = os.path.join(out_dir, "sample")
        sections = read_ini(self.ini)
        self.target = target_from_config(sections)
        self.config = sampler_from_config(sections)
        eps = self.config.eps.bind(spec.mc_size if spec.drift != "exact" else None)
        self.run_target = regularize(self.target, eps) if eps > 0.0 else self.target
        self.digests = {}
        self.first = {}

    def work(self):
        """(particle_steps, probe_evals) of one run.

        drift-check makes one drift evaluation per (grid point, t); the
        exact drift evaluates every mixture component where the Monte-Carlo
        drift evaluates m probes.
        """
        spec = self.spec
        if spec.kind == "check":
            grid = ProbeGrid()
            calls = len(probe_points(grid, self.target.dim)) * len(grid.t_values)
            return calls, calls * spec.mc_size
        steps = spec.particles * spec.steps
        if spec.drift == "exact":
            return steps, steps * self.target.mixture.n_components
        return steps, steps * spec.mc_size

    def run_once(self, i, tracer=None, target=None):
        """One run on run seed i; returns the raw output (not yet checked)."""
        spec, seed = self.spec, self.run_seeds[i]
        if spec.kind == "run":
            config = dataclasses.replace(self.config, seed=seed)
            with tracer.span("sampler.sfs_run") if tracer else contextlib.nullcontext():
                return sfs_run(config, target or self.target, workers=spec.workers).samples
        command = "sample" if spec.kind == "sample" else "drift-check"
        return self._cli(command, seed, tracer)

    def _cli(self, command, seed, tracer=None):
        argv = [command, "--config", self.ini, "--seed", str(seed)]
        if command == "sample":
            argv += ["--out", self.sample_dir]
        buf = io.StringIO()
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sfs {command} exited {code}: {buf.getvalue().strip()}")
        return json.loads(buf.getvalue())

    def check(self, i, out):
        """Fail unless the output is finite and matches earlier runs on seed i."""
        kind = self.spec.kind
        if kind == "run":
            if not np.isfinite(out).all():
                raise RuntimeError("non-finite samples")
            data = out.tobytes()
        elif kind == "sample":
            with open(os.path.join(self.sample_dir, "samples.csv"), "rb") as fh:
                data = fh.read()
            if b"nan" in data or b"inf" in data:
                raise RuntimeError("non-finite samples in samples.csv")
        else:
            if not math.isfinite(out["max_error"]):
                raise RuntimeError("non-finite drift error")
            data = json.dumps(out, sort_keys=True).encode()
        digest = hashlib.sha256(data).hexdigest()
        if i not in self.digests:
            self.digests[i] = digest
            self.first[i] = self._keep(out)
        elif digest != self.digests[i]:
            raise RuntimeError(f"output bytes differ from the first run on run seed {i}")

    def _keep(self, out):
        if self.spec.kind == "sample":
            path = os.path.join(self.sample_dir, "samples.csv")
            return np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
        return out

    @contextlib.contextmanager
    def instrument(self, tracer):
        """Spans around the calls a run makes into each layer.

        Yields the target a "run" workload should be handed; the CLI
        workloads build theirs from the config, so the patches below wrap
        it and the module functions the commands call.
        """
        if self.spec.kind == "run":
            yield traced_target(self.target, tracer)
            return
        build = cli.target_from_config
        with contextlib.ExitStack() as stack:
            for module, name, span in (
                (cli, "sfs_run", "sampler.sfs_run"),
                (cli, "save_batch", "batches.save_batch"),
                (cli, "drift_mc_stein", "drift.point_call"),
                (cli, "drift_exact", "drift.exact"),
                (sfsampler.drift, "_mc_drift_core", "drift.core"),
                (sfsampler.rng, "normal_row", "rng.normal_row"),
            ):
                stack.enter_context(
                    mock.patch.object(module, name, tracer.wrap(span, getattr(module, name)))
                )
            stack.enter_context(
                mock.patch.object(
                    cli, "target_from_config", lambda s: traced_target(build(s), tracer)
                )
            )
            yield None

    # Quality, untimed, on the first output of each run seed.

    def samples(self, i):
        """Samples of run seed i; for "check", an untimed run of the checked drift."""
        if self.spec.kind != "check":
            return self.first[i]
        config = SamplerConfig(
            steps=self.spec.steps, particles=self.spec.particles, seed=self.run_seeds[i],
            drift=self.spec.drift, mc_size=self.spec.mc_size,
        )
        return sfs_run(config, self.target).samples

    def w2_ratio(self):
        """W2 from the pooled samples to fresh ground truth, over the noise floor.

        The samples of every run seed are pooled; W2 (sliced in 2-D) is
        averaged over TRUTH_BATCHES fresh batches of the same size and
        divided by ``w2_noise_floor`` at that size. The truth is the target
        asked for, before any regularization: the floor's bias is part of
        the error a user gets.
        """
        pooled = np.concatenate([self.samples(i) for i in sorted(self.first)])
        n, one_d = len(pooled), self.target.dim == 1
        vals = []
        for seed in self.truth_seeds:
            truth = sample_ground_truth(self.target, n, seed).samples
            if one_d:
                vals.append(wasserstein2_1d(pooled, truth))
            else:
                vals.append(sliced_w2(pooled, truth, seed=seed).value)
        floor = w2_noise_floor(self.target, n, FLOOR_SEED, pairs=FLOOR_PAIRS,
                               metric="w2_1d" if one_d else "sliced")
        return float(np.mean(vals)) / floor

    def drift_err(self, i):
        """(RMS, largest) drift error for run seed i.

        drift-check reports both over its grid, the RMS per t value. For a
        sampling workload they are taken over the batch's first ERR_POINTS
        samples at the last step time. The estimator is the one drift-check
        would check for the config: the run's own mode and m, or mc-grad
        with drift-check's default m for the exact mode. It uses that
        step's probe rows and is compared with the closed form or, for a
        target without one, quadrature.
        """
        spec = self.spec
        if spec.kind == "check":
            report = self.first[i]
            rms = math.sqrt(np.mean([cell["rms"] ** 2 for cell in report["cells"]]))
            return rms, float(report["max_error"])
        mode, m = spec.drift, spec.mc_size
        if mode == "exact":
            mode, m = "mc-grad", DRIFT_CHECK_M
        x = self.first[i][:ERR_POINTS]
        n, p = x.shape
        k = spec.steps - 1
        t = k / spec.steps
        z = sfsampler.rng.normal_rows(self.run_seeds[i], sfsampler.rng.ROLE_DRIFT, k, n, (m, p))
        est = _mc_drift_core(self.run_target, x, t, z, mode, step_index=k, particle_offset=0)
        if self.run_target.mixture is not None:
            ref = drift_exact(self.run_target, x, t)
        else:
            ref = quadrature_drift_1d(self.run_target, x, t)
        err = np.linalg.norm(est - ref, axis=1)
        return float(np.sqrt(np.mean(err * err))), float(err.max())
