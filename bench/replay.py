"""Step replay: ``sfs_run``'s loop re-driven from the benchmark, one span per layer.

The RNG draws, the drift core and the Euler update happen inside
``sfs_run``, where the benchmark cannot put spans without changing the
package. The replay makes the same calls in the same order at the run's
shapes and seed (substreams, ``regularize``, the Monte-Carlo core in the
same particle chunks and worker split, or ``drift_exact``), so it must end
on the run's samples byte for byte. A replay that does not is reported as
diverged and its layer times must not be used.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from sfsampler import rng
from sfsampler.drift import _mc_drift_core, drift_exact
from sfsampler.sampler import _CHUNK_VALUES
from sfsampler.targets import regularize


def replay_run(config, target, workers, tracer):
    """Terminal states of ``sfs_run(config, target, workers=workers)``.

    ``config.drift`` must be a resolved mode, not "auto".
    """
    mode = config.drift
    m = config.mc_size
    eps = config.eps.bind(m if mode != "exact" else None)
    run_target = target
    if eps > 0.0:
        # Spans around the floor's own arithmetic, which wraps the base calls.
        run_target = regularize(target, eps)
        run_target = dataclasses.replace(
            run_target,
            log_f=tracer.wrap("targets.regularized", run_target.log_f),
            grad_log_f=tracer.wrap("targets.regularized", run_target.grad_log_f),
        )
    n, p, k_steps, seed = config.particles, target.dim, config.steps, config.seed
    s = 1.0 / k_steps
    root_s = math.sqrt(s)
    y = np.zeros((n, p))

    def core(points, t, z, k, offset):
        with tracer.span("drift.core"):
            return _mc_drift_core(run_target, points, t, z, mode, step_index=k,
                                  particle_offset=offset)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 and mode != "exact" else None
    try:
        for k in range(k_steps):
            t = k / k_steps
            if mode == "exact":
                with tracer.span("drift.exact"):
                    b = drift_exact(run_target, y, t)
            else:
                b = np.empty((n, p))
                gen = rng.substream(seed, rng.ROLE_DRIFT, k)
                chunk = max(1, _CHUNK_VALUES // max(1, m * p))
                for start in range(0, n, chunk):
                    stop = min(n, start + chunk)
                    with tracer.span("rng.probe_draw"):
                        z = gen.standard_normal((stop - start, m, p))
                    rows = stop - start
                    if pool is None or rows < 2 * workers:
                        b[start:stop] = core(y[start:stop], t, z, k, start)
                        continue
                    bounds = np.linspace(0, rows, workers + 1).astype(int)
                    futures = [
                        (lo, hi, pool.submit(core, y[start + lo:start + hi], t, z[lo:hi], k,
                                             start + lo))
                        for lo, hi in zip(bounds[:-1], bounds[1:])
                        if lo < hi
                    ]
                    for lo, hi, fut in futures:
                        b[start + lo:start + hi] = fut.result()
            with tracer.span("rng.increment"):
                inc = rng.substream(seed, rng.ROLE_INCREMENT, k).standard_normal((n, p))
            with tracer.span("sampler.euler"):
                y += s * b
                y += root_s * inc
                if not np.isfinite(y).all():
                    raise RuntimeError(f"replay state became non-finite after step {k}")
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return y
