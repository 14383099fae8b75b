"""Drift of the unit-time diffusion and its Monte-Carlo estimators.

The drift at (x, t) is the gradient of log Q_{1-t} f at x, where Q_s is
the heat semigroup, Q_s f(x) = E f(x + sqrt(s) Z). Both estimators replace
the two Gaussian expectations with averages over one shared batch of m
standard normal draws Z_j, writing x_j = x + sqrt(1-t) Z_j:

    gradient form   b ~ sum_j u_j g_j / sum_j u_j,  g_j = grad log f(x_j)
    Stein form      b ~ sum_j u_j Z_j / (sum_j u_j * sqrt(1-t))

where u_j = exp(log f(x_j) - max_k log f(x_k)) are softmax-style weights.
Weights depend only on differences of log f, so a constant scale on f
drops out exactly, not merely up to rounding; this is why TargetSpec keeps
its ``log_scale`` out of the ``log_f`` callable. The products u_j g_j (or
u_j Z_j) and the weights u_j are summed along the m probes in one call, so
numerator and denominator share one summation order, and no particle's sums
depend on the tile it is evaluated in. That does not make a constant ratio
exact: with g_j = c for every probe the sum of u_j c can differ from c times
the sum of u_j by rounding, so the drift comes back within a few ulps of c.

The estimators run tile by tile, a few dozen particles at a time, in one
loop for any worker count; a point call is its row 0. A span of tiles owns
one ``_Workspace`` while it runs, and the probe draw and every pass write
into it with ``out=``, so a tile allocates nothing of its probes' size. The
probes are built channel-major, as (p, particles * m), and target callables
get their transposed (particles * m, p) view, not a C-contiguous array. In
mc-grad on a mixture whose callables are its own, one softmax pass reads
that view and writes log f and grad log f into the channel buffer.

For Gaussian mixtures the semigroup acts in closed form: smoothing only
rescales each component's correction term, so the drift is the
softmax-weighted average of the component means and needs no sampling.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import DriftSingularityError, UnsupportedTargetError, check_int, check_real
from .targets import _coerce, _returned, _weighted

DRIFT_MODES = ("exact", "mc-grad", "mc-stein")


def default_drift_mode(target):
    """Mode the sampler picks for "auto": the closed form when there is one."""
    return "exact" if target.mixture is not None else _mc_mode(target)


def _mc_mode(target):
    """The Monte-Carlo mode for a target: the gradient form when it has a gradient."""
    return "mc-grad" if target.grad_log_f is not None else "mc-stein"


# Values in a drift tile's (p + 1, particles, m) channel buffer. A tile's
# buffers (draws, probes, channels, softmax scratch) hold about 3p + k + 3
# values a probe (k mixture components), under 1 MiB at p = k = 2,
# m = 256. On the 2-D mixture at n = 4096, m = 256, 32 Ki ran 6-8 %
# faster than 16 Ki in paired runs (2-core Xeon, 2 MiB L2 a core) and
# 64 Ki no faster than 32 Ki.
_CHUNK_VALUES = 1 << 15
_TASK_TILES = 64  # most tiles per pool task; a task per tile lost more to hand-offs than it saved


@dataclass(frozen=True)
class DriftEvaluator:
    """Bundle of target, estimator choice, batch size, root seed and threads.

    The one place a drift mode is resolved and checked: "auto" becomes
    ``default_drift_mode(target)``, the exact mode needs a mixture and
    keeps ``m = None``, and the Monte-Carlo modes need a positive integer
    m (and mc-grad a gradient). The seed anchors the drift-role streams:
    the batch used for (step_index, particle_index) is row particle_index
    of the block drawn from the (seed, drift, step_index) substream, which
    is exactly the batch a sampler run with the same seed would use there.
    ``workers`` caps the threads ``batch`` splits the rows across, which is
    at most one a tile; it changes neither the bytes nor the warnings of a batch.
    """

    target: object
    mode: str
    m: int | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "workers", check_int("workers", self.workers))
        mode = default_drift_mode(self.target) if self.mode == "auto" else self.mode
        if mode not in DRIFT_MODES:
            raise ValueError(f"mode must be auto or one of {DRIFT_MODES}, got {mode!r}")
        if mode == "exact":
            if self.target.mixture is None:
                raise UnsupportedTargetError(
                    f"closed-form drift needs a mixture target, {self.target.name!r} has none"
                )
            m = None
        else:
            m = check_int("the Monte-Carlo batch size m (mc_size)", self.m)
            if mode == "mc-grad" and self.target.grad_log_f is None:
                raise UnsupportedTargetError(
                    f"gradient-form estimator needs grad log f, {self.target.name!r} has none"
                )
        object.__setattr__(self, "seed", _rng.check_seed(self.seed))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "m", m)

    def batch(self, points, t, step_index):
        """Drift at every row of ``points`` (n, p) at time t, as an (n, p) array.

        The points must be finite, and ``_coerce`` takes them as an (n, p)
        batch, a (p,) point (one row), or on a 1-D target a scalar (one row)
        or a length-n vector (n rows); ``step_index`` is a count from 0 in
        every mode. The exact mode is the closed form and otherwise ignores
        the step. Row i of a Monte-Carlo estimate uses the probes of particle
        i at step ``step_index``. Rows run in cache-sized tiles, a span of
        them at a time: one tile on the calling thread with one worker; with
        more, pool tasks of 1 to ``_TASK_TILES`` tiles, at most 2 * workers in
        flight, on no more threads than tiles, each under the calling thread's
        numpy error state. The calling thread draws the probes in order, into
        a workspace no running task holds; results are taken in order, so the
        first failing particle is the one raised, and threads are joined
        before the call returns or raises.
        """
        points, _ = _coerce(points, self.target.dim)
        step_index = check_int("step_index", step_index, minimum=0)
        if self.mode == "exact":
            return self.target.mixture.grad_log_ratio(points, _check_t(t))
        t = _check_t(t, allow_one=self.mode != "mc-stein")
        n, p = points.shape
        gen = _rng.substream(self.seed, _rng.ROLE_DRIFT, step_index)
        out = np.empty((n, p))
        if n == 0:  # no tile to run or thread to start: (0, p), as the exact mode gives
            return out
        tile = max(1, _CHUNK_VALUES // (self.m * (p + 1)))
        workers = min(self.workers, -(-n // tile))  # a task is at least one tile, a thread too
        span = tile if workers == 1 else min(max(-(-n // workers), tile), _TASK_TILES * tile)
        spaces = [_Workspace(self.target, self.mode, min(tile, n), self.m, p, min(span, n))
                  for _ in range(1 if workers == 1 else min(-(-n // span), 2 * workers))]

        def run(start, ws):
            stop = min(start + span, n)
            for lo in range(start, stop, tile):
                hi = min(lo + tile, stop)
                out[lo:hi] = _mc_drift_core(
                    self.target, points[lo:hi], t, ws.z[lo - start:hi - start], self.mode,
                    step_index=step_index, particle_offset=lo, ws=ws,
                )

        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # loaded only where a pool starts
        err = np.geterr()  # pool threads start from numpy's defaults; each enters the caller's
        with (ThreadPoolExecutor(workers, initializer=lambda: np.seterr(**err)) if workers > 1
              else contextlib.nullcontext()) as pool:
            pending = []
            for i, start in enumerate(range(0, n, span)):
                if len(pending) == len(spaces):
                    pending.pop(0).result()  # its task is done with the workspace
                ws = spaces[i % len(spaces)]
                gen.standard_normal(out=ws.z[:min(span, n - start)])
                if pool is None:
                    run(start, ws)
                else:
                    pending.append(pool.submit(run, start, ws))
            for fut in pending:
                fut.result()
        return out


def _check_t(t, *, allow_one=True):
    t = check_real("t", t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if not allow_one and t == 1.0:
        raise ValueError("t = 1 is rejected: the Stein form divides by sqrt(1 - t)")
    return t


def drift_exact(target, x, t):
    """Closed-form drift for mixture targets.

    At time t the drift is the average of the component means under
    softmax weights log w_i + m_i . x - t |m_i|^2 / 2. Valid on all of
    [0, 1]; at t = 1 it coincides with grad log f.
    """
    ev = DriftEvaluator(target, "exact")
    pts, single = _coerce(x, target.dim)
    b = ev.batch(pts, t, 0)
    return np.asarray(b[0]) if single else b


class _Workspace:
    """The buffers of ``_mc_drift_core`` for tiles of up to ``rows`` particles.

    One thread at a time reuses them tile after tile, so the kernel allocates
    only arrays of one value or a few a particle; ``z`` holds the draws of up
    to ``span`` particles, and ``probes`` the (p, rows * m) channel-major probes.
    ``ext`` holds the (p + 1, particles, m) channels u * vec_j and u; the one
    pass writes grad log f and log f straight into them.
    """

    def __init__(self, target, mode, rows, m, p, span=0):
        mix = target.mixture
        self.fused = (mode == "mc-grad" and mix is not None and mix.log_ratio == target.log_f
                      and mix.grad_log_ratio == target.grad_log_f)
        self.z = np.empty((span, m, p))
        self.probes = np.empty(rows * m * p)
        self.ext = np.empty((p + 1, rows, m))
        self.acc = np.empty((p + 1, rows))
        self.softmax = mix._softmax_work(rows * m) if self.fused else None


def _mc_drift_core(target, points, t, z, mode, *, step_index, particle_offset, ws=None):
    """Shared-batch estimate for a batch of points.

    Args:
        points: (n, p) evaluation points.
        z: (n, m, p) standard normal batch, one row of m draws per point.
        mode: "mc-grad" or "mc-stein".
        step_index, particle_offset: stream coordinates for diagnostics;
            row i of ``points`` is particle ``particle_offset + i``.
        ws: a ``_Workspace`` for at least n particles, or None for a new one.

    Returns:
        (n, p) drift estimates. Raises UnsupportedTargetError when log f
        does not return shape (n * m,) or grad log f (n * m, p), when log f
        is NaN at a probe, and when a particle's sums are not finite (log f
        of +inf, or a non-finite grad log f where f > 0).

    A mixture target whose callables are still the mixture's own gets log f
    and its gradient from one softmax pass in mc-grad; replaced callables
    (``dataclasses.replace(target, log_f=...)``) are called as given.
    """
    n, m, p = z.shape
    ws = _Workspace(target, mode, n, m, p) if ws is None else ws
    root = math.sqrt(1.0 - t)

    def at(i):
        return f"(particle {particle_offset + i}, step {step_index}, t = {t})"

    # The probes as channels (p, n, m): elementwise passes run along m, not p.
    chans = ws.probes[:n * m * p].reshape(p, n, m)
    np.multiply(z.transpose(2, 0, 1), root, out=chans)
    for j in range(p):
        chans[j] += points[:, j, None]
    probes = chans.reshape(p, n * m).T
    ext = ws.ext[:, :n]  # channel j is u * vec_j, channel p is u
    u = ext[p]
    if ws.fused:
        target.mixture.log_ratio_and_grad(
            probes, u.reshape(n * m), ext[:p].reshape(p, n * m), ws.softmax)
        lf, vec = u, ext[:p]
    else:
        lf = _returned(target, "log_f", target.log_f(probes), (n * m,)).reshape(n, m)
    mx = lf.max(axis=1)  # in log f's own dtype, in which lf - mx is taken
    low = mx.min()  # max and min propagate NaN
    if np.isnan(low):
        i = int(np.argmax(np.isnan(mx)))
        raise UnsupportedTargetError(
            f"target log density returned NaN at a drift probe {at(i)}")
    if low == -np.inf:
        i = int(np.argmax(mx == -np.inf))
        raise DriftSingularityError(
            f"all {m} drift probes fell where f = 0 {at(i)}",
            x=points[i].copy(),
            t=t,
            step_index=step_index,
            particle_index=particle_offset + i,
        )
    if mode == "mc-stein":
        vec = z.transpose(2, 0, 1)
    elif not ws.fused:
        vec = _returned(target, "grad_log_f", target.grad_log_f(probes), (n * m, p)).T
        vec = vec.reshape(p, n, m)
    # In place where the one pass wrote log f into u and vec_j into channel j.
    np.subtract(lf, mx[:, None], out=u)
    np.exp(u, out=u)
    # z is finite and a mixture's f is never 0: only a called gradient needs the f = 0 rule.
    _weighted(u, vec, lf if mode == "mc-grad" and not ws.fused else None, out=ext[:p])
    # Every channel row is contiguous along m and summed in one call: all
    # share numpy's pairwise tree, and each row is summed on its own.
    acc = np.add.reduce(ext, axis=2, out=ws.acc[:, :n])
    if not np.isfinite(acc).all():
        i = int(np.argmin(np.isfinite(acc).all(axis=0)))
        raise UnsupportedTargetError(
            f"{target.name!r} gave non-finite drift sums, from a log f of +inf or a non-finite "
            f"grad log f where f > 0 {at(i)}")
    b = np.empty((n, p))
    np.divide(acc[:p], acc[p], out=b.T)
    if mode == "mc-stein":
        b /= root
    return b


def _drift_mc(ev, x, t, step_index, mode):
    if ev.mode != mode:
        raise ValueError(f"a {mode} drift call needs a {mode} evaluator, got {ev.mode!r}")
    pts, single = _coerce(x, ev.target.dim)
    if not single:
        raise ValueError("direct drift calls evaluate one point at a time")
    return ev.batch(pts, t, step_index)[0]


def drift_mc_grad(ev, x, t, step_index=0):
    """Gradient-form drift estimate at one point, for t in [0, 1].

    The point is particle 0: row 0 of ``DriftEvaluator.batch``. For
    particle i, read row i of ``batch`` on at least i + 1 points.
    """
    return _drift_mc(ev, x, t, step_index, "mc-grad")


def drift_mc_stein(ev, x, t, step_index=0):
    """Stein-form drift estimate at one point, for t in [0, 1).

    The point is particle 0, as in ``drift_mc_grad``; only the integrand differs.
    """
    return _drift_mc(ev, x, t, step_index, "mc-stein")


class ProbeGrid:
    """Where ``drift-check`` and ``regularity`` probe the drift.

    For dim <= 2 the points are a tensor grid on [lo, hi]^dim; in higher
    dimension they are random directions scaled by a radius ladder, since
    a tensor grid is no longer affordable. The grid is fixed.
    """

    lo, hi = -5.0, 5.0
    points_per_axis = 25
    t_values = (0.0, 0.25, 0.5, 0.75, 0.99)
    directions = 16
    radial_points = 9


def probe_points(grid, dim, seed=0):
    """Concrete probe locations for a ProbeGrid in the given dimension."""
    if dim <= 2:
        axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
        if dim == 1:
            return axis.reshape(-1, 1)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xs.ravel(), ys.ravel()])
    gen = _rng.substream(seed, _rng.ROLE_PROBE, 0)
    dirs = gen.standard_normal((grid.directions, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = max(abs(grid.lo), abs(grid.hi))
    radii = np.linspace(0.0, radius, grid.radial_points)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)


@dataclass(frozen=True)
class RegularityEstimate:
    """The grid supremum of the drift's norm.

    b_sup_hat is the largest |b(x, t)| over the ``ProbeGrid`` points and
    times, the value the ``regularity`` report checks against the declared
    bound gamma / xi on sup |b|; n_points counts the (x, t) pairs probed.
    """

    b_sup_hat: float
    n_points: int


def estimate_regularity(evaluator):
    """Probe sup |b| numerically on ``ProbeGrid()``.

    Probes ``evaluator``'s drift, so its Monte-Carlo noise is part of the
    estimate; on a mixture target the closed form is probed in its place.
    Above two dimensions the probe directions come from ``evaluator.seed``.

    Returns:
        RegularityEstimate with b_sup_hat and n_points.
    """
    if evaluator.target.mixture is not None:
        evaluator = DriftEvaluator(evaluator.target, "exact", seed=evaluator.seed)
    grid = ProbeGrid()
    pts = probe_points(grid, evaluator.target.dim, evaluator.seed)
    b = np.concatenate([evaluator.batch(pts, t, k) for k, t in enumerate(grid.t_values)])
    b_sup = float(np.sqrt(np.max(np.sum(b * b, axis=1))))
    if b_sup < math.sqrt(np.finfo(float).tiny):  # b * b may underflow: scale by max |b| first
        scale = float(np.max(np.abs(b))) or 1.0
        b_sup = scale * float(np.sqrt(np.max(np.sum(np.square(b / scale), axis=1))))
    return RegularityEstimate(b_sup_hat=b_sup, n_points=b.shape[0])
