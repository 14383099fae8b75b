"""Sample-quality metrics: Wasserstein-2 variants, their noise floor, and rate fits.

All W2 routines compare equal-size empirical measures. In one dimension
the optimal coupling is the order statistics, which is exact and cheap;
``sliced_w2`` averages that over random directions as a scalable proxy in
higher dimension (it lower-bounds the true W2); ``exact_w2_assignment``
solves the matching problem outright and is guarded to small batches.
Sweeps and comparisons score by sorting at p = 1 and sliced above (``w2_metric``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import check_int
from .targets import sample_ground_truth

ASSIGNMENT_MAX_POINTS = 512
W2_METRICS = ("w2_1d", "sliced", "assignment")
SLICED_PROJECTIONS = 64


def _sample_1d(x):
    x = _sample_2d(x)
    if x.shape[1] != 1:
        raise ValueError(f"a 1-D sample has shape (n,) or (n, 1), got {x.shape}")
    return x[:, 0]


def _sample_2d(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("expected a non-empty (n, p) sample array")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return x


def wasserstein2_1d(x, y):
    """Exact W2 between two equal-size 1-D samples via order statistics."""
    x = _sample_1d(x)
    y = _sample_1d(y)
    if x.size != y.size:
        raise ValueError(f"sample sizes must match, got {x.size} and {y.size}")
    d = np.sort(x) - np.sort(y)
    return float(np.sqrt(np.mean(d * d)))


@dataclass(frozen=True)
class SlicedW2:
    """Mean and spread of 1-D W2 over random unit projections."""

    value: float
    se: float
    per_projection: np.ndarray = field(repr=False)


def sliced_w2(x, y, seed=0):
    """Sliced W2: average the 1-D metric over ``SLICED_PROJECTIONS`` random directions.

    Directions are uniform on the sphere with the largest-magnitude
    coordinate made positive; the flip changes nothing in distribution but
    makes the one-dimensional case collapse to ``wasserstein2_1d`` exactly.

    Args:
        x, y: (n, p) sample arrays of equal size.
        seed: seed for the projection stream.

    Returns:
        SlicedW2 with the mean, its standard error over directions, and
        the per-direction values.
    """
    x = _sample_2d(x)
    y = _sample_2d(y)
    if x.shape != y.shape:
        raise ValueError(f"sample shapes must match, got {x.shape} and {y.shape}")
    p = x.shape[1]
    gen = _rng.substream(seed, _rng.ROLE_PROJECTION, 0)
    dirs = gen.standard_normal((SLICED_PROJECTIONS, p))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms
    dirs[np.all(dirs == 0.0, axis=1), 0] = 1.0
    lead = np.take_along_axis(dirs, np.argmax(np.abs(dirs), axis=1)[:, None], axis=1).ravel()
    dirs[lead < 0] *= -1.0

    vals = np.array([wasserstein2_1d(x @ u, y @ u) for u in dirs])
    if np.all(vals == vals[0]):
        value = float(vals[0])
    else:
        value = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(SLICED_PROJECTIONS))
    return SlicedW2(value=value, se=se, per_projection=vals)


def exact_w2_assignment(x, y):
    """W2 from the optimal matching of two equal-size batches.

    The cost matrix is squared Euclidean distance and the assignment is
    solved exactly, so this is the true W2 between the empirical measures.
    Guarded to n <= 512 because the solver is cubic in n. The solver and
    the cost matrix are scipy's, imported here rather than with the
    package: the first call pays the import of ``scipy.optimize`` and
    ``scipy.spatial``, and no other metric or command loads them. scipy is
    a test dependency, so without it this raises ImportError.
    """
    try:
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist
    except ImportError as exc:
        raise ImportError("exact_w2_assignment needs scipy: pip install scipy, "
                          "or install the package with its [test] extra") from exc

    x = _sample_2d(x)
    y = _sample_2d(y)
    if x.shape != y.shape:
        raise ValueError(f"sample shapes must match, got {x.shape} and {y.shape}")
    n = x.shape[0]
    if n > ASSIGNMENT_MAX_POINTS:
        raise ValueError(
            f"exact assignment is limited to {ASSIGNMENT_MAX_POINTS} points, got {n}; "
            "use sliced_w2 for larger batches"
        )
    cost = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(y) against log(x)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_rate(xs, ys):
    """Fit a power law y = c x^slope through positive points.

    Args:
        xs, ys: sequences of at least three positive finite values.

    Returns:
        RateFit with slope, intercept (log c), and R squared. A perfectly
        flat sequence fits slope 0 with R squared defined as 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if xs.size < 3:
        raise ValueError(f"rate fits need at least 3 points, got {xs.size}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("rate fits need finite values")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("rate fits need strictly positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2, n_points=xs.size)


def w2_metric(dim):
    """The W2 metric a run of a dim-dimensional target scores with."""
    return "w2_1d" if dim == 1 else "sliced"


def w2_score(metric, x, y, seed):
    """W2 between equal-size samples by a metric in W2_METRICS; seed drives "sliced"."""
    if metric == "w2_1d":
        return wasserstein2_1d(x, y)
    if metric == "sliced":
        return sliced_w2(x, y, seed=seed).value
    if metric == "assignment":
        return exact_w2_assignment(x, y)
    raise ValueError(f"metric must be one of {W2_METRICS}, got {metric!r}")


def w2_noise_floor(target, n, seed, pairs=3, metric=None):
    """Typical W2 between two independent same-size ground-truth batches.

    Thresholds for "close to the target" are set as multiples of this
    floor, since an ideal sampler cannot beat it in expectation.

    Args:
        target: TargetSpec with a ground-truth sampler.
        n: batch size the floor should refer to.
        seed: root seed for the batch draws.
        pairs: number of independent batch pairs averaged.
        metric: one of W2_METRICS, as in ``w2_score``; by default the target's ``w2_metric``.
    """
    pairs = check_int("pairs", pairs)
    metric = w2_metric(target.dim) if metric is None else metric
    seeds = _rng.child_seeds(seed, 0, 2 * pairs)
    vals = []
    for i in range(pairs):
        a = sample_ground_truth(target, n, seeds[2 * i]).samples
        b = sample_ground_truth(target, n, seeds[2 * i + 1]).samples
        vals.append(w2_score(metric, a, b, seeds[2 * i]))
    return float(np.mean(vals))
