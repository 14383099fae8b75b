"""Target laws expressed relative to the standard Gaussian.

A target is the distribution the diffusion should reach at time one. The
library works throughout with the ratio f = dmu/dG against the base
measure G = N(0, I_p), always in log space. Potential-form targets carry f
only up to a positive constant; that is fine for drift evaluation, which
is scale free, and is tracked by the ``relative`` flag.

Where f is zero, ``log_f`` returns -inf, and that point adds exactly 0 to every
weighted sum, whatever ``grad_log_f`` returns there: ``_weighted`` is the rule.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as _rng
from .batches import SampleBatch, config_digest
from .errors import UnknownTargetError, UnsupportedTargetError, check_int, check_real

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SOFTMAX_BLOCK = 1 << 15  # points per block of the mixture softmax


def _coerce(x, dim):
    """Normalize a point or batch of points to (n, dim); flag single points.

    Accepts (dim,) for one point, (n, dim) for a batch, and for
    one-dimensional targets also scalars and length-n vectors of scalars.
    Every coordinate must be finite.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("evaluation points must be finite")
    if x.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar input for a {dim}-dimensional target")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if x.shape[0] == dim:
            return x.reshape(1, dim), True
        if dim == 1:
            return x.reshape(-1, 1), False
        raise ValueError(f"expected a point of dimension {dim}, got shape {x.shape}")
    if x.ndim == 2:
        if x.shape[1] != dim:
            raise ValueError(f"expected batch shape (n, {dim}), got {x.shape}")
        return x, False
    raise ValueError(f"input must be at most 2-dimensional, got shape {x.shape}")


def _half_square(means, what):
    """|m|^2 / 2 of each row of ``means``; ValueError where it overflows."""
    with np.errstate(over="ignore"):
        half_sq = 0.5 * np.sum(means * means, axis=-1)
    if not np.isfinite(half_sq).all():
        raise ValueError(f"{what} must have a finite |m|^2 / 2")
    return half_sq


def _affine(xb, vec, const, out, tmp):
    """vec . x + const into ``out`` for the points of ``xb`` (p, b), one coordinate at a time."""
    np.multiply(xb[0], vec[0], out=out)
    for j in range(1, len(vec)):
        np.multiply(xb[j], vec[j], out=tmp)
        out += tmp
    out += const


def _weighted(w, grad, log_f, out=None):
    """w * grad, exactly 0 and silent where ``log_f`` (broadcast; None: f > 0) is -inf."""
    if log_f is None or log_f.min() != -np.inf:
        return np.multiply(w, grad, out=out)
    with np.errstate(invalid="ignore"):  # w is 0 where f = 0: 0 * inf or 0 * NaN is NaN there
        out = np.multiply(w, grad, out=out)
    if np.isnan(out.max()):  # max propagates NaN; without one, every f = 0 product is +-0
        np.copyto(out, 0.0, where=log_f == -np.inf)
    return out


def _returned(target, name, out, shape):
    """A target callable's output as an array; UnsupportedTargetError unless it has ``shape``."""
    if np.shape(out) != shape:
        raise UnsupportedTargetError(
            f"{target.name!r} {name} returned shape {np.shape(out)}, expected {shape}")
    return np.asarray(out)


@dataclass(frozen=True)
class TargetRegularity:
    """Declared regularity constants for the density ratio f.

    Attributes:
        gamma: Lipschitz bound for f and for its gradient.
        xi: positive lower bound, f >= xi.
        zeta: optional upper bound, f <= zeta; at least xi (f may be constant).
    """

    gamma: float
    xi: float
    zeta: float | None = None

    def __post_init__(self):
        for name in ("gamma", "xi", "zeta"):
            value = getattr(self, name)
            if name != "zeta" or value is not None:
                object.__setattr__(self, name, check_real(name, value, low=0.0))
        if self.zeta is not None and self.zeta < self.xi:
            raise ValueError(f"zeta must be at least xi, got zeta {self.zeta!r} < xi {self.xi!r}")

    def describe(self):
        out = {"gamma": self.gamma, "xi": self.xi}
        if self.zeta is not None:
            out["zeta"] = self.zeta
        return out


class GaussianMixture:
    """Finite mixture of unit-covariance Gaussians, sum_i w_i N(m_i, I_p).

    Relative to the base Gaussian the density ratio has the closed form
    f(x) = sum_i w_i exp(m_i . x - |m_i|^2 / 2), which keeps the heat
    semigroup and therefore the drift analytic: smoothing by Q_s only
    rescales the per-component correction term.

    The softmax over components works on (k, n) logits, component-major:
    k is small and a drift batch holds up to millions of points, so
    reducing along k of an (n, k) array is a short strided loop per point,
    while across the k rows of a (k, n) array it is whole-row vector work.
    At k = 2 the softmax is a logistic of one score, one exp a point with
    no max pass; it rounds unlike the k-way pass, which every other k keeps.
    """

    def __init__(self, weights, means):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        if means.ndim == 1:
            means = means.reshape(-1, 1)
        if weights.ndim != 1 or means.ndim != 2 or weights.shape[0] != means.shape[0]:
            raise ValueError("weights must be (k,) and means (k, p) with matching k")
        if weights.shape[0] == 0:
            raise ValueError("a mixture needs at least one component")
        if not np.isfinite(weights).all() or not np.isfinite(means).all():
            raise ValueError("mixture parameters must be finite")
        if (weights <= 0).any():
            raise ValueError("mixture weights must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1 within 1e-12, got {total!r}")
        self.weights = weights
        self.means = means
        self._log_w = np.log(weights)
        self._half_sq = _half_square(means, "mixture means")

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.means.shape[0]

    def _softmax_work(self, n):
        """Scratch for ``_softmax_pass`` over n points: (k + 2) values a point of one block."""
        return np.empty((self.n_components + 2) * min(n, _SOFTMAX_BLOCK))

    def _softmax_pass(self, x, t, value=None, grad=None, work=None):
        """log Q_{1-t} f into ``value`` (n,) and its gradient into ``grad`` (p, n).

        Either output may be None; both come from one softmax of the logits
        log w_i + m_i . x_j - t |m_i|^2 / 2, and at t = 1 they are log f and
        grad log f. The points go in blocks of _SOFTMAX_BLOCK, so the (k, b)
        exps and the temporaries stay in cache. Every pass reads a coordinate
        as the row ``x.T[j]``: a channel-major x, the transpose of a C-order
        (p, n) array, is read without strides. Every pass writes with ``out=``
        into the outputs or into ``work``, scratch from ``_softmax_work``
        (allocated here when None). Sums over the short axes (p and k) are
        elementwise passes in a fixed order, not matmul or a reduction, which
        round a point differently depending on how many points come with it:
        the drift of one point must not depend on the points evaluated beside
        it. The gradient is the softmax-weighted mean of the means. At k = 2
        a block is ``_logistic_block``, other arithmetic and so other bits:
        d = l_0 - l_1 as (m_0 - m_1) . x + (c_0 - c_1), E = exp(d), gradient
        m_0 + (m_1 - m_0) w_1 with w_1 = 1 / (1 + E) (0 or 1 exactly where E
        overflows or underflows), value l_1 + max(d, 0) + log1p(min(E, 1/E)).
        """
        c = self._log_w - t * self._half_sq
        xt = x.T
        n, k = x.shape[0], self.n_components
        if work is None:
            work = self._softmax_work(n)
        for lo in range(0, n, _SOFTMAX_BLOCK):
            rows = slice(lo, min(n, lo + _SOFTMAX_BLOCK))
            size = rows.stop - lo
            if k == 2:
                self._logistic_block(xt[:, rows], c, value, grad, rows, work[: 3 * size])
                continue
            u = work[: k * size].reshape(k, size)
            mx, total = work[k * size: (k + 2) * size].reshape(2, size)
            tmp = total  # products go here before the sum is taken and after it is divided out
            for row, mean, ci in zip(u, self.means, c):
                _affine(xt[:, rows], mean, ci, row, tmp)
            np.maximum.reduce(u, axis=0, out=mx)
            u -= mx
            np.exp(u, out=u)
            np.copyto(total, u[0])
            for row in u[1:]:
                total += row
            if value is not None:
                np.log(total, out=value[rows])
                value[rows] += mx
            if grad is not None:
                u /= total
                for j, col in enumerate(grad[:, rows]):
                    np.multiply(u[0], self.means[0, j], out=col)
                    for i in range(1, k):
                        np.multiply(u[i], self.means[i, j], out=tmp)
                        col += tmp

    def _logistic_block(self, xb, c, value, grad, rows, work):
        """One block of ``_softmax_pass`` at k = 2; d and E are formed alike for either output."""
        d, e, tmp = work.reshape(3, -1)
        m0, m1 = self.means
        with np.errstate(over="ignore", divide="ignore"):
            _affine(xb, m0 - m1, c[0] - c[1], d, tmp)
            np.exp(d, out=e)
            if value is not None:
                out = value[rows]
                _affine(xb, m1, c[1], out, tmp)
                out += np.maximum(d, 0.0, out=d)
                out += np.log1p(np.minimum(e, np.divide(1.0, e, out=tmp), out=tmp), out=tmp)
            if grad is not None:
                w = np.divide(1.0, np.add(e, 1.0, out=e), out=e)
                for j, col in enumerate(grad[:, rows]):
                    np.multiply(w, m1[j] - m0[j], out=col)
                    col += m0[j]

    def log_ratio(self, x):
        out = np.empty(x.shape[0])
        self._softmax_pass(x, 1.0, value=out)
        return out

    def grad_log_ratio(self, x, t=1.0):
        """Gradient of log Q_{1-t} f, (n, p): grad log f at t = 1, else the closed-form drift."""
        g = np.empty((x.shape[0], self.dim))
        self._softmax_pass(x, t, grad=g.T)
        return g

    def log_ratio_and_grad(self, x, value=None, grad=None, work=None):
        """log f as (n,) and grad log f channel-major as (p, n), from one softmax pass.

        Outputs left None are allocated; ``work`` is ``_softmax_pass``'s scratch.
        """
        value = np.empty(x.shape[0]) if value is None else value
        grad = np.empty((self.dim, x.shape[0])) if grad is None else grad
        self._softmax_pass(x, 1.0, value, grad, work)
        return value, grad

    def sample(self, n, gen):
        comps = gen.choice(self.n_components, size=n, p=self.weights)
        return self.means[comps] + gen.standard_normal((n, self.dim))


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """One sampling target: log density ratio, gradient, and metadata.

    ``log_f`` and ``grad_log_f`` are batch callables on (n, dim) arrays and
    exclude ``log_scale``; the Monte-Carlo drift passes them the transposed
    view of a (dim, n) block, not a C-contiguous array. The declared scale
    cancels in every drift ratio, so keeping it out of the callables is what
    makes scale invariance exact at the bit level rather than up to rounding;
    only ``regularize``, which mixes absolute density values, folds it in.

    Attributes:
        name: short human-readable label.
        dim: dimension p of the state space.
        log_f: batch callable, (n, dim) -> (n,), without log_scale.
        grad_log_f: batch callable, (n, dim) -> (n, dim), or None. Its rows
            where f = 0 weigh nothing, so they may hold anything: finite, +-inf or NaN.
        relative: True when f is known only up to a positive constant.
        log_scale: declared log of the density scale factor.
        mixture: closed-form mixture structure when available.
        regularity: declared (gamma, xi, zeta) constants, or None.
        params: JSON-serializable description used for digests and rebuilds.
        sampler: ground-truth sampler (n, Generator) -> (n, dim), or None.
    """

    name: str
    dim: int
    log_f: Callable
    grad_log_f: Callable | None = None
    relative: bool = False
    log_scale: float = 0.0
    mixture: GaussianMixture | None = None
    regularity: TargetRegularity | None = None
    params: dict = field(default_factory=dict)
    sampler: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", check_int("dim", self.dim))
        object.__setattr__(self, "log_scale", check_real("log_scale", self.log_scale))
        config_digest(describe(self))  # params that JSON cannot hold fail here, not after a run


def describe(target):
    """JSON-serializable description of a target, stable across runs."""
    return {
        "name": target.name,
        "dim": target.dim,
        "relative": bool(target.relative),
        "log_scale": target.log_scale,
        "params": target.params,
        "regularity": target.regularity.describe() if target.regularity else None,
    }


def _record(target, **fields):
    """A batch's resolved record: ``fields``, the stream policy and ``describe(target)``."""
    return {**fields, "stream_policy": _rng.STREAM_POLICY, "target": describe(target)}


def sample_ground_truth(target, n, seed):
    """Draw n reference points from the target law itself.

    Args:
        target: a TargetSpec with an attached ground-truth sampler.
        n: number of points, at least 1.
        seed: root seed; the draw uses the ground-truth role stream.

    Returns:
        SampleBatch whose digest covers the target description, n, seed,
        and stream policy.
    """
    if target.sampler is None:
        raise UnsupportedTargetError(f"target {target.name!r} has no ground-truth sampler")
    n = check_int("n", n)
    seed = _rng.check_seed(seed)
    gen = _rng.substream(seed, _rng.ROLE_GROUND_TRUTH, 0)
    start = time.perf_counter()
    samples = _returned(target, "sampler", target.sampler(n, gen), (n, target.dim))
    config = _record(target, kind="ground-truth", n=n, seed=seed)
    return SampleBatch.record(samples.astype(float, copy=False), config, seed, start)


def regularize(target, eps):
    """Mix a Gaussian floor into the target: f_eps = (1 - eps) f + eps.

    This keeps the drift denominator at least eps everywhere, which is what
    the schedule rules buy for compactly supported targets. Mixture targets
    stay mixtures (the floor is one more component with mean zero), so the
    closed-form drift survives regularization.

    Args:
        target: an absolute target (relative ratios cannot be mixed with a
            known constant and are rejected).
        eps: mixing weight in the open interval (0, 1).

    Returns:
        A new TargetSpec for the law (1 - eps) mu + eps G.
    """
    eps = check_real("eps", eps, low=0.0, high=1.0)
    if target.relative:
        raise UnsupportedTargetError(
            "cannot regularize a relative density ratio: f_eps = (1-eps) f + eps "
            "needs f on an absolute scale"
        )
    name = f"{target.name}+eps"
    params = {"kind": "regularized", "eps": eps, "base": target.params}

    regularity = None
    if target.regularity is not None:
        base = target.regularity
        regularity = TargetRegularity(
            gamma=(1.0 - eps) * base.gamma,
            xi=(1.0 - eps) * base.xi + eps,
            zeta=(1.0 - eps) * base.zeta + eps if base.zeta is not None else None,
        )

    if target.mixture is not None:
        if target.log_scale != 0.0:
            raise ValueError("a mixture target with a nonzero scale shift is not a probability law")
        mix = target.mixture
        weights = np.append((1.0 - eps) * mix.weights, eps)
        means = np.vstack([mix.means, np.zeros((1, mix.dim))])
        return _mixture_spec(name, GaussianMixture(weights, means), params, regularity)

    # General absolute target: wrap the callables in log space. The scale
    # field must be folded in here because f_eps mixes absolute values. With
    # s = log((1 - eps) f / eps), f_eps = eps (1 + e^s) and the gradient's
    # weight (1 - eps) f / f_eps is the logistic sigma(s); both are taken
    # through e = exp(-|s|) <= 1, so no exp overflows, s = -inf (f = 0)
    # gives log eps and weight 0, and s = +inf gives +inf and weight 1.
    shift = target.log_scale + math.log1p(-eps) - math.log(eps)
    log_eps = math.log(eps)

    def split(pts):
        s = target.log_f(pts) + shift
        e = np.abs(s)
        np.exp(np.negative(e, out=e), out=e)
        return s, e

    def log_f(pts):
        s, e = split(pts)
        out = np.maximum(s, 0.0, out=s)
        out += log_eps
        out += np.log1p(e, out=e)
        return out

    grad_log_f = None
    if target.grad_log_f is not None:

        def grad_log_f(pts):
            s, e = split(pts)
            w = np.where(s > 0.0, 1.0, e)
            w /= e + 1.0
            return _weighted(w[:, None], target.grad_log_f(pts), s[:, None])

    sampler = None
    if target.sampler is not None:

        def sampler(n, gen):
            keep = gen.random(n) < (1.0 - eps)
            out = gen.standard_normal((n, target.dim))
            n_keep = int(keep.sum())
            if n_keep:
                out[keep] = target.sampler(n_keep, gen)
            return out

    return TargetSpec(
        name=name,
        dim=target.dim,
        log_f=log_f,
        grad_log_f=grad_log_f,
        relative=False,
        mixture=None,
        regularity=regularity,
        params=params,
        sampler=sampler,
    )


def _mixture_spec(name, mix, params, regularity=None):
    return TargetSpec(
        name=name,
        dim=mix.dim,
        log_f=mix.log_ratio,
        grad_log_f=mix.grad_log_ratio,
        mixture=mix,
        regularity=regularity,
        params=params,
        sampler=mix.sample,
    )


def standard_gaussian(dim=1):
    """The base measure itself: f is identically one, the drift is zero."""
    dim = check_int("dim", dim)
    mix = GaussianMixture(np.ones(1), np.zeros((1, dim)))
    return _mixture_spec("standard", mix, {"kind": "standard", "dim": dim})


def gaussian(mean):
    """Unit-covariance Gaussian N(mean, I); the drift is the constant mean."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    mix = GaussianMixture(np.ones(1), mean.reshape(1, -1))
    params = {"kind": "gaussian", "mean": [float(v) for v in mean]}
    return _mixture_spec("gaussian", mix, params)


def gaussian_mixture_target(weights, means):
    """Mixture of unit-covariance Gaussians with the stated weights and means.

    Args:
        weights: positive weights summing to one within 1e-12.
        means: (k, p) component means; a flat array is read as k means in
            one dimension.
    """
    mix = GaussianMixture(weights, means)
    params = {
        "kind": "mixture",
        "weights": [float(w) for w in mix.weights],
        "means": [[float(v) for v in row] for row in mix.means],
    }
    return _mixture_spec("mixture", mix, params)


def quartic_bump(radius=3.0):
    """Compactly supported target with density proportional to (1-(x/a)^2)^2.

    One dimensional, supported on [-a, a]. The ratio f against the base
    Gaussian is C^1 with compact support, so it violates the positive
    lower bound that unregularized runs rely on; this is the motivating
    case for the epsilon schedules. Mean 0, variance a^2 / 7.
    """
    a = check_real("radius", radius, low=0.0)
    log_norm = math.log(15.0 / (16.0 * a))

    def log_f(pts):
        x = pts[:, 0]
        u2 = (x / a) ** 2
        inside = 1.0 - u2
        with np.errstate(divide="ignore"):
            shape = 2.0 * np.log(np.maximum(inside, 0.0))
        return log_norm + shape + 0.5 * x * x + _HALF_LOG_2PI

    def grad_log_f(pts):
        x = pts[:, :1]
        gap = a * a - x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(gap > 0.0, -4.0 * x / gap + x, 0.0)

    def sampler(n, gen):
        out = np.empty(n)
        filled = 0
        while filled < n:
            need = n - filled
            props = gen.uniform(-a, a, size=need)
            accept = gen.random(need) < (1.0 - (props / a) ** 2) ** 2
            taken = props[accept]
            out[filled : filled + taken.size] = taken
            filled += taken.size
        return out.reshape(n, 1)

    return TargetSpec(
        name="bump",
        dim=1,
        log_f=log_f,
        grad_log_f=grad_log_f,
        params={"kind": "bump", "radius": a},
        sampler=sampler,
    )


def from_potential(potential, grad_potential, dim, name="potential", params=None, log_scale=0.0):
    """Target given by an energy V, with density proportional to exp(-V).

    The ratio f is exp(-V(x) + |x|^2 / 2) up to an unknown positive
    constant, so the result is marked relative. Drift evaluation is
    unaffected; regularization and absolute density values are not
    available.

    Args:
        potential: batch callable, (n, dim) -> (n,).
        grad_potential: batch callable, (n, dim) -> (n, dim), or None.
        dim: state dimension.
        name: label used in configs and reports.
        params: JSON-serializable description for digests.
        log_scale: declared log scale shift (see TargetSpec).
    """

    def log_f(pts):
        return -potential(pts) + 0.5 * np.sum(pts * pts, axis=1)

    grad_log_f = None
    if grad_potential is not None:

        def grad_log_f(pts):
            return -grad_potential(pts) + pts

    return TargetSpec(
        name=name,
        dim=dim,
        log_f=log_f,
        grad_log_f=grad_log_f,
        relative=True,
        log_scale=log_scale,
        params=params if params is not None else {"kind": "potential", "name": name},
    )


def gaussian_potential(mean, log_scale=0.0):
    """Potential form of N(mean, I): V(x) = |x - mean|^2 / 2.

    Same law as ``gaussian(mean)`` but carried as a relative ratio, which
    is the natural shape for scale-invariance checks.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    _half_square(mean, "the potential mean")  # refuses NaN and inf too
    m = mean.copy()

    def potential(pts):
        d = pts - m[None, :]
        return 0.5 * np.sum(d * d, axis=1)

    def grad_potential(pts):
        return pts - m[None, :]

    params = {
        "kind": "gaussian-potential",
        "mean": [float(v) for v in m],
        "log_scale": float(log_scale),
    }
    return from_potential(
        potential,
        grad_potential,
        dim=m.shape[0],
        name="gaussian-potential",
        params=params,
        log_scale=log_scale,
    )


# kind -> (constructor, {required option: type}, {optional option: type}); a
# config's [target] holds "kind" plus exactly these keys, typed as in config.VALUE_TYPES.
_KINDS = {
    "standard": (standard_gaussian, {}, {"dim": "int"}),
    "gaussian": (gaussian, {"mean": "floats"}, {}),
    "mixture": (gaussian_mixture_target, {"weights": "floats", "means": "rows"}, {}),
    "bump": (quartic_bump, {}, {"radius": "float"}),
    "gaussian-potential": (gaussian_potential, {"mean": "floats"}, {"log_scale": "float"}),
}


def build_target(options):
    """Build a target from a plain options dict (the config-file form).

    The dict must carry a "kind" key naming one of the kinds above; the
    remaining keys are that kind's required and optional options. An
    optional "regularity" dict declares gamma and xi, and may declare zeta.

    Raises:
        UnknownTargetError: the kind is not registered.
        ValueError: a required option or regularity key is missing, or an
            unexpected one given.
    """
    if not isinstance(options, dict) or "kind" not in options:
        raise ValueError("target options must be a dict with a 'kind' key")
    opts = dict(options)
    kind = opts.pop("kind")
    reg = opts.pop("regularity", None)
    if isinstance(reg, dict):
        missing = [key for key in ("gamma", "xi") if key not in reg]
        extra = sorted(set(reg) - {"gamma", "xi", "zeta"})
        if missing or extra:
            raise ValueError(f"regularity needs gamma and xi and may give zeta; "
                             f"missing {missing}, unexpected {extra}")
    regularity = TargetRegularity(**reg) if isinstance(reg, dict) else reg
    if kind not in _KINDS:
        raise UnknownTargetError(f"unknown target kind {kind!r}")
    make, required, optional = _KINDS[kind]
    missing = [key for key in required if key not in opts]
    if missing:
        raise ValueError(f"target kind {kind!r} is missing required options {missing}")
    extra = sorted(set(opts) - set(required) - set(optional))
    if extra:
        raise ValueError(f"unexpected options for target kind {kind!r}: {extra}")
    target = make(**opts)
    if regularity is None:
        return target
    return dataclasses.replace(target, regularity=regularity)
