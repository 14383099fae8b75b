"""Targets: frozen density values, gradients against finite differences,
regularization algebra, and the options-dict registry."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from oracles import fd_grad
from sfsampler import (
    DriftEvaluator,
    TargetSpec,
    UnknownTargetError,
    UnsupportedTargetError,
    build_target,
    from_potential,
    gaussian,
    gaussian_mixture_target,
    gaussian_potential,
    quartic_bump,
    regularize,
    sample_ground_truth,
    standard_gaussian,
)
from sfsampler.drift import drift_exact
from sfsampler.targets import TargetRegularity, describe

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])


def test_gaussian_log_f_at_zero():
    # f(x) = exp(m x - m^2/2); at m = 2, x = 0 the log is exactly -2.
    g = gaussian([2.0])
    assert g.log_f(np.zeros((1, 1)))[0] == pytest.approx(-2.0, abs=1e-14)


def test_mixture_log_f_at_zero():
    # Both components contribute exp(-2)/2, so log f(0) = -2 exactly.
    assert MIX.log_f(np.zeros((1, 1)))[0] == pytest.approx(-2.0, abs=1e-14)


def test_standard_target_is_flat():
    std = standard_gaussian(3)
    x = np.random.default_rng(0).normal(size=(50, 3))
    assert np.allclose(std.log_f(x), 0.0, atol=1e-12)
    assert np.allclose(std.grad_log_f(x), 0.0, atol=1e-12)


def test_bump_log_f_at_zero_frozen():
    b = quartic_bump(3.0)
    expected = math.log(15.0 / 48.0) + 0.5 * math.log(2.0 * math.pi)
    assert b.log_f(np.zeros((1, 1)))[0] == pytest.approx(expected, abs=1e-14)


def test_bump_is_zero_outside_support():
    b = quartic_bump(3.0)
    x = np.array([[3.5], [-4.0], [100.0]])
    assert np.all(np.isneginf(b.log_f(x)))
    assert np.all(np.isfinite(b.grad_log_f(x)))


def test_bump_gradient_at_the_edge_of_its_support():
    b = quartic_bump(3.0)
    edge_in = np.nextafter(3.0, 0.0)
    x = np.array([[3.0], [-3.0], [np.nextafter(3.0, 4.0)], [5e15], [edge_in], [-edge_in], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the division by a zero gap stays silent
        got = b.grad_log_f(x)
    assert got.shape == (7, 1)
    assert np.array_equal(got[:4], np.zeros((4, 1)))
    assert np.array_equal(got[4:], -4.0 * x[4:] / (9.0 - x[4:] * x[4:]) + x[4:])


@pytest.mark.parametrize(
    "target,lo,hi",
    [
        (gaussian([1.5, -0.5]), -4.0, 4.0),
        (MIX, -4.0, 4.0),
        (gaussian_mixture_target([0.3, 0.7], [[1.0, 0.0], [-1.0, 2.0]]), -3.0, 3.0),
        (quartic_bump(3.0), -2.5, 2.5),
        (gaussian_potential([0.7], log_scale=4.2), -4.0, 4.0),
    ],
)
def test_gradients_match_finite_differences(target, lo, hi):
    gen = np.random.default_rng(7)
    x = gen.uniform(lo, hi, size=(100, target.dim))
    fd = fd_grad(target.log_f, x)
    got = target.grad_log_f(x)
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-7)


@st.composite
def mixtures_and_points(draw):
    """A mixture (or the standard Gaussian), a batch of points and a time.

    Means reach |30| and points |50|, so logits reach thousands and an
    exp without a max shift would overflow.
    """
    p = draw(st.integers(1, 4))
    coord = st.floats(-50.0, 50.0, allow_nan=False)
    x = np.array(draw(st.lists(st.lists(coord, min_size=p, max_size=p), min_size=1, max_size=8)))
    t = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return standard_gaussian(p), x, t
    k = draw(st.integers(1, 6))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    mean = st.floats(-30.0, 30.0, allow_nan=False)
    means = draw(st.lists(st.lists(mean, min_size=p, max_size=p), min_size=k, max_size=k))
    return gaussian_mixture_target(raw / raw.sum(), means), x, t


# Pinned so both softmax branches run every time: k = 2 takes the logistic
# form, here with logit gaps past exp's range, and k = 3 the general pass.
SOFTMAX_K2 = (gaussian_mixture_target([0.3, 0.7], [[30.0, -1.0], [-30.0, 2.0]]),
              np.array([[50.0, 0.0], [-50.0, 3.0], [0.1, -0.2]]), 0.25)
SOFTMAX_K3 = (gaussian_mixture_target([0.2, 0.3, 0.5], [[1.0], [-2.0], [30.0]]),
              np.array([[-3.0], [0.5], [40.0]]), 0.5)


@settings(max_examples=60, deadline=None)
@given(mixtures_and_points())
@example(SOFTMAX_K2)
@example(SOFTMAX_K3)
def test_mixture_softmax_matches_point_major_reference(case):
    target, x, t = case
    mix = target.mixture
    means = mix.means
    logits = np.log(mix.weights) + x @ means.T - 0.5 * np.sum(means * means, axis=1)
    smoothed = logits + 0.5 * (1.0 - t) * np.sum(means * means, axis=1)
    scale = max(1.0, np.abs(means).max())

    def close(got, want, size):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * size)

    lr = logsumexp(logits, axis=1)
    close(target.log_f(x), lr, max(1.0, np.abs(lr).max()))
    close(target.grad_log_f(x), softmax(logits, axis=1) @ means, scale)
    close(drift_exact(target, x, t), softmax(smoothed, axis=1) @ means, scale)
    assert target.grad_log_f(x).flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 9), st.floats(0.0, 1.0),
       st.integers(0, 99))
def test_mixture_pass_of_one_point_equals_its_row_in_a_batch(k, p, n, t, seed):
    # A reduction over the k component rows of a one-point block is pairwise
    # in numpy from k = 8 on, and would round differently from the
    # sequential sum the same point gets inside a wider block.
    gen = np.random.default_rng(seed)
    raw = gen.uniform(0.05, 1.0, k)
    target = gaussian_mixture_target(raw / raw.sum(), gen.uniform(-3.0, 3.0, (k, p)))
    x = gen.uniform(-4.0, 4.0, (n, p))
    lf, grad, drift = target.log_f(x), target.grad_log_f(x), drift_exact(target, x, t)
    for i in range(n):
        assert np.array_equal(target.log_f(x[i:i + 1]), lf[i:i + 1])
        assert np.array_equal(target.grad_log_f(x[i:i + 1]), grad[i:i + 1])
        assert np.array_equal(drift_exact(target, x[i:i + 1], t), drift[i:i + 1])


def test_mixture_weights_validation():
    with pytest.raises(ValueError):
        gaussian_mixture_target([0.5, 0.6], [[1.0], [-1.0]])
    with pytest.raises(ValueError):
        gaussian_mixture_target([1.5, -0.5], [[1.0], [-1.0]])


def test_flat_mixture_means_are_one_mean_a_component_bit_for_bit():
    flat = gaussian_mixture_target([0.5, 0.5], [2.0, -2.0])
    column = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
    x = np.linspace(-4.0, 4.0, 33).reshape(-1, 1)
    assert flat.params == column.params
    assert np.array_equal(flat.mixture.means, column.mixture.means)
    assert np.array_equal(flat.log_f(x), column.log_f(x))
    assert np.array_equal(drift_exact(flat, x, 0.3), drift_exact(column, x, 0.3))


def test_mixture_means_whose_half_square_overflows_are_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way to the error
        for means in ([[1e200]], [[1e200], [-1e200]], [[1e154, 1e154]]):
            with pytest.raises(ValueError, match=r"finite \|m\|\^2 / 2"):
                gaussian_mixture_target(np.full(len(means), 1.0 / len(means)), means)
        with pytest.raises(ValueError, match=r"finite \|m\|\^2 / 2"):
            gaussian([1e200])
        with pytest.raises(ValueError, match=r"finite \|m\|\^2 / 2"):
            gaussian_potential([1e200])
        assert gaussian([1e154]).mixture.dim == 1  # |m|^2 / 2 = 5e307 is finite


def test_regularized_value_frozen():
    # f_eps(0) = 0.9 exp(-2) + 0.1 for the symmetric mixture.
    reg = regularize(MIX, 0.1)
    got = float(np.exp(reg.log_f(np.zeros((1, 1)))[0]))
    assert got == pytest.approx(0.22180175491295143, abs=1e-15)


def test_regularized_mixture_stays_a_mixture():
    reg = regularize(MIX, 0.25)
    assert reg.mixture is not None
    assert reg.mixture.n_components == MIX.mixture.n_components + 1
    assert reg.mixture.weights[-1] == pytest.approx(0.25)
    assert np.allclose(reg.mixture.means[-1], 0.0)


def test_regularized_gradient_matches_finite_differences():
    reg = regularize(quartic_bump(3.0), 0.3)
    x = np.random.default_rng(3).uniform(-4.0, 4.0, size=(100, 1))
    fd = fd_grad(reg.log_f, x)
    assert np.allclose(reg.grad_log_f(x), fd, rtol=1e-6, atol=1e-7)


FLOOR_S = np.array([-np.inf, -800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0, np.inf])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-6, 0.1, 0.9])
def test_floored_general_target_matches_the_logaddexp_forms(eps):
    # s = log((1 - eps) f / eps) runs over FLOOR_S; the three f = 0 rows get
    # a NaN, a +inf and a -inf gradient, which must weigh exactly 0, silently.
    log_scale, log_keep, log_eps = 3.5, math.log1p(-eps), math.log(eps)
    s = np.concatenate([FLOOR_S, np.full(3, -np.inf)])
    lf = s - (log_scale + log_keep - log_eps)
    grad = np.ones((s.size, 1))
    grad[-3:, 0] = (np.nan, np.inf, -np.inf)
    base = TargetSpec("probe", 1, lambda x: lf.copy(), lambda x: grad.copy(), log_scale=log_scale)
    reg = regularize(base, eps)
    pts = np.zeros((s.size, 1))
    got_lf, got_w = reg.log_f(pts), reg.grad_log_f(pts)[:, 0]

    with np.errstate(invalid="ignore"):  # s = +inf: inf - inf in the old weight
        want_lf = np.logaddexp(log_keep + (lf + log_scale), log_eps)
        want_w = np.exp(log_keep + (lf + log_scale) - want_lf)
    top = s == np.inf
    assert got_lf[top] == want_lf[top] == np.inf and got_w[top] == 1.0  # the old weight is NaN
    np.testing.assert_array_max_ulp(got_lf[~top], want_lf[~top], maxulp=2)
    # The old weight is exp of a difference of terms up to |s| + |log eps| in size,
    # so it carries their rounding: about that many ulp of the weight.
    real = np.isfinite(s)
    ulps = np.abs(got_w[real] - want_w[real]) / np.spacing(want_w[real])
    assert (ulps <= 2.0 + np.abs(s[real]) - log_eps).all(), ulps
    assert np.array_equal(got_lf[np.isneginf(s)], np.full(4, log_eps))
    assert np.array_equal(got_w[np.isneginf(s)], np.zeros(4))


def test_regularize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        regularize(MIX, 0.0)
    with pytest.raises(ValueError):
        regularize(MIX, 1.0)
    with pytest.raises(UnsupportedTargetError):
        regularize(gaussian_potential([1.0]), 0.1)


def test_regularity_propagates_through_regularize():
    t = dataclasses.replace(gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]]),
                            regularity=TargetRegularity(gamma=10.0, xi=0.1, zeta=2.0))
    reg = regularize(t, 0.5)
    assert reg.regularity is not None
    assert reg.regularity.xi >= t.regularity.xi


def test_regularized_bump_ground_truth_mixes_in_the_gaussian_floor():
    # (1 - eps) bump(a) + eps N(0, 1): the bump has variance a^2 / 7 and
    # fourth moment a^4 / 21, the floor 1 and 3.
    eps, a, n = 0.3, 3.0, 200_000
    x = sample_ground_truth(regularize(quartic_bump(a), eps), n, 23).samples
    assert x.shape == (n, 1)
    assert (np.abs(x) > a).sum() > 50  # the floor puts about 160 points there
    var = (1.0 - eps) * a * a / 7.0 + eps
    fourth = (1.0 - eps) * a**4 / 21.0 + 3.0 * eps
    assert abs(x.var() - var) < 4.0 * math.sqrt((fourth - var * var) / n)


def test_sample_ground_truth_is_deterministic():
    a = sample_ground_truth(MIX, 500, 99)
    b = sample_ground_truth(MIX, 500, 99)
    assert np.array_equal(a.samples, b.samples)
    assert a.samples.shape == (500, 1)


def test_ground_truth_moments():
    batch = sample_ground_truth(MIX, 200_000, 5)
    assert abs(batch.samples.mean()) < 4 * np.sqrt(5.0 / 200_000)
    assert abs(batch.samples.var() - 5.0) < 0.1


def test_ground_truth_needs_a_sampler():
    t = from_potential(
        lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1, name="plain"
    )
    with pytest.raises(UnsupportedTargetError):
        sample_ground_truth(t, 10, 0)


def test_params_a_digest_cannot_hold_fail_before_any_run():
    with pytest.raises(TypeError, match="not JSON serializable"):
        from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1,
                       params={"mean": np.zeros(1)})


def test_ground_truth_rejects_a_transposed_sampler():
    # A (dim, n) draw would reshape silently into scrambled (n, dim) points.
    mix = gaussian_mixture_target([0.5, 0.5], [[2.0, 0.0], [-2.0, 1.0]])
    transposed = dataclasses.replace(mix, sampler=lambda n, gen: mix.sampler(n, gen).T)
    with pytest.raises(UnsupportedTargetError, match="sampler returned shape"):
        sample_ground_truth(transposed, 5, 0)


def test_the_drift_rejects_a_column_log_f():
    column = dataclasses.replace(MIX, log_f=lambda x: MIX.log_f(x)[:, None])
    ev = DriftEvaluator(column, "mc-stein", m=8)
    with pytest.raises(UnsupportedTargetError, match="log_f returned shape"):
        ev.batch(np.zeros((4, 1)), 0.5, 0)


def test_the_drift_rejects_a_flat_gradient():
    mix = gaussian_mixture_target([0.5, 0.5], [[2.0, 0.0], [-2.0, 1.0]])
    flat = dataclasses.replace(mix, grad_log_f=lambda x: mix.grad_log_f(x)[:, 0])
    ev = DriftEvaluator(flat, "mc-grad", m=8)
    with pytest.raises(UnsupportedTargetError, match="grad_log_f returned shape"):
        ev.batch(np.zeros((1, 2)), 0.5, 0)


@pytest.mark.parametrize(
    "options",
    [
        {"kind": "standard", "dim": 2},
        {"kind": "gaussian", "mean": [1.0, -2.0]},
        {"kind": "mixture", "weights": [0.5, 0.5], "means": [[2.0], [-2.0]]},
        {"kind": "bump", "radius": 2.0},
        {"kind": "gaussian-potential", "mean": [0.5], "log_scale": 3.0},
    ],
)
def test_build_target_round_trips_through_params(options):
    t1 = build_target(options)
    t2 = build_target(dict(t1.params))
    assert t1.params == t2.params
    assert describe(t1) == describe(t2)


def test_build_target_error_paths():
    with pytest.raises(UnknownTargetError):
        build_target({"kind": "cauchy"})
    with pytest.raises(ValueError):
        build_target({"kind": "bump", "radius": 3.0, "mean": [0.0]})
    with pytest.raises(ValueError):
        build_target({"weights": [1.0]})
    for options, key in (
        ({"kind": "gaussian"}, "mean"),
        ({"kind": "mixture", "weights": [1.0]}, "means"),
        ({"kind": "gaussian-potential", "log_scale": 1.0}, "mean"),
    ):
        with pytest.raises(ValueError, match=f"missing required options \\['{key}'\\]"):
            build_target(options)


def test_build_target_accepts_regularity():
    t = build_target(
        {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "means": [[2.0], [-2.0]],
            "regularity": {"gamma": 100.0, "xi": 0.01},
        }
    )
    assert t.regularity.gamma == 100.0
    assert describe(t)["regularity"] == {"gamma": 100.0, "xi": 0.01}


@pytest.mark.parametrize("regularity, message", [
    ({"gamma": 1.0}, r"missing \['xi'\], unexpected \[\]"),
    ({"xi": 0.5, "zeta": 2.0}, r"missing \['gamma'\], unexpected \[\]"),
    ({"gamma": 1.0, "xi": 0.5, "zeta": 2.0, "lip": 3.0}, r"missing \[\], unexpected \['lip'\]"),
], ids=["no-xi", "no-gamma", "unknown-key"])
def test_build_target_names_the_regularity_keys_it_refuses(regularity, message):
    with pytest.raises(ValueError, match=message):
        build_target({"kind": "bump", "regularity": regularity})


def test_zeta_below_xi_is_refused_and_zeta_equal_to_xi_kept():
    with pytest.raises(ValueError, match="zeta must be at least xi"):
        TargetRegularity(gamma=1.0, xi=0.5, zeta=0.1)
    # f may be constant, so its bounds may meet; flooring keeps them in order.
    for zeta in (0.5, 0.6):
        declared = TargetRegularity(gamma=1.0, xi=0.5, zeta=zeta)
        bump = dataclasses.replace(quartic_bump(), regularity=declared)
        floored = regularize(bump, 0.3).regularity
        assert (floored.zeta > floored.xi) == (zeta > 0.5) and floored.zeta >= floored.xi


def test_bump_sampler_matches_declared_variance():
    b = quartic_bump(3.0)
    batch = sample_ground_truth(b, 200_000, 21)
    assert abs(batch.samples.mean()) < 0.01
    assert batch.samples.var() == pytest.approx(9.0 / 7.0, abs=0.02)
    assert np.abs(batch.samples).max() <= 3.0


@settings(max_examples=30, deadline=None)
@given(mixtures_and_points())
@example(SOFTMAX_K2)
@example(SOFTMAX_K3)
def test_fused_mixture_call_equals_the_two_calls_bit_for_bit(case):
    target, x, _ = case
    value, grad = target.mixture.log_ratio_and_grad(x)
    assert grad.shape == (target.dim, len(x)) and grad.flags.c_contiguous
    assert np.array_equal(value, target.log_f(x))
    assert np.array_equal(grad.T, target.grad_log_f(x))
