"""Drift: closed form against quadrature, Monte-Carlo exactness properties,
scale invariance, singularity reporting, and regularity probes."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mixture_f_derivatives, mixture_gamma_xi, quadrature_drift_1d
from sfsampler import (
    DriftEvaluator,
    EpsSchedule,
    ProbeGrid,
    SamplerConfig,
    TargetSpec,
    UnsupportedTargetError,
    default_drift_mode,
    drift_exact,
    drift_mc_stein,
    estimate_regularity,
    from_potential,
    gaussian,
    gaussian_mixture_target,
    gaussian_potential,
    probe_points,
    quartic_bump,
    regularize,
    sfs_run,
    standard_gaussian,
)
from sfsampler.errors import DriftSingularityError
from sfsampler import drift as _drift
from sfsampler import rng as _rng
from sfsampler import sampler as _sampler
from sfsampler import targets as _targets

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])


def test_exact_drift_matches_quadrature():
    f, f1, _ = mixture_f_derivatives([0.5, 0.5], [2.0, -2.0])
    for x in (-3.0, -1.0, 0.0, 0.7, 2.5):
        for t in (0.0, 0.5, 0.9):
            oracle = quadrature_drift_1d(f, f1, x, t)
            got = float(drift_exact(MIX, np.array([x]), t)[0])
            assert got == pytest.approx(oracle, abs=1e-9)


def test_exact_drift_far_field_value():
    # For the symmetric mixture b(x, 0) = 2 tanh(2x); at x = 5 that is
    # 2 tanh(10), indistinguishable from 2 at 1e-8 but not at 1e-12.
    b = float(drift_exact(MIX, np.array([5.0]), 0.0)[0])
    assert b == pytest.approx(2.0 * math.tanh(10.0), abs=1e-12)
    assert b == pytest.approx(2.0, abs=1e-8)
    assert b != 2.0


def test_exact_drift_time_dependence_matches_formula():
    # Asymmetric weights shift the softmax by a t-dependent offset.
    mix = gaussian_mixture_target([0.3, 0.7], [[1.0], [-2.0]])
    x, t = 0.4, 0.6
    logits = [
        math.log(0.3) + 1.0 * x - t * 0.5,
        math.log(0.7) - 2.0 * x - t * 2.0,
    ]
    z = np.exp(logits - np.max(logits))
    expected = (z[0] * 1.0 + z[1] * -2.0) / z.sum()
    got = float(drift_exact(mix, np.array([x]), t)[0])
    assert got == pytest.approx(expected, abs=1e-14)


def test_exact_drift_needs_a_mixture():
    with pytest.raises(UnsupportedTargetError):
        drift_exact(quartic_bump(3.0), np.array([0.0]), 0.5)


def test_default_mode_prefers_closed_form():
    assert default_drift_mode(MIX) == "exact"
    assert default_drift_mode(quartic_bump(3.0)) == "mc-grad"
    pot = gaussian_potential([1.0])
    assert default_drift_mode(pot) == "mc-grad"


def test_gradient_form_is_exactly_constant_for_gaussian():
    # For N(c, I) the integrand gradient is the constant c, so the weighted
    # average is exactly c no matter the batch, the seed, or t.
    g = gaussian([2.0])
    for m in (1, 3, 64):
        for t in (0.0, 0.37, 0.99, 1.0):
            for seed in (0, 12345):
                ev = DriftEvaluator(target=g, mode="mc-grad", m=m, seed=seed)
                b = ev.batch(np.array([0.3]), t, 0)[0]
                assert float(b[0]) == 2.0


@pytest.mark.parametrize("mean", [[2.0], [-0.5, 4.0]])
@pytest.mark.parametrize("m", [127, 128, 129, 1000, 4099])
def test_gradient_form_is_exact_past_one_pairwise_block(mean, m):
    # numpy sums runs of more than 128 values pairwise; numerator and
    # denominator must still share one tree, in one tile and across tiles.
    g = gaussian(mean)
    p = len(mean)
    ev = DriftEvaluator(target=g, mode="mc-grad", m=m, seed=9)
    assert np.array_equal(ev.batch(np.full((3, p), 0.3), 0.4, 1)[2], np.array(mean))
    pts = np.linspace(-2.0, 2.0, 7 * p).reshape(7, p)
    for workers in (1, 2):
        ev = DriftEvaluator(target=g, mode="mc-grad", m=m, seed=9, workers=workers)
        with mock.patch.object(_drift, "_CHUNK_VALUES", 2 * m * (p + 1)):  # four tiles
            got = ev.batch(pts, 0.4, 1)
        assert np.array_equal(got, np.tile(mean, (7, 1)))


def test_gradient_form_is_exactly_zero_on_flat_target():
    std = standard_gaussian(2)
    ev = DriftEvaluator(target=std, mode="mc-grad", m=16, seed=5)
    b = ev.batch(np.array([1.0, -2.0]), 0.5, 0)[0]
    assert np.all(b == 0.0)


def test_stein_form_with_one_probe_is_the_raw_draw():
    # With m = 1 the weights cancel and the estimate is Z / sqrt(1 - t).
    t = 0.36
    ev = DriftEvaluator(target=MIX, mode="mc-stein", m=1, seed=77)
    b = ev.batch(np.full((5, 1), 0.5), t, 2)[4]  # particle 4
    z = _rng.normal_row(77, _rng.ROLE_DRIFT, 2, 4, (1, 1))
    assert b[0] == pytest.approx(float(z[0, 0]) / math.sqrt(1.0 - t), rel=1e-15)


def test_stein_form_rejects_the_endpoint():
    ev = DriftEvaluator(target=MIX, mode="mc-stein", m=8, seed=0)
    with pytest.raises(ValueError):
        drift_mc_stein(ev, np.array([0.0]), 1.0)


def test_mc_estimates_converge_to_exact():
    # Coarse consistency only: at t = 0 the importance weights are heavy
    # tailed and one estimate at m = 2e5 still wanders by a few hundredths.
    # The tight 4-sigma grid check lives in the acceptance suite.
    ev = DriftEvaluator(target=MIX, mode="mc-grad", m=200_000, seed=31)
    sv = DriftEvaluator(target=MIX, mode="mc-stein", m=200_000, seed=31)
    for x, t in ((0.0, 0.0), (1.2, 0.5)):
        exact = float(drift_exact(MIX, np.array([x]), t)[0])
        assert float(ev.batch(np.array([x]), t, 0)[0, 0]) == pytest.approx(exact, abs=0.2)
        assert float(sv.batch(np.array([x]), t, 0)[0, 0]) == pytest.approx(exact, abs=0.2)


@pytest.mark.parametrize("mode", ["mc-grad", "mc-stein"])
def test_scale_shift_leaves_drift_bit_identical(mode):
    outs = []
    for log_c in (math.log(1e-6), 0.0, math.log(1e6)):
        target = gaussian_potential([1.0], log_scale=log_c)
        ev = DriftEvaluator(target=target, mode=mode, m=32, seed=4)
        rows = [ev.batch(np.array([x]), t, 0)[0] for x, t in ((-2.0, 0.0), (0.3, 0.4), (4.0, 0.99))]
        outs.append(np.vstack(rows))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


@pytest.mark.parametrize("log_c", [math.log(1e-6), math.log(1e6)], ids=["1e-6", "1e6"])
def test_a_constant_folded_into_log_f_moves_the_drift_and_a_run_only_by_rounding(log_c):
    # Folded into log f, a constant is no longer dropped before the weights
    # are formed: log f - max log f is taken after the shift, so it cancels
    # only up to rounding, not bit for bit as a declared log_scale does.
    base = gaussian_potential([1.0])
    folded = dataclasses.replace(base, log_f=lambda x: base.log_f(x) + log_c)
    pts = np.array([[-2.0], [0.3], [4.0]])
    for mode in ("mc-grad", "mc-stein"):
        for t in (0.0, 0.4, 0.99):
            want = DriftEvaluator(base, mode, m=32, seed=4).batch(pts, t, 1)
            got = DriftEvaluator(folded, mode, m=32, seed=4).batch(pts, t, 1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    config = SamplerConfig(steps=10, particles=64, seed=4, drift="mc-stein", mc_size=32)
    want = sfs_run(config, base).samples
    np.testing.assert_allclose(sfs_run(config, folded).samples, want, rtol=1e-12, atol=0.0)


def test_evaluator_validation():
    with pytest.raises(UnsupportedTargetError):
        DriftEvaluator(target=quartic_bump(3.0), mode="exact")
    with pytest.raises(ValueError):
        DriftEvaluator(target=MIX, mode="mc-grad", m=None)
    from sfsampler import from_potential

    no_grad = from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1)
    with pytest.raises(UnsupportedTargetError):
        DriftEvaluator(target=no_grad, mode="mc-grad", m=8)
    with pytest.raises(ValueError):
        DriftEvaluator(target=MIX, mode="warp", m=8)


@pytest.mark.parametrize("m", [2.5, "8", True, 0, -3, None])
def test_evaluator_needs_a_positive_integer_m(m):
    with pytest.raises(ValueError):
        DriftEvaluator(target=MIX, mode="mc-grad", m=m)


def test_evaluator_accepts_numpy_integer_m():
    ev = DriftEvaluator(target=MIX, mode="mc-stein", m=np.int64(4), seed=1)
    assert ev.m == 4 and type(ev.m) is int
    assert DriftEvaluator(target=MIX, mode="mc-grad", m=np.int32(3)).m == 3


def test_auto_resolves_to_the_default_mode():
    no_grad = from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1)
    for target in (MIX, quartic_bump(3.0), no_grad):
        ev = DriftEvaluator(target=target, mode="auto", m=8, seed=3)
        assert ev.mode == default_drift_mode(target)
    assert DriftEvaluator(target=no_grad, mode="auto", m=8).mode == "mc-stein"
    assert DriftEvaluator(target=MIX, mode="exact", m=5).m is None


def test_point_call_rejects_an_evaluator_of_another_mode():
    grad = DriftEvaluator(target=MIX, mode="mc-grad", m=8)
    with pytest.raises(ValueError):
        drift_mc_stein(grad, np.array([0.0]), 0.5)
    with pytest.raises(ValueError):
        drift_mc_stein(DriftEvaluator(target=MIX, mode="exact"), np.array([0.0]), 0.5)


def _own_row_drift(ev, x, t, k, i):
    """Particle i's drift at x from the core on its own probe row, drawn by rng.normal_row."""
    z = _rng.normal_row(ev.seed, _rng.ROLE_DRIFT, k, i, (ev.m, len(x)))
    return _drift._mc_drift_core(ev.target, x[None, :], t, z[None], ev.mode, step_index=k,
                                 particle_offset=i)[0]


@st.composite
def drift_cases(draw):
    kind = draw(st.sampled_from(["mixture", "bump", "potential"]))
    if kind == "mixture":
        p = draw(st.integers(1, 3))
        k = draw(st.integers(1, 4))
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        means = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p),
                              min_size=k, max_size=k))
        target = gaussian_mixture_target(raw / raw.sum(), means)
    elif kind == "bump":
        p, target = 1, quartic_bump(3.0)
    else:
        p = draw(st.integers(1, 3))
        target = gaussian_potential(draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p)))
    mode = draw(st.sampled_from(["mc-grad", "mc-stein"]))
    n = draw(st.integers(1, 12))
    lim = 2.0 if kind == "bump" else 4.0
    pts = np.array(draw(st.lists(st.lists(st.floats(-lim, lim), min_size=p, max_size=p),
                                 min_size=n, max_size=n)))
    ts = [0.0, 0.3, 0.75, 0.99] + ([1.0] if mode == "mc-grad" else [])
    return dict(
        target=target, mode=mode, pts=pts, t=draw(st.sampled_from(ts)),
        m=draw(st.integers(1, 40)), k=draw(st.integers(0, 5)), seed=draw(st.integers(0, 99)),
        chunk_values=draw(st.integers(1, 400)), softmax_block=draw(st.integers(1, 64)),
        workers=draw(st.sampled_from([1, 2])),
    )


@settings(max_examples=40, deadline=None)
@given(drift_cases())
# A matmul-based mixture gradient failed here: BLAS rounded the m = 9 probe
# rows of one point differently from the same rows inside a 12-point batch.
@example(dict(
    target=gaussian_mixture_target([0.3, 0.7], [[2.0], [-1.5]]), mode="mc-grad",
    pts=np.linspace(-5.0, 5.0, 25)[:12, None], t=0.0, m=9, k=0, seed=12,
    chunk_values=400, softmax_block=1 << 15, workers=1,
))
def test_batch_rows_equal_point_calls_bit_for_bit(case):
    ev = DriftEvaluator(target=case["target"], mode=case["mode"], m=case["m"], seed=case["seed"],
                        workers=case["workers"])
    pts, t, k = case["pts"], case["t"], case["k"]
    rows, dead = [], None
    for i, x in enumerate(pts):
        try:
            rows.append(_own_row_drift(ev, x, t, k, i))
        except DriftSingularityError:
            dead = i if dead is None else dead
    with mock.patch.object(_drift, "_CHUNK_VALUES", case["chunk_values"]), \
            mock.patch.object(_targets, "_SOFTMAX_BLOCK", case["softmax_block"]):
        if dead is not None:
            with pytest.raises(DriftSingularityError) as err:
                ev.batch(pts, t, k)
            assert err.value.particle_index == dead
            return
        got = ev.batch(pts, t, k)
    assert got.shape == pts.shape
    assert np.array_equal(got, np.vstack(rows))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", ["mc-grad", "mc-stein"])
def test_point_calls_equal_the_core_on_their_own_probe_row(mode, workers):
    # One point is particle 0; particle i is row i of a batch of i + 1 rows.
    # The reference row comes from rng.normal_row, independently of batch's tile loop.
    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    m, p, k, t = 12, 2, 3, 0.3
    ev = DriftEvaluator(target, mode, m=m, seed=21, workers=workers)
    x = np.array([0.4, -1.1])
    with mock.patch.object(_drift, "_CHUNK_VALUES", 2 * m * (p + 1)):  # two particles a tile
        assert np.array_equal(ev.batch(x, t, k)[0], _own_row_drift(ev, x, t, k, 0))
        for i in (0, 1, 2, 5, 17):
            got = ev.batch(np.tile(x, (i + 1, 1)), t, k)[i]
            assert np.array_equal(got, _own_row_drift(ev, x, t, k, i)), i
        pts = np.zeros((18, 1))
        pts[17] = 10.0  # every probe of particle 17 lands outside the bump's support
        dead = DriftEvaluator(quartic_bump(3.0), mode, m=m, seed=21, workers=workers)
        with pytest.raises(DriftSingularityError) as err:
            dead.batch(pts, t, k)
    assert (err.value.particle_index, err.value.step_index) == (17, k)


def test_a_point_call_runs_on_the_calling_thread():
    callers = set()

    def log_f(x):
        callers.add(threading.get_ident())
        return MIX.log_f(x)

    ev = DriftEvaluator(dataclasses.replace(MIX, log_f=log_f), "mc-stein", m=8, workers=3)
    drift_mc_stein(ev, np.array([0.3]), 0.5, 0)
    assert callers == {threading.get_ident()}


@pytest.mark.parametrize("mode", ["mc-grad", "mc-stein"])
def test_tiles_and_workers_never_change_a_drift(mode):
    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    pts = 2.0 * np.random.default_rng(4).standard_normal((100, 2))
    outs = set()
    # Tiles of one particle (in pool tasks of 34 or 2 tiles at three workers), of 18, of all.
    for chunk_values, task_tiles in ((600, 64), (600, 2), (1 << 14, 64), (1 << 22, 64)):
        for workers in (1, 3):
            ev = DriftEvaluator(target, mode, m=300, seed=8, workers=workers)
            with mock.patch.object(_drift, "_CHUNK_VALUES", chunk_values), \
                    mock.patch.object(_drift, "_TASK_TILES", task_tiles):
                outs.add(ev.batch(pts, 0.3, 2).tobytes())
    assert len(outs) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_dead_particle_in_a_later_tile_is_reported(workers):
    pts = np.zeros((9, 1))
    pts[[4, 8]] = 10.0  # every probe lands outside the bump's support
    ev = DriftEvaluator(quartic_bump(3.0), "mc-grad", m=16, seed=2, workers=workers)
    with mock.patch.object(_drift, "_CHUNK_VALUES", 2 * 16 * 2):  # two particles a tile
        with pytest.raises(DriftSingularityError) as err:
            ev.batch(pts, 0.0, 3)
    assert (err.value.particle_index, err.value.step_index) == (4, 3)
    assert err.value.x.tolist() == [10.0]


@pytest.mark.parametrize("which, bad", [
    ("log_f", lambda lf: lf[:, None]),
    ("log_f", lambda lf: lf[:-1]),
    ("grad_log_f", lambda g: g[:, 0]),
    ("grad_log_f", lambda g: np.hstack([g, g])),
])
def test_wrong_shaped_target_output_is_unsupported(which, bad):
    base = gaussian([1.0])
    target = dataclasses.replace(base, **{which: lambda x: bad(getattr(base, which)(x))})
    ev = DriftEvaluator(target, "mc-grad", m=8, seed=1)
    with pytest.raises(UnsupportedTargetError, match=which):
        ev.batch(np.zeros((3, 1)), 0.5, 0)
    with pytest.raises(UnsupportedTargetError, match=which):
        ev.batch(np.array([0.0]), 0.5, 0)


@pytest.mark.parametrize("mode", ["exact", "mc-grad", "mc-stein"])
@pytest.mark.parametrize("points, message", [
    (np.zeros((4, 3)), "expected batch shape"),
    (np.zeros((4, 1)), "expected batch shape"),
    (np.zeros(5), "expected a point of dimension 2"),
    (np.array([[0.0, 1.0], [np.nan, 0.0]]), "must be finite"),
    (np.array([[0.0, np.inf]]), "must be finite"),
    (0.5, "scalar input for a 2-dimensional target"),
    (np.zeros((1, 1, 2)), "at most 2-dimensional"),
], ids=["too-wide", "too-narrow", "flat", "nan", "inf", "scalar", "3-d"])
def test_batch_checks_its_points_in_every_mode(mode, points, message):
    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    ev = DriftEvaluator(target, mode, m=8, seed=1)
    with pytest.raises(ValueError, match=message):
        ev.batch(points, 0.5, 0)


@st.composite
def mixture_drift_cases(draw):
    k, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    means = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p),
                          min_size=k, max_size=k))
    target = gaussian_mixture_target(raw / raw.sum(), means)
    if draw(st.booleans()):
        target = regularize(target, draw(st.floats(0.01, 0.5)))
    n = draw(st.integers(1, 60))
    pts = np.array(draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=p, max_size=p),
                                 min_size=n, max_size=n)))
    return dict(
        target=target, pts=pts, t=draw(st.floats(0.0, 1.0)),
        m=draw(st.integers(1, 300)), seed=draw(st.integers(0, 99)),
        workers=draw(st.sampled_from([1, 3])),
        chunk_values=draw(st.sampled_from([1, 100, 2000, _drift._CHUNK_VALUES])),
    )


@settings(max_examples=60, deadline=None)
@given(mixture_drift_cases())
# Pinned so both softmax branches run every time: k = 2 takes the logistic
# form and k = 3 the general pass.
@example(dict(
    target=gaussian_mixture_target([0.4, 0.6], [[2.5, -1.0], [-3.0, 0.5]]),
    pts=np.column_stack([np.linspace(-4.0, 4.0, 13), np.linspace(3.0, -3.0, 13)]), t=0.3,
    m=37, seed=4, workers=3, chunk_values=100,
))
@example(dict(
    target=gaussian_mixture_target([0.2, 0.3, 0.5], [[1.0], [-2.0], [3.0]]),
    pts=np.linspace(-4.0, 4.0, 21)[:, None], t=0.0, m=200, seed=9, workers=1, chunk_values=2000,
))
def test_one_pass_mixture_drift_equals_the_two_call_drift_bit_for_bit(case):
    # Plain functions are not the mixture's own methods, so they take the
    # two-call path with user-target checks and fresh outputs where the one
    # pass reuses the tile workspace; both read the same channel-major
    # probes. Small chunk sizes put tile edges inside every batch.
    target = case["target"]
    mix = target.mixture

    def same_on_a_c_order_copy(method):
        # The closed form, regularity and ULA pass C-order points: the
        # mixture's bits must not depend on the layout it reads.
        def call(x):
            out = method(x)
            assert np.array_equal(method(np.ascontiguousarray(x)), out)
            return out
        return call

    wrapped = dataclasses.replace(target, log_f=same_on_a_c_order_copy(mix.log_ratio),
                                  grad_log_f=same_on_a_c_order_copy(mix.grad_log_ratio))

    def drift(spec):
        ev = DriftEvaluator(spec, "mc-grad", m=case["m"], seed=case["seed"],
                            workers=case["workers"])
        return ev.batch(case["pts"], case["t"], 1)

    with mock.patch.object(_drift, "_CHUNK_VALUES", case["chunk_values"]):
        assert np.array_equal(drift(target), drift(wrapped))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", ["mc-grad", "mc-stein"])
def test_target_callables_get_the_transposed_view_of_channel_major_probes(mode, workers):
    # At most 3 particles a tile at m = 8, p = 3, so tiles end inside the
    # batch of 10 at either worker count.
    seen = []

    def record(fn):
        def call(x):
            assert x.shape[1] == 3 and x.T.flags.c_contiguous and not x.flags.c_contiguous
            seen.append(x.shape[0])
            return fn(x)
        return call

    target = gaussian_potential([1.0, -0.5, 2.0])
    recording = dataclasses.replace(target, log_f=record(target.log_f),
                                    grad_log_f=record(target.grad_log_f))
    ev = DriftEvaluator(recording, mode, m=8, seed=3, workers=workers)
    pts = np.linspace(-2.0, 2.0, 30).reshape(10, 3)
    with mock.patch.object(_drift, "_CHUNK_VALUES", 3 * 8 * 4):
        got = ev.batch(pts, 0.5, 1)
    calls = 2 if mode == "mc-grad" else 1  # log f, and grad log f in the gradient form
    assert len(seen) >= 4 * calls and sum(seen) == 10 * 8 * calls and max(seen) <= 3 * 8
    plain = DriftEvaluator(target, mode, m=8, seed=3, workers=workers)
    with mock.patch.object(_drift, "_CHUNK_VALUES", 3 * 8 * 4):
        assert np.array_equal(got, plain.batch(pts, 0.5, 1))


def test_two_component_drift_takes_the_dominant_mean_silently_where_exp_overflows():
    # Means +-40 at points +-30 put the logit gap at 2 400: exp(d) overflows
    # at one point and underflows at the other.
    target = gaussian_mixture_target([0.5, 0.5], [[40.0], [-40.0]])
    mix = target.mixture
    x = np.array([[30.0], [-30.0]])
    dominant = np.array([[40.0], [-40.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = mix.log_ratio_and_grad(x)
        assert np.array_equal(grad.T, dominant)
        assert np.array_equal(mix.log_ratio(x), value)
        np.testing.assert_allclose(value, math.log(0.5) + 30.0 * 40.0 - 800.0, rtol=1e-14)
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(mix.grad_log_ratio(x, t), dominant)
            assert np.array_equal(drift_exact(target, x, t), dominant)
            for workers in (1, 3):
                # One probe a particle: the weighted mean is that probe's gradient itself.
                ev = DriftEvaluator(target, "mc-grad", m=1, seed=5, workers=workers)
                got = ev.batch(np.repeat(x, 4, axis=0), t, 0)
                assert np.array_equal(got, np.repeat(dominant, 4, axis=0))


def test_a_drift_batch_allocates_far_less_than_its_probe_block():
    # Tiles stay cache-sized and the workspace is sized by a tile, not the step.
    n, m, p = 4096, 256, 2
    target = gaussian_mixture_target([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]])
    ev = DriftEvaluator(target, "mc-grad", m=m, seed=1, workers=1)
    pts = np.random.default_rng(0).standard_normal((n, p))
    ev.batch(pts, 0.5, 0)  # warm up lazily built state
    tracemalloc.start()
    try:
        ev.batch(pts, 0.5, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * m * p * 8 / 4


@pytest.mark.parametrize("mode", ["mc-grad", "mc-stein"])
def test_replaced_mixture_callables_are_the_ones_called(mode):
    rows = {"log_f": 0, "grad_log_f": 0}

    def counting(name, f):
        def wrapper(x):
            rows[name] += len(x)
            return f(x)
        return wrapper

    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    counted = dataclasses.replace(
        target, log_f=counting("log_f", target.log_f),
        grad_log_f=counting("grad_log_f", target.grad_log_f))
    n, m = 50, 64  # several tiles
    pts = np.random.default_rng(3).standard_normal((n, 2))
    one_pass = _targets.GaussianMixture.log_ratio_and_grad
    with mock.patch.object(_targets.GaussianMixture, "log_ratio_and_grad", autospec=True,
                           side_effect=one_pass) as spy:
        got = DriftEvaluator(counted, mode, m=m, seed=4).batch(pts, 0.5, 0)
        assert rows == {"log_f": n * m, "grad_log_f": n * m if mode == "mc-grad" else 0}
        assert not spy.called
        want = DriftEvaluator(target, mode, m=m, seed=4).batch(pts, 0.5, 0)
        assert spy.called == (mode == "mc-grad")
    assert np.array_equal(got, want)


def test_the_drift_rejects_a_nan_log_f():
    bad = dataclasses.replace(MIX, log_f=lambda x: np.where(x[:, 0] > 0.0, np.nan, MIX.log_f(x)))
    with pytest.raises(UnsupportedTargetError,
                       match=r"returned NaN at a drift probe \(particle 0, step 0, t = 0\.5\)"):
        drift_mc_stein(DriftEvaluator(bad, "mc-stein", m=8), np.array([0.3]), 0.5)


def test_all_probes_outside_support_is_a_reported_singularity():
    tiny = quartic_bump(0.05)
    ev = DriftEvaluator(target=tiny, mode="mc-grad", m=16, seed=5)
    with pytest.raises(DriftSingularityError) as err:
        ev.batch(np.array([3.0]), 0.0, 0)
    assert err.value.step_index == 0
    assert err.value.particle_index == 0
    assert err.value.t == 0.0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", ["exact", "mc-grad", "mc-stein"])
def test_an_empty_batch_is_an_empty_drift_in_every_mode(mode, workers):
    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    ev = DriftEvaluator(target, mode, m=8, seed=1, workers=workers)
    b = ev.batch(np.empty((0, 2)), 0.5, 3)
    assert b.shape == (0, 2) and b.dtype == np.float64


def _cut_target(radius=1.5, fill=np.inf):
    """f = 0 outside |x| < radius, where grad_log_f returns ``fill`` (None: -2x, as inside)."""
    def log_f(x):
        return np.where(np.abs(x[:, 0]) < radius, -x[:, 0] ** 2, -np.inf)

    def grad_log_f(x):
        return np.where(np.abs(x) < radius, -2.0 * x, -2.0 * x if fill is None else fill)

    return TargetSpec(name="cut", dim=1, log_f=log_f, grad_log_f=grad_log_f)


def _outcome(call):
    """The bytes ``call()`` returns, or the type and message of what it raises."""
    try:
        return np.ascontiguousarray(call()).tobytes()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_direct_batch_on_an_infinite_gradient_where_f_is_zero_warns_nothing(workers):
    # Eight-particle tiles: the 40 points make five, shared by three threads at workers=3.
    ev = DriftEvaluator(_cut_target(), "mc-grad", m=32, seed=1, workers=workers)
    points = np.linspace(-1.2, 1.2, 40).reshape(-1, 1)
    with mock.patch.object(_drift, "_CHUNK_VALUES", 8 * 32 * 2), warnings.catch_warnings():
        warnings.simplefilter("error")
        b = ev.batch(points, 0.0, 0)
        one = DriftEvaluator(_cut_target(fill=None), "mc-grad", m=32, seed=1).batch(points, 0.0, 0)
    assert np.isfinite(b).all()
    assert b.tobytes() == one.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([np.inf, -np.inf, np.nan, 0.0]), st.floats(1.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_what_the_gradient_returns_where_f_is_zero_changes_no_byte(fill, radius, seed):
    """The gradient where f = 0 is replaced by +inf, -inf, NaN or 0 against the
    finite -2x: no byte of a direct batch or of a run changes, floored or not,
    on one thread or three, and none of them warns."""
    points = np.linspace(-radius, radius, 24).reshape(-1, 1)
    with mock.patch.object(_drift, "_CHUNK_VALUES", 8 * 32 * 2), warnings.catch_warnings():
        warnings.simplefilter("error")
        for workers in (1, 3):
            for eps in ("none", "fixed:0.2"):
                outs = []
                for g in (fill, None):
                    cfg = SamplerConfig(steps=3, particles=24, seed=seed, drift="mc-grad",
                                        mc_size=32, eps=EpsSchedule.parse(eps))
                    target = _cut_target(radius, g)
                    ev, _ = _sampler._run_evaluator(cfg, target, workers)
                    outs.append((_outcome(lambda: ev.batch(points, 0.5, 1)),
                                 _outcome(lambda: sfs_run(cfg, target, workers=workers).samples)))
                assert outs[0] == outs[1], (workers, eps)
                if eps != "none":
                    assert all(isinstance(out, bytes) for out in outs[0]), outs[0]


def test_no_thread_outlives_a_failed_threaded_batch():
    tiny = quartic_bump(0.05)
    callers = set()

    def log_f(x):
        callers.add(threading.get_ident())
        return tiny.log_f(x)

    ev = DriftEvaluator(dataclasses.replace(tiny, log_f=log_f), "mc-grad", m=16, seed=5, workers=2)
    before = set(threading.enumerate())
    with mock.patch.object(_drift, "_CHUNK_VALUES", 16 * 2), \
            pytest.raises(DriftSingularityError) as err:  # a particle a tile, so a pool starts
        ev.batch(np.full((8, 1), 3.0), 0.0, 0)
    assert err.value.particle_index == 0
    # The rows ran on pool threads, and every one of them was joined.
    assert callers and threading.get_ident() not in callers
    assert set(threading.enumerate()) == before


def test_a_threaded_batch_builds_at_most_two_workspaces_a_worker():
    # One particle a span gives 40 spans; at three workers six workspaces take
    # them in turn, each drawn into again once its last task has been taken.
    target = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])
    m, p = 8, 2
    pts = 2.0 * np.random.default_rng(6).standard_normal((40, p))
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a workspace drawn into too early shows
    try:
        for workers, most in ((1, 1), (3, 6)):
            ev = DriftEvaluator(target, "mc-grad", m=m, seed=3, workers=workers)
            with mock.patch.object(_drift, "_CHUNK_VALUES", m * (p + 1)), \
                    mock.patch.object(_drift, "_TASK_TILES", 1), \
                    mock.patch.object(_drift, "_Workspace", wraps=_drift._Workspace) as built:
                outs.append(ev.batch(pts, 0.4, 1))
            assert built.call_count == most, workers
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(outs[0], outs[1])


def test_probe_points_shapes():
    grid = ProbeGrid()
    assert probe_points(grid, 1).shape == (25, 1)
    assert probe_points(grid, 2).shape == (625, 2)
    pts = probe_points(grid, 3)
    assert pts.shape == (9 * 16, 3)
    assert np.linalg.norm(pts, axis=1).max() == pytest.approx(5.0)


def test_regularity_estimate_is_zero_on_flat_target():
    est = estimate_regularity(DriftEvaluator(standard_gaussian(1), "exact"))
    assert est.b_sup_hat == 0.0
    assert est.n_points == 25 * len(ProbeGrid.t_values)


def test_regularity_estimate_respects_analytic_bounds():
    # b(x, t) = 2 tanh(2x) for the symmetric mixture: sup |b| < 2, reached
    # at the box edge x = 5.
    est = estimate_regularity(DriftEvaluator(MIX, "exact"))
    # A Monte-Carlo evaluator on a mixture is probed through the closed form.
    assert estimate_regularity(DriftEvaluator(MIX, "mc-stein", m=4, seed=2)) == est
    assert est.b_sup_hat < 2.0
    assert est.b_sup_hat == pytest.approx(2.0 * math.tanh(10.0), rel=1e-12)


def test_regularity_estimate_needs_an_evaluator_for_general_targets():
    # A bump has no closed form, so it is probed through a Monte-Carlo evaluator.
    with pytest.raises(UnsupportedTargetError):
        DriftEvaluator(quartic_bump(3.0), "exact")
    # The [-5, 5] grid reaches past the bump's support [-3, 3], where every
    # probe of the bare bump would fall on f = 0, so the floored bump is probed.
    grid = ProbeGrid()
    ev = DriftEvaluator(target=regularize(quartic_bump(3.0), 0.1), mode="mc-grad", m=64, seed=1)
    est = estimate_regularity(ev)
    b = [ev.batch(probe_points(grid, 1), t, k) for k, t in enumerate(grid.t_values)]
    assert est.b_sup_hat == float(np.sqrt(np.max(np.concatenate(b) ** 2)))
    assert est.n_points == 25 * len(grid.t_values)
    assert est.b_sup_hat > 0.0


@st.composite
def small_mixtures_1d(draw):
    # Weights of at least 0.1 that sum to one; means on a 1/64 lattice in
    # [-3, 3], which keeps a nonzero sup |b| far above the range where
    # b * b underflows, so sqrt(b * b) is |b| exactly.
    k = draw(st.integers(2, 3))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) + 1e-3
    weights = 0.1 + (1.0 - 0.1 * k) * raw / raw.sum()
    means = [draw(st.integers(-192, 192)) / 64.0 for _ in range(k)]
    return list(weights), means


def test_regularity_reads_a_drift_too_small_to_square():
    # Every |b| on the grid is below sqrt(tiny), about 1.5e-154, so b * b
    # underflows to 0; the estimate scales by max |b| instead (a case
    # hypothesis found with free float means).
    target = gaussian_mixture_target([0.5, 0.5], [[0.0], [2.6e-229]])
    est = estimate_regularity(DriftEvaluator(target, "exact"))
    grid = ProbeGrid()
    pts = probe_points(grid, 1)
    b = np.concatenate([drift_exact(target, pts, t) for t in grid.t_values])
    assert est.b_sup_hat == float(np.max(np.abs(b))) == 1.3e-229


@settings(max_examples=20, deadline=None)
@given(small_mixtures_1d())
def test_regularity_on_a_mixture_is_the_grid_max_of_the_closed_form_under_gamma_over_xi(case):
    weights, means = case
    target = gaussian_mixture_target(weights, [[m] for m in means])
    est = estimate_regularity(DriftEvaluator(target, "exact"))
    grid = ProbeGrid()
    pts = probe_points(grid, 1)
    b = np.concatenate([drift_exact(target, pts, t) for t in grid.t_values])
    assert est.b_sup_hat == float(np.max(np.abs(b)))
    # The lemma bound on sup |b| from the oracle's constants on [-5, 5]; its
    # bounded minimizer refines the coarser scan.
    gamma, xi = mixture_gamma_xi(weights, means, n_grid=2001)
    assert est.b_sup_hat <= gamma / xi


def test_regularity_on_a_floored_bump_is_the_same_for_every_worker_count():
    floored = regularize(quartic_bump(3.0), 0.1)
    est = [estimate_regularity(DriftEvaluator(floored, "mc-grad", m=64, seed=1, workers=w))
           for w in (1, 3)]
    assert est[0] == est[1]


def test_regularity_probes_the_directions_of_the_evaluators_seed():
    # Above two dimensions the probe points are random directions; they
    # come from the evaluator's seed, also where the closed form is probed.
    mix3 = gaussian_mixture_target([0.3, 0.7], [[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]])
    e = estimate_regularity(DriftEvaluator(mix3, "mc-grad", m=8, seed=2))
    grid = ProbeGrid()
    pts = probe_points(grid, 3, 2)
    b = np.concatenate([drift_exact(mix3, pts, t) for t in grid.t_values])
    assert e.b_sup_hat == float(np.sqrt(np.max(np.sum(b * b, axis=1))))
    assert e != estimate_regularity(DriftEvaluator(mix3, "mc-grad", m=8, seed=0))
