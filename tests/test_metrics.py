"""Metrics: hand values, brute-force agreement, slicing identities,
rate fits, and the noise floor."""

import numpy as np
import pytest

from oracles import brute_force_w2
from sfsampler import (
    exact_w2_assignment,
    fit_rate,
    gaussian,
    gaussian_mixture_target,
    sliced_w2,
    w2_noise_floor,
    wasserstein2_1d,
)
from sfsampler.metrics import W2_METRICS, w2_score

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])


def test_w2_1d_hand_values():
    assert wasserstein2_1d([0.0, 1.0], [1.0, 0.0]) == 0.0
    assert wasserstein2_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)
    assert wasserstein2_1d([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
    # One far point dominates through the square: sqrt((0 + 9)/2).
    assert wasserstein2_1d([0.0, 0.0], [0.0, 3.0]) == pytest.approx(np.sqrt(4.5))


def test_assignment_matches_brute_force():
    gen = np.random.default_rng(17)
    for _ in range(50):
        n = int(gen.integers(2, 9))
        p = int(gen.integers(1, 4))
        x = gen.normal(size=(n, p))
        y = gen.normal(size=(n, p))
        assert exact_w2_assignment(x, y) == pytest.approx(brute_force_w2(x, y), abs=1e-12)


def test_sorting_is_the_optimal_assignment_in_1d():
    gen = np.random.default_rng(23)
    for _ in range(50):
        n = int(gen.integers(2, 65))
        x = gen.normal(size=n)
        y = gen.normal(size=n) + gen.uniform(-1, 1)
        assert wasserstein2_1d(x, y) == pytest.approx(exact_w2_assignment(x, y), abs=1e-12)


def test_sliced_collapses_to_1d_metric_bitwise():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(80, 1))
    y = gen.normal(size=(80, 1)) + 0.5
    res = sliced_w2(x, y, seed=9)
    assert res.value == wasserstein2_1d(x, y)
    assert res.se == 0.0


def test_sliced_lower_bounds_the_exact_distance():
    # Projections are 1-Lipschitz, so every per-direction value and hence
    # the average sits at or below the full assignment distance.
    gen = np.random.default_rng(5)
    x = gen.normal(size=(256, 3))
    y = gen.normal(size=(256, 3)) @ np.diag([1.0, 2.0, 0.5]) + np.array([1.0, 0.0, -1.0])
    res = sliced_w2(x, y, seed=2)
    exact = exact_w2_assignment(x, y)
    assert res.per_projection.max() <= exact + 1e-12
    assert res.value <= exact + 1e-12
    assert res.se > 0.0


def test_metrics_obey_the_triangle_inequality():
    gen = np.random.default_rng(11)
    for _ in range(20):
        a = gen.normal(size=(24, 2))
        b = gen.normal(size=(24, 2)) + 1.0
        c = gen.normal(size=(24, 2)) * 1.5
        ab, bc, ac = (
            exact_w2_assignment(a, b),
            exact_w2_assignment(b, c),
            exact_w2_assignment(a, c),
        )
        assert ac <= ab + bc + 1e-9
        ab, bc, ac = (
            wasserstein2_1d(a[:, 0], b[:, 0]),
            wasserstein2_1d(b[:, 0], c[:, 0]),
            wasserstein2_1d(a[:, 0], c[:, 0]),
        )
        assert ac <= ab + bc + 1e-9


def test_metric_guards():
    with pytest.raises(ValueError):
        wasserstein2_1d([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        exact_w2_assignment(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        exact_w2_assignment(np.zeros((600, 1)), np.zeros((600, 1)))
    with pytest.raises(ValueError):
        wasserstein2_1d([np.nan, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        sliced_w2(np.zeros((4, 2)), np.zeros((4, 3)))


def test_fit_rate_recovers_known_slopes():
    xs = np.array([10.0, 100.0, 1000.0, 10_000.0])
    fit = fit_rate(xs, 3.0 * xs**-0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    flat = fit_rate(xs, np.full(4, 2.0))
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    assert flat.r_squared == 1.0


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, np.inf], [1.0, 2.0, 3.0])


def test_noise_floor_is_positive_and_deterministic():
    a = w2_noise_floor(MIX, 256, 41)
    b = w2_noise_floor(MIX, 256, 41)
    assert a == b
    assert a > 0.0
    # More points resolve finer differences: the floor shrinks with n.
    assert w2_noise_floor(MIX, 4096, 41) < a


def test_w2_1d_takes_one_column_and_never_flattens():
    x = np.arange(5.0)
    assert wasserstein2_1d(x, x[:, None] + 1.0) == 1.0
    for bad in (np.ones((5, 2)), np.ones((5, 1, 1)), np.float64(1.0)):
        with pytest.raises(ValueError):
            wasserstein2_1d(bad, np.zeros_like(bad))
    with pytest.raises(ValueError, match="1-D sample"):
        w2_noise_floor(gaussian([0.0, 0.0]), 16, 0, metric="w2_1d")


@pytest.mark.parametrize("target, metric", [
    (MIX, "w2_1d"),
    (gaussian_mixture_target([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]]), "sliced"),
], ids=["1-d", "2-d"])
def test_noise_floor_scores_by_default_as_a_run_of_its_target_does(target, metric):
    assert w2_noise_floor(target, 64, 9) == w2_noise_floor(target, 64, 9, metric=metric)


def test_w2_score_names_every_metric():
    gen = np.random.default_rng(5)
    x, y = gen.normal(size=(32, 1)), gen.normal(size=(32, 1))
    assert W2_METRICS == ("w2_1d", "sliced", "assignment")
    assert w2_score("w2_1d", x, y, 3) == wasserstein2_1d(x, y)
    assert w2_score("sliced", x, y, 3) == sliced_w2(x, y, seed=3).value
    assert w2_score("assignment", x, y, 3) == exact_w2_assignment(x, y)
    with pytest.raises(ValueError, match="metric must be one of"):
        w2_score("w1", x, y, 3)
