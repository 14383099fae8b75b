"""Input checks: one rule for counts and one for reals, wherever they are taken."""

import dataclasses
import math

import numpy as np
import pytest

from sfsampler import (
    DriftEvaluator,
    EpsSchedule,
    SamplerConfig,
    TargetRegularity,
    TargetSpec,
    compare_samplers,
    drift_mc_grad,
    fit_rate,
    from_potential,
    gaussian_mixture_target,
    gaussian_potential,
    quartic_bump,
    regularize,
    sample_ground_truth,
    standard_gaussian,
    ula_run,
    w2_noise_floor,
)
from sfsampler import rng
from sfsampler.errors import check_int, check_real

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
CFG = SamplerConfig(steps=2, particles=16, seed=3, drift="mc-grad", mc_size=4)
PTS = np.linspace(-1.0, 1.0, 16).reshape(-1, 1)


def _potential(dim):
    return from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=dim)


# Each call took the bad value before the checks had one owner: it ran
# truncated or coerced, or raised TypeError instead of ValueError.
BAD = {
    "sample_ground_truth n": (lambda v: sample_ground_truth(MIX, v, 0), 2.7),
    "TargetRegularity zeta": (lambda v: TargetRegularity(gamma=1.0, xi=1.0, zeta=v), "a"),
    "TargetRegularity gamma": (lambda v: TargetRegularity(gamma=v, xi=1.0), True),
    "TargetSpec log_scale": (lambda v: TargetSpec("probe", 1, MIX.log_f, log_scale=v), "0"),
    "standard_gaussian dim": (standard_gaussian, 1.5),
    "from_potential dim": (_potential, "1"),
    "quartic_bump radius": (quartic_bump, "3"),
    "EpsSchedule value": (lambda v: EpsSchedule("fixed", v), "0.5"),
    "ula_run step_size": (lambda v: ula_run(MIX, 16, 3, 2, v, 0), "0.1"),
    "ula_run burn_in": (lambda v: ula_run(MIX, 16, 3, 2, 0.1, v), 2.5),
    "ula_run particles": (lambda v: ula_run(MIX, v, 3, 2, 0.1, 0), 16.0),
    "ula_run steps": (lambda v: ula_run(MIX, 16, 3, v, 0.1, 0), "2"),
    "ula_run seed": (lambda v: ula_run(MIX, 16, v, 2, 0.1, 0), 2**128),
    "compare_samplers burn_in": (lambda v: compare_samplers(MIX, CFG, 0.1, v), 1.5),
    "w2_noise_floor pairs": (lambda v: w2_noise_floor(MIX, 16, 0, pairs=v), 1.5),
    "DriftEvaluator workers": (lambda v: DriftEvaluator(MIX, "mc-grad", m=4, workers=v), 0),
    "drift_mc_grad step_index": (
        lambda v: drift_mc_grad(DriftEvaluator(MIX, "mc-grad", m=4), 0.5, 0.5, step_index=v),
        1.5,
    ),
    "normal_row row_index": (lambda v: rng.normal_row(0, rng.ROLE_DRIFT, 0, v), 1.5),
    "substream step": (lambda v: rng.substream(0, rng.ROLE_DRIFT, v), 2.0),
    # Each row below is a check that no other test reaches.
    "DriftEvaluator.batch t": (lambda v: DriftEvaluator(MIX, "mc-grad", m=4).batch(PTS, v, 0), 1.5),
    "DriftEvaluator.batch exact step_index": (
        lambda v: DriftEvaluator(MIX, "exact").batch(PTS, 0.5, v), -1),
    "substream step past 64 bits": (lambda v: rng.substream(0, rng.ROLE_DRIFT, v), 2**64),
    "EpsSchedule rule": (EpsSchedule, "bogus"),
    "fit_rate lengths": (lambda v: fit_rate([1.0, 2.0, 3.0], v), [1.0, 2.0]),
    "mixture k": (lambda v: gaussian_mixture_target([0.5, 0.5], v), [[1.0]]),
    "mixture components": (lambda v: gaussian_mixture_target(v, np.zeros((0, 1))), []),
    "mixture mean": (lambda v: gaussian_mixture_target([0.5, 0.5], v), [[np.nan], [1.0]]),
    "gaussian_potential mean": (gaussian_potential, [np.nan]),
    "regularize scaled mixture": (
        lambda v: regularize(dataclasses.replace(MIX, log_scale=v), 0.1), 1.0),
}


@pytest.mark.parametrize("call, bad", list(BAD.values()), ids=list(BAD))
def test_bad_counts_and_reals_raise_value_error(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize(
    "read, value, kind",
    [
        (lambda v: TargetSpec("probe", v, MIX.log_f).dim, np.int64(1), int),
        (lambda v: TargetRegularity(gamma=v, xi=1.0).gamma, np.float32(2.0), float),
        (lambda v: regularize(quartic_bump(), v).params["eps"], np.float32(0.25), float),
        (lambda v: DriftEvaluator(MIX, "mc-grad", m=8, seed=v).seed, np.int64(3), int),
    ],
    ids=["TargetSpec dim", "TargetRegularity gamma", "regularize eps", "DriftEvaluator seed"],
)
def test_numpy_counts_and_reals_are_accepted(read, value, kind):
    stored = read(value)
    assert stored == value and type(stored) is kind


def test_the_two_rules():
    assert check_int("n", np.uint8(3)) == 3
    assert check_int("n", 0, minimum=0) == 0
    for bad in (True, np.bool_(True), 3.0, "3", None, 0):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            check_int("n", bad)
    assert check_real("x", 3) == 3.0 and check_real("x", np.float32(0.5), 0.0, 1.0) == 0.5
    for bad in (True, math.nan, math.inf, -math.inf, "0.5", None, 0.0, 1.0):
        with pytest.raises(ValueError, match="x must be a finite real number"):
            check_real("x", bad, low=0.0, high=1.0)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: check_int("n", np.int64(0)), "got 0"),
        (lambda: check_real("x", np.float64(1.5), high=1.0), "got 1.5"),
        (lambda: check_real("x", np.float32(np.nan)), "got nan"),
        (lambda: check_int("n", "3"), "got '3'"),
        (lambda: gaussian_mixture_target([0.5, 0.6], [[1.0], [-1.0]]), "got 1.1"),
    ],
    ids=["numpy int", "numpy float", "numpy nan", "string", "mixture weights"],
)
def test_messages_show_numbers_as_plain_values(call, shown):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).endswith(shown)
