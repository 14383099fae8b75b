"""Harness: sweep artifacts, byte-stable reruns, cell isolation, and the
budget-matched comparison."""

import dataclasses
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from sfsampler import (
    EpsSchedule,
    ExperimentPlan,
    NonFiniteStateError,
    SamplerConfig,
    UnsupportedTargetError,
    build_target,
    compare_samplers,
    gaussian_mixture_target,
    harness,
    mode_mass_balance,
    run_experiment,
    w2_noise_floor,
)
from sfsampler import rng as _rng
from sfsampler.batches import config_digest
from sfsampler.harness import SWEEP_AXES
from sfsampler.targets import describe

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
MIX_OPTIONS = {"kind": "mixture", "weights": [0.5, 0.5], "means": [[2.0], [-2.0]]}


def _tiny_plan(**kwargs):
    base = dict(
        target=MIX,
        base=SamplerConfig(steps=4, particles=64, seed=909),
        axis="steps",
        values=(4, 8, 16),
        replications=3,
    )
    base.update(kwargs)
    return ExperimentPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        _tiny_plan(axis="temperature")
    with pytest.raises(ValueError):
        _tiny_plan(values=(4, 8))
    with pytest.raises(ValueError):
        _tiny_plan(replications=2)
    for bad in ({"replications": 3.5}, {"replications": True}):
        with pytest.raises(ValueError):
            _tiny_plan(**bad)
    plan = _tiny_plan(replications=np.int64(4))
    assert plan.replications == 4 and type(plan.replications) is int
    # Count axes take whole values only, floats such as 8.0 included; the
    # values are stored as floats, as a run file gives them (see below).
    for axis in ("steps", "particles", "mc_size"):
        with pytest.raises(ValueError, match="whole"):
            _tiny_plan(axis=axis, values=(4.5, 8, 16))
        assert _tiny_plan(axis=axis, values=(4.0, 8.0, 16.0)).values == (4.0, 8.0, 16.0)
    with pytest.raises(ValueError):
        _tiny_plan(values=(4, float("nan"), 16))
    _tiny_plan(axis="eps", values=(0.1, 0.25, 0.5))
    # Cells are keyed by the value as a float, so values equal as floats are refused.
    for axis, values in (("particles", (600, 600, 64, 64)), ("steps", (4, 8, 4.0)),
                         ("eps", (0.5, 0.25, 0.5))):
        with pytest.raises(ValueError, match=f"{axis} values must differ"):
            _tiny_plan(axis=axis, values=values)


def test_axis_values_of_any_number_type_give_one_plan_json(tmp_path):
    files = {}
    for kind, values in (("numpy", np.array([4, 8, 16])), ("int", (4, 8, 16)),
                         ("float", (4.0, 8.0, 16.0))):
        plan = _tiny_plan(values=values)
        assert plan.values == (4.0, 8.0, 16.0)
        assert all(type(value) is float for value in plan.values)
        run_experiment(plan, os.path.join(tmp_path, kind))
        for name in ("plan.json", "cells.csv"):
            with open(os.path.join(tmp_path, kind, name), "rb") as fh:
                files.setdefault(name, set()).add(fh.read())
    assert {name: len(texts) for name, texts in files.items()} == {"plan.json": 1, "cells.csv": 1}


def test_a_plan_holds_its_built_target(tmp_path):
    # Options with a numpy count build a target whose params are plain, and
    # plan.json describes that target as every batch record does.
    target = build_target({"kind": "standard", "dim": np.int64(1)})
    out = os.path.join(tmp_path, "sweep")
    summary = run_experiment(_tiny_plan(target=target), out)
    assert summary["failures"] == {}
    with open(os.path.join(out, "plan.json")) as fh:
        assert json.load(fh)["plan"]["target"] == describe(build_target({"kind": "standard"}))


def test_run_experiment_checks_workers_before_writing(tmp_path):
    for bad in (0, 1.5, True):
        out = os.path.join(tmp_path, f"bad-{bad}")
        with pytest.raises(ValueError, match="workers"):
            run_experiment(_tiny_plan(), out, workers=bad)
        assert not os.path.exists(os.path.join(out, "plan.json"))
    # Any thread count gives the same bytes.
    run_experiment(_tiny_plan(), os.path.join(tmp_path, "one"))
    run_experiment(_tiny_plan(), os.path.join(tmp_path, "two"), workers=np.int64(2))
    for name in ("plan.json", "cells.csv"):
        with open(os.path.join(tmp_path, "one", name), "rb") as one, \
                open(os.path.join(tmp_path, "two", name), "rb") as two:
            assert one.read() == two.read(), name


def test_run_experiment_writes_artifacts(tmp_path):
    out = os.path.join(tmp_path, "sweep")
    summary = run_experiment(_tiny_plan(), out)
    for name in ("plan.json", "cells.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    assert len(summary["cells"]) == 3
    assert summary["failures"] == {}
    assert summary["fit"] is not None
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["plan_digest"] == summary["plan_digest"]
    for cell in summary["cells"]:
        assert cell["noise_floor"] > 0.0
        assert cell["w2_se"] >= 0.0


def test_rerun_is_byte_identical(tmp_path):
    a, b = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    run_experiment(_tiny_plan(), a)
    run_experiment(_tiny_plan(), b)
    for name in ("cells.csv", "plan.json"):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


# Requests that run the same cells on the 1-D mixture, by axis: "auto" is the
# closed form there, which reads no m, and each cell replaces the swept setting.
AXIS_VALUES = {"steps": (2, 4, 8), "particles": (16, 24, 32), "mc_size": (2, 4, 8),
               "eps": (0.2, 0.4, 0.6)}
MC = {"drift": "mc-grad", "mc_size": 8}
SAME_WORK = {
    "drift": ("steps", [{}, {"drift": "exact"}, {"drift": "exact", "mc_size": 64}]),
    "steps": ("steps", [{}, {"steps": 100}]),
    "particles": ("particles", [{}, {"particles": 1000}]),
    "mc_size": ("mc_size", [MC, {**MC, "mc_size": 16}]),
    "eps": ("eps", [MC, {**MC, "eps": EpsSchedule("fixed", 0.3)}]),
}


def _plan_of(axis, **request):
    base = SamplerConfig(**{"steps": 4, "particles": 32, "seed": 7, **request})
    return _tiny_plan(axis=axis, values=AXIS_VALUES[axis], base=base)


@pytest.mark.parametrize("axis, requests", list(SAME_WORK.values()), ids=list(SAME_WORK))
def test_requests_that_run_the_same_cells_write_one_plan(tmp_path, axis, requests):
    files, digests = {}, set()
    for i, request in enumerate(requests):
        out = os.path.join(tmp_path, str(i))
        digests.add(run_experiment(_plan_of(axis, **request), out)["plan_digest"])
        for name in ("plan.json", "cells.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                files.setdefault(name, set()).add(fh.read())
    assert len(digests) == 1
    assert {name: len(texts) for name, texts in files.items()} == {"plan.json": 1, "cells.csv": 1}


def test_plan_json_holds_the_base_its_cells_run(tmp_path):
    out = os.path.join(tmp_path, "sweep")
    summary = run_experiment(_plan_of("steps", mc_size=64), out)
    with open(os.path.join(out, "plan.json")) as fh:
        base = json.load(fh)["plan"]["base"]
    assert base == {"drift": "exact", "eps": {"rule": "none", "value": None}, "mc_size": None,
                    "particles": 32, "seed": 7}
    assert sorted(summary) == ["axis", "cells", "failures", "fit", "plan_digest", "wallclock"]
    # An m-driven rule stays the rule: on an mc_size axis each cell binds it to its own m.
    base = _plan_of("mc_size", drift="mc-grad", eps=EpsSchedule("log")).describe()["base"]
    assert base == {"drift": "mc-grad", "eps": {"rule": "log", "value": None}, "particles": 32,
                    "seed": 7, "steps": 4}


_SWEPT = {
    "steps": st.integers(1, 10**9),
    "particles": st.integers(1, 10**9),
    "mc_size": st.integers(1, 10**9),
    "eps": st.sampled_from(["none", "log", "power"]).map(EpsSchedule)
    | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda value: EpsSchedule("fixed", value)),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SWEEP_AXES), st.data())
def test_a_plan_does_not_see_requests_its_cells_do_not_run(axis, data):
    reference = MC if axis == "mc_size" else {"drift": "exact"}
    request = {**reference, axis: data.draw(_SWEPT[axis])}
    if axis != "mc_size":
        request["drift"] = data.draw(st.sampled_from(["auto", "exact"]))
        request["mc_size"] = data.draw(st.none() | st.integers(1, 10**9))
    assert _plan_of(axis, **request).describe() == _plan_of(axis, **reference).describe()


@pytest.mark.parametrize("first, second", [
    ({"mc_size": 8}, {"mc_size": 9}),
    ({"eps": EpsSchedule("fixed", 0.2)}, {"eps": EpsSchedule("fixed", 0.3)}),
    ({"seed": 7}, {"seed": 8}),
], ids=["mc_size", "eps", "seed"])
def test_plans_of_different_work_keep_different_digests(first, second):
    digests = {config_digest(_plan_of("steps", **{**MC, **request}).describe())
               for request in (first, second)}
    assert len(digests) == 2


@pytest.mark.parametrize("metric, options", [
    ("w2_1d", MIX_OPTIONS),
    ("sliced", {"kind": "mixture", "weights": [0.3, 0.7], "means": [[1.0, -2.0], [-1.5, 0.5]]}),
])
def test_each_cell_noise_floor_is_one_pair_of_w2_noise_floor(tmp_path, metric, options):
    target = build_target(options)
    plan = _tiny_plan(target=target)
    summary = run_experiment(plan, os.path.join(tmp_path, "sweep"))
    for ci, cell in enumerate(summary["cells"]):
        # Replication r runs on child seed 2r and scores on 2r + 1; the last is the floor's.
        seed = _rng.child_seeds(plan.base.seed, ci, 2 * plan.replications + 1)[-1]
        assert cell["noise_floor"] == w2_noise_floor(target, plan.base.particles, seed,
                                                     pairs=1, metric=metric)


def test_a_sweep_keeps_the_run_scores_it_had_with_its_own_floor_draws(tmp_path):
    # The floor's draws move no run seed: replication r runs on child seed 2r and
    # scores on 2r + 1 whatever the floor takes. On one Gaussian the closed-form
    # drift is the constant mean, so a run is x_K = sum_k (h * 1.5 + sqrt(h) xi_k)
    # with no exp, and the values pin exactly.
    plan = _tiny_plan(target=build_target({"kind": "gaussian", "mean": [1.5]}), values=(2, 4, 8))
    cells = run_experiment(plan, os.path.join(tmp_path, "sweep"))["cells"]
    assert [(c["w2_mean"], c["w2_se"]) for c in cells] == [
        (0.2599439873585126, 0.044491092963175945),
        (0.34107570986537655, 0.059242501527192695),
        (0.2220374919696281, 0.04757642264545659),
    ]


def test_failed_cells_are_isolated(tmp_path):
    plan = _tiny_plan(values=(0, 8, 16))
    summary = run_experiment(plan, os.path.join(tmp_path, "sweep"))
    assert list(summary["failures"]) == ["0.0"]  # keyed by the float value, as from a run file
    assert "ValueError" in summary["failures"]["0.0"]
    assert len(summary["cells"]) == 2
    assert summary["fit"] is None


def _eps_plan(values):
    base = SamplerConfig(steps=3, particles=48, seed=21, drift="mc-grad", mc_size=32)
    return _tiny_plan(target=build_target({"kind": "bump", "radius": 3.0}), base=base,
                      axis="eps", values=values)


def test_eps_sweep_runs_each_cell_on_its_own_fixed_floor(tmp_path):
    a, b = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    values = (0.25, 0.5, 0.75)
    run, floors = harness.sfs_run, []

    def spy(config, target, **kwargs):
        floors.append(config.eps)
        return run(config, target, **kwargs)

    with mock.patch.object(harness, "sfs_run", side_effect=spy):
        summary = run_experiment(_eps_plan(values), a)
    assert summary["failures"] == {}
    assert floors == [EpsSchedule("fixed", v) for v in values for _ in range(3)]
    run_experiment(_eps_plan(values), b)
    with open(os.path.join(a, "cells.csv"), "rb") as fa, \
            open(os.path.join(b, "cells.csv"), "rb") as fb:
        text = fa.read()
        assert text == fb.read()
    lines = text.decode().splitlines()
    assert lines[0].split(",")[0] == "eps"
    assert [float(line.split(",")[0]) for line in lines[1:]] == list(values)


def test_an_eps_cell_outside_the_unit_interval_fails_alone(tmp_path):
    summary = run_experiment(_eps_plan((0.25, 0.5, 1.0)), os.path.join(tmp_path, "sweep"))
    assert list(summary["failures"]) == ["1.0"]
    assert summary["failures"]["1.0"].startswith("ValueError: fixed eps")
    assert [cell["value"] for cell in summary["cells"]] == [0.25, 0.5]


def test_mc_size_axis_needs_an_mc_mode(tmp_path):
    plan = _tiny_plan(
        axis="mc_size",
        values=(4, 8, 16),
        base=SamplerConfig(steps=4, particles=32, seed=3, drift="mc-grad", mc_size=4),
    )
    summary = run_experiment(plan, os.path.join(tmp_path, "sweep"))
    assert summary["failures"] == {}
    assert len(summary["cells"]) == 3
    # The closed-form drift ignores m, so such a sweep is refused up front.
    for drift in ("exact", "auto"):
        out = os.path.join(tmp_path, drift)
        plan = _tiny_plan(
            axis="mc_size",
            values=(2, 4, 8),
            base=SamplerConfig(steps=4, particles=32, seed=3, drift=drift),
        )
        with pytest.raises(ValueError, match="mc_size sweep"):
            run_experiment(plan, out)
        assert not os.path.exists(os.path.join(out, "plan.json"))


@pytest.mark.parametrize("rule", ["log", "power"])
def test_m_driven_eps_needs_a_monte_carlo_base_before_any_file(tmp_path, rule):
    eps = EpsSchedule(rule)
    # The closed-form drift has no m to bind the floor to, so every cell would fail.
    for axis in ("steps", "particles"):
        out = os.path.join(tmp_path, axis)
        plan = _tiny_plan(axis=axis, values=(8, 16, 32),
                          base=SamplerConfig(steps=4, particles=32, seed=3, eps=eps))
        with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")):
            with pytest.raises(ValueError, match="driven by the Monte-Carlo batch size"):
                run_experiment(plan, out)
        assert not os.path.exists(out)
    # On the mc_size axis each cell binds the floor to its own m.
    plan = _tiny_plan(axis="mc_size", values=(4, 8, 16), replications=3,
                      base=SamplerConfig(steps=2, particles=16, seed=3, drift="mc-grad",
                                         mc_size=1, eps=eps))
    summary = run_experiment(plan, os.path.join(tmp_path, "mc_size"))
    assert summary["failures"] == {}


def test_sliced_metric_on_a_2d_target(tmp_path):
    plan = _tiny_plan(
        target=build_target({
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "means": [[2.0, 0.0], [-2.0, 0.0]],
        }),
        values=(2, 4, 8),
    )
    summary = run_experiment(plan, os.path.join(tmp_path, "sweep"))
    assert summary["failures"] == {}
    with open(os.path.join(tmp_path, "sweep", "plan.json")) as fh:
        assert json.load(fh)["plan"]["metric"] == "sliced"


def test_w2_1d_metric_rejects_multidim_targets():
    target = build_target({
        "kind": "mixture",
        "weights": [0.5, 0.5],
        "means": [[2.0, 0.0], [-2.0, 0.0]],
    })
    with pytest.raises(ValueError):
        w2_noise_floor(target, 64, seed=3, metric="w2_1d")


def test_mode_mass_balance_counts_nearest_means():
    samples = np.array([[2.1], [1.9], [-2.2], [-1.8]])
    report = mode_mass_balance(samples, MIX.mixture)
    assert report["fractions"] == [0.5, 0.5]
    assert report["max_abs_error"] == 0.0


def test_mode_mass_balance_gives_a_bisector_point_to_the_lower_index():
    for means in ([[2.0], [-2.0]], [[-2.0], [2.0]]):
        mix = gaussian_mixture_target([0.5, 0.5], means)
        assert mode_mass_balance(np.array([[0.0]]), mix.mixture)["fractions"] == [1.0, 0.0]


@pytest.mark.parametrize("samples", [np.zeros((3, 2)), np.zeros(3)], ids=["2-D", "flat"])
def test_mode_mass_balance_rejects_samples_of_another_width(samples):
    with pytest.raises(ValueError):
        mode_mass_balance(samples, MIX.mixture)


@pytest.mark.parametrize("samples", [
    np.zeros((0, 1)), np.array([[2.0], [np.nan]]), np.array([[-np.inf], [2.0]]),
], ids=["empty", "nan", "inf"])
def test_mode_mass_balance_refuses_an_empty_or_non_finite_sample(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one row, every value finite"):
            mode_mass_balance(samples, MIX.mixture)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_mode_mass_balance_matches_the_nearest_mean_by_cdist(p, k, n, seed):
    """Random points plus exact bisector points of small-integer means (so
    several means tie and the lower index must win), against cdist's argmin."""
    gen = np.random.default_rng(seed)
    means = gen.integers(-4, 5, size=(k, p)).astype(float)
    pairs = gen.integers(0, k, size=(n, 2))
    bisectors = 0.5 * (means[pairs[:, 0]] + means[pairs[:, 1]])
    samples = np.vstack([gen.normal(0.0, 3.0, size=(n, p)), bisectors])
    mix = gaussian_mixture_target(np.full(k, 1.0 / k), means)
    expected = np.bincount(np.argmin(cdist(samples, means), axis=1), minlength=k) / len(samples)
    assert mode_mass_balance(samples, mix.mixture)["fractions"] == expected.tolist()


def test_compare_samplers_budget_validation(tmp_path):
    cfg = SamplerConfig(steps=10, particles=64, seed=5, drift="mc-grad", mc_size=8)
    with pytest.raises(ValueError, match="burn_in 80 eats the whole budget of 80 iterations"):
        compare_samplers(MIX, cfg, ula_step_size=0.05, ula_burn_in=80)
    exact_cfg = SamplerConfig(steps=10, particles=64, seed=5)
    with pytest.raises(ValueError):
        compare_samplers(MIX, exact_cfg, ula_step_size=0.05, ula_burn_in=10)


def test_compare_samplers_needs_a_gradient_before_any_run(tmp_path):
    no_grad = dataclasses.replace(MIX, grad_log_f=None)
    cfg = SamplerConfig(steps=10, particles=64, seed=5, drift="mc-stein", mc_size=8)
    out = os.path.join(tmp_path, "cmp")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        with pytest.raises(UnsupportedTargetError, match="Langevin needs grad log f"):
            compare_samplers(no_grad, cfg, ula_step_size=0.05, ula_burn_in=20, out_dir=out)
    assert not run.called
    assert not os.path.exists(out)


@pytest.mark.parametrize("workers", [0, -2, 1.5, True])
def test_compare_samplers_checks_workers_before_the_langevin_run(tmp_path, workers):
    cfg = SamplerConfig(steps=10, particles=64, seed=5, drift="mc-grad", mc_size=8)
    out = os.path.join(tmp_path, "cmp")
    with mock.patch.object(harness, "ula_run", side_effect=AssertionError("Langevin ran")) as run:
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            compare_samplers(MIX, cfg, ula_step_size=0.05, ula_burn_in=20, out_dir=out,
                             workers=workers)
    assert not run.called
    assert not os.path.exists(out)


def test_a_diverging_langevin_chain_raises_without_a_numpy_warning():
    # h = 5 drives the chains past the float range; the error is the one report.
    cfg = SamplerConfig(steps=10, particles=128, seed=7, drift="mc-grad", mc_size=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as err:
            compare_samplers(MIX, cfg, ula_step_size=5.0, ula_burn_in=20)
    assert (err.value.particle_index, err.value.step_index) == (7, 511)


def test_compare_samplers_report(tmp_path):
    out = os.path.join(tmp_path, "cmp")
    cfg = SamplerConfig(steps=10, particles=64, seed=5, drift="mc-grad", mc_size=8)
    report = compare_samplers(MIX, cfg, ula_step_size=0.05, ula_burn_in=20, out_dir=out)
    assert report["budget"]["ula_post_steps"] == 60
    assert report["budget"]["per_particle"] == 80
    for side in ("sfs", "ula"):
        assert report[side]["w2"] > 0.0
        assert "mode_mass" in report[side]
    for name in ("comparison.json", "sfs.csv", "ula.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_the_langevin_files_do_not_depend_on_the_diffusion_drift(tmp_path):
    # Only the budget, particles and seed reach the chain; its record holds no drift.
    outs = []
    for drift in ("mc-grad", "mc-stein"):
        cfg = SamplerConfig(steps=10, particles=64, seed=5, drift=drift, mc_size=8)
        outs.append(os.path.join(tmp_path, drift))
        compare_samplers(MIX, cfg, ula_step_size=0.05, ula_burn_in=20, out_dir=outs[-1])
    files = []
    for out in outs:
        with open(os.path.join(out, "ula.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out, "ula.json")) as fh:
            sidecar = json.load(fh)
        assert sidecar.pop("wallclock") >= 0.0
        files.append((csv, sidecar))
    assert files[0] == files[1]
    assert files[0][1]["config"]["ula"] == {"burn_in": 20, "particles": 64, "seed": 5,
                                            "step_size": 0.05, "steps": 60}


def test_sweeps_and_comparisons_record_no_path(tmp_path):
    # Both score terminal states alone, so no run keeps a path.
    base = SamplerConfig(steps=4, particles=64, seed=909, drift="mc-grad", mc_size=8)
    real, batches = harness.sfs_run, []

    def keep(*args, **kwargs):
        batches.append(real(*args, **kwargs))
        return batches[-1]

    with mock.patch.object(harness, "sfs_run", side_effect=keep) as run:
        run_experiment(_tiny_plan(base=base), os.path.join(tmp_path, "sweep"))
        report = compare_samplers(MIX, base, ula_step_size=0.05, ula_burn_in=20)
    assert run.call_count == len(batches) == 3 * 3 + 1
    assert all(batch.trajectories is None for batch in batches)
    assert report == compare_samplers(MIX, base, ula_step_size=0.05, ula_burn_in=20)
