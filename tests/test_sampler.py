"""Integrator: exactness on degenerate drifts, schedule binding, determinism,
trajectories, failure reporting, and the Langevin baseline."""

import dataclasses
import hashlib
import math
import os
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sfs_reference, ula_reference
from sfsampler import (
    ConfigError,
    DriftEvaluator,
    EpsSchedule,
    ExperimentPlan,
    NonFiniteStateError,
    SamplerConfig,
    TargetSpec,
    UnsupportedTargetError,
    config_digest,
    from_potential,
    gaussian,
    gaussian_mixture_target,
    gaussian_potential,
    quartic_bump,
    regularize,
    rng,
    run_experiment,
    sample_ground_truth,
    save_batch,
    sfs_run,
    standard_gaussian,
    ula_run,
)
from sfsampler import drift as _drift
from sfsampler.sampler import TRAJECTORY_BUDGET

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
MIX2 = gaussian_mixture_target([0.3, 0.7], [[1.0, -2.0], [-1.5, 0.5]])


def _moment_bands_ok(samples, mean, n):
    mu = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    return (np.abs(mu - mean) < 4.0 / math.sqrt(n)).all() and (
        np.abs(var - 1.0) < 4.0 * math.sqrt(2.0 / n)
    ).all()


def test_flat_target_gives_standard_normal_terminals():
    std = standard_gaussian(2)
    for steps in (1, 7):
        batch = sfs_run(SamplerConfig(steps=steps, particles=20_000, seed=1), std)
        assert _moment_bands_ok(batch.samples, 0.0, 20_000)


def test_constant_drift_gives_shifted_normal():
    g = gaussian([1.5, -0.5])
    batch = sfs_run(SamplerConfig(steps=13, particles=20_000, seed=2), g)
    assert _moment_bands_ok(batch.samples, np.array([1.5, -0.5]), 20_000)


def test_eps_schedule_parse_and_bind():
    assert EpsSchedule.parse("none").bind() == 0.0
    assert EpsSchedule.parse("fixed:0.25").bind() == 0.25
    assert EpsSchedule.parse("log").bind(10_000) == pytest.approx(
        math.log(10_000) ** -0.2, rel=1e-15
    )
    assert EpsSchedule.parse("power").bind(10_000) == pytest.approx(
        10.0**-0.8, rel=1e-15
    )
    # Frozen magnitudes: the schedules decay very slowly by design.
    assert EpsSchedule(rule="log").bind(10_000) == pytest.approx(0.641, abs=5e-4)
    assert EpsSchedule(rule="power").bind(10_000) == pytest.approx(0.158, abs=5e-4)


def test_eps_schedule_validation():
    with pytest.raises(ConfigError):
        EpsSchedule.parse("sqrt")
    with pytest.raises(ValueError):
        EpsSchedule(rule="fixed", value=1.5)
    with pytest.raises(ValueError):
        EpsSchedule(rule="log", value=0.5)
    with pytest.raises(ValueError):
        EpsSchedule(rule="log").bind(2)
    with pytest.raises(ValueError):
        EpsSchedule(rule="power").bind(1)
    with pytest.raises(ValueError):
        EpsSchedule(rule="log").bind(None)


def test_eps_resolution_lands_in_config():
    cfg = SamplerConfig(
        steps=4, particles=32, seed=3, drift="mc-grad", mc_size=100,
        eps=EpsSchedule(rule="power"),
    )
    batch = sfs_run(cfg, quartic_bump(3.0))
    assert batch.config["sfs"]["eps"] == pytest.approx(100.0**-0.2)
    assert batch.config["sfs"]["drift"] == "mc-grad"
    assert np.isfinite(batch.samples).all()


def test_exact_mode_requires_mixture_and_mc_requires_size():
    with pytest.raises(UnsupportedTargetError):
        sfs_run(SamplerConfig(steps=2, particles=4, seed=0, drift="exact"), quartic_bump(3.0))
    with pytest.raises(ValueError):
        sfs_run(SamplerConfig(steps=2, particles=4, seed=0, drift="mc-grad"), MIX)


def test_same_config_reruns_bit_identical(tmp_path):
    cfg = SamplerConfig(steps=6, particles=128, seed=11, drift="mc-stein", mc_size=8)
    a = sfs_run(cfg, MIX)
    b = sfs_run(cfg, MIX)
    assert np.array_equal(a.samples, b.samples)
    assert a.config_digest == b.config_digest
    pa = save_batch(a, os.path.join(tmp_path, "a"))
    pb = save_batch(b, os.path.join(tmp_path, "b"))
    with open(pa["csv"], "rb") as fa, open(pb["csv"], "rb") as fb:
        assert fa.read() == fb.read()


def test_worker_count_does_not_change_results():
    # m = 128 makes 128-row tiles, so 300 particles span three of them.
    for target, eps in ((MIX, "none"), (quartic_bump(3.0), "fixed:0.2")):
        cfg = SamplerConfig(steps=5, particles=300, seed=13, drift="mc-grad", mc_size=128,
                            eps=EpsSchedule.parse(eps))
        one = sfs_run(cfg, target, workers=1).samples.tobytes()
        for workers in (2, 3, 64):
            assert sfs_run(cfg, target, workers=workers).samples.tobytes() == one, (eps, workers)


def test_a_pool_thread_warns_no_more_than_the_calling_thread():
    # f = 0 outside |x| < 1.5, where the gradient is +inf: those probes weigh
    # exactly 0 and raise no warning, on the calling thread or a pool thread.
    def log_f(x):
        return np.where(np.abs(x[:, 0]) < 1.5, -x[:, 0] ** 2, -np.inf)

    callers = set()

    def grad_log_f(x):
        callers.add(threading.get_ident())
        return np.where(np.abs(x) < 1.5, -2.0 * x, np.inf)

    target = TargetSpec(name="cut", dim=1, log_f=log_f, grad_log_f=grad_log_f)
    cfg = SamplerConfig(steps=3, particles=40, seed=5, drift="mc-grad", mc_size=32)
    outs = set()
    for workers in (1, 3, 64):
        callers.clear()
        with mock.patch.object(_drift, "_CHUNK_VALUES", 8 * 32 * 2), \
                warnings.catch_warnings():  # five tiles of eight particles
            warnings.simplefilter("error")
            outs.add(sfs_run(cfg, target, workers=workers).samples.tobytes())
        assert (threading.get_ident() in callers) == (workers == 1), workers
    assert len(outs) == 1


def test_a_batch_uses_at_most_one_thread_and_workspace_a_tile():
    # m = 128 makes 128-row tiles: 300 particles are three tiles at any worker count.
    cfg = SamplerConfig(steps=1, particles=300, seed=9, drift="mc-grad", mc_size=128)
    workspace, core = _drift._Workspace, _drift._mc_drift_core
    built, callers, pool = [], set(), set()

    def spy_workspace(*args):
        built.append(args)
        assert len(built) <= 3, "a workspace for a batch of three tiles beyond the third"
        return workspace(*args)

    def spy_core(*args, **kwargs):  # by the last tile's call, every pool thread has started
        callers.add(threading.get_ident())
        pool.update(th for th in threading.enumerate() if th.name.startswith("ThreadPoolExecutor"))
        return core(*args, **kwargs)

    one = sfs_run(cfg, MIX, workers=1).samples.tobytes()
    with mock.patch.object(_drift, "_Workspace", spy_workspace), \
            mock.patch.object(_drift, "_mc_drift_core", spy_core):
        many = sfs_run(cfg, MIX, workers=64).samples.tobytes()
    assert 0 < len(pool) <= 3 and callers <= {th.ident for th in pool}
    assert many == one


# (target, drift, eps): the closed form and both Monte-Carlo forms on a
# mixture, a floored compact bump, and a target known only through log f.
PREFIX_CASES = [
    (MIX2, "exact", EpsSchedule()),
    (MIX2, "mc-grad", EpsSchedule()),
    (MIX2, "mc-stein", EpsSchedule()),
    (quartic_bump(3.0), "mc-grad", EpsSchedule.parse("fixed:0.2")),
    (gaussian_potential([0.5, -1.0]), "mc-stein", EpsSchedule()),
]


@st.composite
def prefix_cases(draw):
    target, drift, eps = draw(st.sampled_from(PREFIX_CASES))
    n1 = draw(st.integers(2, 100))
    config = SamplerConfig(
        steps=draw(st.integers(1, 3)), particles=draw(st.integers(1, n1 - 1)),
        seed=draw(st.integers(0, 2**64)), drift=drift,
        mc_size=None if drift == "exact" else draw(st.integers(1, 32)), eps=eps,
    )
    return dict(target=target, config=config, n1=n1, workers=draw(st.integers(1, 3)),
                chunk_values=draw(st.sampled_from([1, 200, _drift._CHUNK_VALUES])))


@settings(max_examples=25, deadline=None)
@given(prefix_cases())
def test_a_particle_ends_alike_whatever_the_particle_and_worker_counts(case):
    small = sfs_run(case["config"], case["target"]).samples
    bigger = dataclasses.replace(case["config"], particles=case["n1"])
    # Small tiles make a run of at most 100 particles share its drift among the workers.
    with mock.patch.object(_drift, "_CHUNK_VALUES", case["chunk_values"]):
        big = sfs_run(bigger, case["target"], workers=case["workers"]).samples
    assert big[: len(small)].tobytes() == small.tobytes()


@st.composite
def shifted_mixtures(draw):
    p = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    point = st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), dtype=float)
    config = SamplerConfig(steps=draw(st.integers(1, 50)), particles=draw(st.integers(1, 64)),
                           seed=draw(st.integers(0, 2**64)), drift="exact")
    means = np.array(draw(st.lists(point, min_size=k, max_size=k)))
    return dict(weights=weights / weights.sum(), means=means, shift=np.array(draw(point)), config=config,
                workers=draw(st.sampled_from([1, 3])))


@settings(max_examples=80, deadline=None)
@given(shifted_mixtures())
def test_an_exact_run_on_a_shifted_mixture_is_the_run_shifted(case):
    """Moving the means by c moves every sample by c: X_t = t X_1 + (Brownian bridge),
    and each Euler step keeps X_t + t c exactly, so only rounding differs.

    A rounding error in a state grows by the drift's Jacobian, the posterior covariance
    of the means, which is at most s^2 / 4 for s the widest distance between two means.
    Over 2000 drawn cases and 3000 uniform ones (n up to 64) the error was at most 0.33
    of (K + 4) (1 + s^2) ulp of the largest |sample|; in plain (K + 4) ulp it reached 13.
    """
    config, weights, means, shift = case["config"], case["weights"], case["means"], case["shift"]
    base = sfs_run(config, gaussian_mixture_target(weights, means), workers=case["workers"]).samples
    moved = sfs_run(config, gaussian_mixture_target(weights, means + shift), workers=case["workers"]).samples
    s2 = max(float(np.sum((u - v) ** 2)) for u in means for v in means)
    ulp = np.spacing(max(np.abs(base).max(), np.abs(moved).max()))
    assert np.abs(moved - (base + shift)).max() <= (config.steps + 4) * (1 + s2) * ulp


@pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
def test_workers_below_one_are_rejected_before_any_thread_starts(workers):
    cfg = SamplerConfig(steps=2, particles=16, seed=13, drift="mc-grad", mc_size=4)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="workers"):
        sfs_run(cfg, MIX, workers=workers)
    assert set(threading.enumerate()) == before


def test_trajectory_ends_at_the_terminal_states():
    cfg = SamplerConfig(steps=9, particles=40, seed=4)
    path = sfs_run(cfg, MIX, record_trajectory=True)
    assert path.trajectories.shape == (40, 10, 1)
    assert np.array_equal(path.trajectories[:, -1, :], path.samples)
    assert np.all(path.trajectories[:, 0, :] == 0.0)
    # The same seed without recording gives the same terminals.
    plain = sfs_run(cfg, MIX)
    assert np.array_equal(plain.samples, path.samples)


def test_trajectory_budget_guard():
    # 10**6 particles over 201 points is 2.01e8 values, over the 2**27 budget.
    cfg = SamplerConfig(steps=200, particles=10**6, seed=0)
    assert cfg.particles * (cfg.steps + 1) > TRAJECTORY_BUDGET
    with mock.patch.object(DriftEvaluator, "batch") as batch:
        with pytest.raises(ValueError, match="record fewer particles or steps") as err:
            sfs_run(cfg, MIX, record_trajectory=True)
    assert not batch.called
    assert "trajectory_budget" not in str(err.value)
    assert "record_trajectory" not in str(err.value)


def _broken_grad(value):
    return from_potential(lambda x: 0.5 * np.sum(x * x, axis=1),
                          lambda x: np.full_like(x, value), dim=1, name="broken-grad")


def test_nonfinite_drift_is_reported_with_context():
    # A NaN gradient where f > 0 is the target's fault, found in the kernel's
    # sums before any state moves: exit 4, not a non-finite state after step 0.
    cfg = SamplerConfig(steps=3, particles=5, seed=0, drift="mc-grad", mc_size=4)
    with pytest.raises(UnsupportedTargetError) as err:
        sfs_run(cfg, _broken_grad(np.nan))
    assert str(err.value).startswith("'broken-grad' gave non-finite drift sums")
    assert str(err.value).endswith("(particle 0, step 0, t = 0.0)")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_gradient_where_f_is_positive_is_unsupported(value):
    cfg = SamplerConfig(steps=3, particles=5, seed=0, drift="mc-grad", mc_size=4)
    with pytest.raises(UnsupportedTargetError, match=r"\(particle 0, step 0, t = 0\.0\)"):
        sfs_run(cfg, _broken_grad(value), workers=2)


def test_nonfinite_langevin_chain_is_the_first_bad_one():
    # The gradient is NaN only right of 1, so the chains that start there fail first.
    cut = from_potential(lambda x: 0.5 * np.sum(x * x, axis=1),
                         lambda x: np.where(x > 1.0, np.nan, x), dim=1, name="cut")
    start = rng.substream(4, rng.ROLE_ULA_INIT, 0).standard_normal((50, 1))
    first = int(np.argmax(start[:, 0] > 1.0))
    assert first > 0
    with pytest.raises(NonFiniteStateError) as err:
        ula_run(cut, 50, 4, 3, step_size=0.1, burn_in=0)
    assert (err.value.particle_index, err.value.step_index) == (first, 0)
    assert str(err.value) == f"Langevin chain {first} became non-finite after iteration 0"


def test_failed_run_leaves_no_worker_running():
    # The first call fails once the second is under way; the second is slow.
    lock = threading.Lock()
    second_started = threading.Event()
    calls = []
    finished = []

    def log_f(pts):
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            second_started.wait(timeout=5.0)
            raise RuntimeError("first probe batch fails")
        second_started.set()
        time.sleep(0.3)
        finished.append(time.perf_counter())
        return np.zeros(len(pts))

    target = TargetSpec(name="failing", dim=1, log_f=log_f)
    config = SamplerConfig(steps=1, particles=8, seed=5, drift="mc-stein", mc_size=4)
    before = set(threading.enumerate())
    with mock.patch.object(_drift, "_CHUNK_VALUES", 4 * 4 * 2), \
            pytest.raises(RuntimeError, match="first probe batch"):  # two tiles of four
        sfs_run(config, target, workers=2)
    raised = time.perf_counter()
    assert len(calls) == 2
    leftover = [
        th
        for th in threading.enumerate()
        if th not in before and th.name.startswith("ThreadPoolExecutor")
    ]
    assert not leftover
    assert all(end <= raised for end in finished)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", ["exact", "mc-grad", "mc-stein"])
def test_the_run_is_a_plain_euler_maruyama_loop_bit_for_bit(mode, workers):
    # m = 128 makes 85-row drift tiles, so 300 particles span four of them.
    m = None if mode == "exact" else 128
    cfg = SamplerConfig(steps=4, particles=300, seed=31, drift=mode, mc_size=m)
    batch = sfs_run(cfg, MIX2, workers=workers, record_trajectory=True)
    y, path = sfs_reference(DriftEvaluator(MIX2, mode, m=m, seed=31), 31, 4, 300)
    assert batch.samples.tobytes() == y.tobytes()
    assert batch.trajectories.tobytes() == path.tobytes()


def test_a_floored_run_is_the_plain_loop_on_the_floored_target():
    cfg = SamplerConfig(steps=3, particles=40, seed=8, drift="mc-grad", mc_size=64,
                        eps=EpsSchedule.parse("fixed:0.2"))
    batch = sfs_run(cfg, quartic_bump(3.0), workers=2, record_trajectory=True)
    ev = DriftEvaluator(regularize(quartic_bump(3.0), 0.2), "mc-grad", m=64, seed=8)
    y, path = sfs_reference(ev, 8, 3, 40)
    assert batch.samples.tobytes() == y.tobytes()
    assert batch.trajectories.tobytes() == path.tobytes()


@pytest.mark.parametrize("target", [MIX2, gaussian_potential([0.5, -1.0, 2.0])],
                         ids=["mixture", "potential-3d"])
def test_ula_is_a_plain_euler_maruyama_loop_bit_for_bit(target):
    batch = ula_run(target, 97, 13, 25, 0.05, 15)
    assert batch.samples.tobytes() == ula_reference(target, 13, 0.05, 40, 97).tobytes()


def test_ula_matches_gaussian_moments():
    g = gaussian([1.0])
    batch = ula_run(g, 4000, 6, 400, step_size=0.05, burn_in=400)
    # ULA has O(h) stationary bias, so the bands are wider than 4 sigma.
    assert abs(batch.samples.mean() - 1.0) < 0.1
    assert abs(batch.samples.var() - 1.0) < 0.1
    assert batch.config["algorithm"] == "ula"


def test_ula_needs_a_gradient():
    no_grad = from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1)
    with pytest.raises(UnsupportedTargetError):
        ula_run(no_grad, 8, 0, 10, step_size=0.1, burn_in=5)


def test_ula_rejects_a_wrong_shaped_gradient():
    # A 1-D gradient of shape (n,) would broadcast against the (n, 1) state.
    flat = TargetSpec(name="flat-grad", dim=1, log_f=lambda x: -0.5 * x[:, 0] ** 2,
                      grad_log_f=lambda x: -x[:, 0])
    with pytest.raises(UnsupportedTargetError, match="grad_log_f"):
        ula_run(flat, 4, 0, 3, step_size=0.1, burn_in=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(steps=0, particles=10, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(steps=10, particles=0, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(steps=10, particles=10, seed=0, drift="best")
    with pytest.raises(ValueError):
        SamplerConfig(steps=10, particles=10, seed=-1)
    # Counts take any positive integer, numpy integers included, stored as
    # int; bools, floats and strings are rejected.
    for bad in (
        {"steps": True},
        {"steps": 2.5},
        {"particles": True},
        {"mc_size": True},
        {"mc_size": 2.5},
        {"mc_size": "8"},
        {"mc_size": 0},
    ):
        with pytest.raises(ValueError):
            SamplerConfig(**{"steps": 10, "particles": 10, "seed": 0, **bad})
    config = SamplerConfig(steps=np.int64(10), particles=10, seed=0, mc_size=np.int64(8))
    assert config.steps == 10 and type(config.steps) is int
    assert config.mc_size == 8 and type(config.mc_size) is int


def test_regularized_run_tracks_the_regularized_law():
    # With a large fixed eps the run should land between the bump and the
    # base Gaussian; check first and second moments against the mixture law.
    eps = 0.5
    cfg = SamplerConfig(
        steps=32, particles=20_000, seed=8, drift="mc-grad", mc_size=64,
        eps=EpsSchedule(rule="fixed", value=eps),
    )
    batch = sfs_run(cfg, quartic_bump(3.0), workers=2)
    var_want = (1 - eps) * (9.0 / 7.0) + eps * 1.0
    assert abs(batch.samples.mean()) < 0.05
    assert abs(batch.samples.var() - var_want) < 0.08


def test_every_batch_digest_covers_its_config():
    cfg = SamplerConfig(steps=3, particles=8, seed=2, drift="mc-grad", mc_size=4)
    for batch in (
        sfs_run(cfg, MIX),
        sfs_run(cfg, MIX, record_trajectory=True),
        ula_run(MIX, 8, 2, 3, step_size=0.1, burn_in=2),
        sample_ground_truth(MIX, 8, 2),
    ):
        assert batch.config_digest == config_digest(batch.config)
        assert batch.wallclock >= 0.0


def test_batch_records_keep_their_golden_digests():
    cfg = SamplerConfig(steps=4, particles=8, seed=11, drift="mc-grad", mc_size=16,
                        eps=EpsSchedule(rule="fixed", value=0.1))
    assert sfs_run(cfg, MIX2).config_digest == (
        "58f938a0b7faa7583ac06a07e905b6229b513b3afc26eccf05906057acf6b976")
    assert ula_run(MIX2, 8, 12, 5, 0.05, 3).config_digest == (
        "fe2c1185087f5e4282b8bd0f75fbadd3fa050112c58b532a5a355bf03b049fcc")
    assert sample_ground_truth(quartic_bump(3.0), 8, 13).config_digest == (
        "7475a5c6198268bae22d9cd56131efb7730728039fc165540867ee67d26002ae")


# sha256 of the samples' bytes (steps 4, 100 particles, seed 3, m = 128, so
# tile edges fall inside each step). Callables get their probes as a
# transposed view; up to p = 7 these are also the bytes of C-order probes,
# while at p >= 8 a callable's own np.sum(..., axis=1) groups its terms by
# layout.
_GOLDEN_SAMPLES = {
    ("potential-2", "mc-grad"): "a18138596238e42edc8da2761c5393322e1988e2bec7f78491d2eba65f5498cd",
    ("potential-2", "mc-stein"): "0d0b7fcac4abaf8f3eb50fb8ddbf4334a0d093771ea61b5a77b7b38db41ac557",
    ("potential-7", "mc-grad"): "708ea7a31d65bc6bd086bf0608dc14c29160d24c0c3b5186baee41fe6517b646",
    ("potential-7", "mc-stein"): "8656088cc66b8adf82d92955a6efb9121b465722424cc09661478c1906e331d1",
    ("replaced-mixture", "mc-grad"): "cfde6dc19b98ec3d37af6ed5e0817bead8a7a0ba0ba3b20601df1a9e7fc49b98",
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name, drift", sorted(_GOLDEN_SAMPLES))
def test_general_targets_keep_their_golden_sample_bytes(name, drift, workers):
    if name == "replaced-mixture":
        mix = MIX2.mixture
        target = dataclasses.replace(MIX2, log_f=lambda x: mix.log_ratio(x),
                                     grad_log_f=lambda x: mix.grad_log_ratio(x))
    else:
        target = gaussian_potential(np.linspace(-1.0, 1.0, int(name.split("-")[1])))
    cfg = SamplerConfig(steps=4, particles=100, seed=3, drift=drift, mc_size=128)
    samples = sfs_run(cfg, target, workers=workers).samples
    assert hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest() == (
        _GOLDEN_SAMPLES[name, drift])


def test_a_plan_keeps_its_golden_digest(tmp_path):
    cfg = SamplerConfig(steps=4, particles=8, seed=11, drift="mc-grad", mc_size=16)
    plan = ExperimentPlan(target=MIX2, base=cfg, axis="steps", values=(2, 4, 8))
    summary = run_experiment(plan, os.path.join(tmp_path, "sweep"))
    assert summary["plan_digest"] == config_digest(plan.describe()) == (
        "8622fdb9ef0e50a5cf4a0c85a184133d058bde9fdceb1f9113ead2c5668b5aec")


def test_ground_truth_and_run_share_nothing_but_the_seed_policy():
    # Same seed for a run and its reference batch must still give
    # different draws (disjoint roles).
    cfg = SamplerConfig(steps=1, particles=64, seed=21)
    run = sfs_run(cfg, standard_gaussian(1))
    ref = sample_ground_truth(standard_gaussian(1), 64, 21)
    assert not np.allclose(run.samples, ref.samples)
