"""End-to-end acceptance checks.

Eleven numbered checks cover the full pipeline: exactness on degenerate
drifts, Monte-Carlo estimator consistency and its error rate, scale
invariance, growth bounds against oracle constants, sampling quality
against the empirical noise floor, step- and batch-size trends,
metric-oracle agreement, and byte-level determinism. Each check prints
one PASS/FAIL line with its measured numbers. Seeds are frozen so every
number here is reproducible; statistical tolerances are 4-sigma bands
unless the check says otherwise.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import os
import time

import numpy as np
import pytest

from oracles import brute_force_w2, mixture_gamma_xi
from sfsampler import (
    DriftEvaluator,
    EpsSchedule,
    SamplerConfig,
    drift_exact,
    drift_mc_grad,
    drift_mc_stein,
    exact_w2_assignment,
    gaussian,
    gaussian_mixture_target,
    gaussian_potential,
    sample_ground_truth,
    save_batch,
    sfs_run,
    standard_gaussian,
    w2_noise_floor,
    wasserstein2_1d,
)
from sfsampler import rng as _rng
from sfsampler.drift import _mc_drift_core

MIX = gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])


def _line(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{idx:>2}/11] {status} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _moment_bands(samples, mean):
    n = samples.shape[0]
    mu_err = np.abs(samples.mean(axis=0) - mean).max()
    var_err = np.abs(samples.var(axis=0, ddof=1) - 1.0).max()
    return mu_err, var_err, 4.0 / math.sqrt(n), 4.0 * math.sqrt(2.0 / n)


def test_01_zero_drift_exactness():
    start = time.perf_counter()
    worst_mu = worst_var = 0.0
    for p in (1, 4):
        std = standard_gaussian(p)
        for k, steps in enumerate((1, 10, 100)):
            cfg = SamplerConfig(steps=steps, particles=100_000, seed=1000 + 10 * p + k)
            batch = sfs_run(cfg, std)
            mu_err, var_err, mu_band, var_band = _moment_bands(batch.samples, 0.0)
            worst_mu = max(worst_mu, mu_err / mu_band)
            worst_var = max(worst_var, var_err / var_band)
    elapsed = time.perf_counter() - start
    ok = worst_mu < 1.0 and worst_var < 1.0 and elapsed < 10.0
    _line(
        1,
        "zero-drift exactness",
        ok,
        f"K in (1,10,100), p in (1,4), n=1e5; worst mean err {worst_mu:.2f}x band, "
        f"worst var err {worst_var:.2f}x band, {elapsed:.1f}s (< 10 s)",
    )


def test_02_constant_drift_exactness():
    mean = np.array([1.5, -0.5, 2.0])
    g = gaussian(mean)
    worst_mu = worst_var = 0.0
    for k, steps in enumerate((1, 50)):
        batch = sfs_run(SamplerConfig(steps=steps, particles=100_000, seed=2000 + k), g)
        mu_err, var_err, mu_band, var_band = _moment_bands(batch.samples, mean)
        worst_mu = max(worst_mu, mu_err / mu_band)
        worst_var = max(worst_var, var_err / var_band)
    ok = worst_mu < 1.0 and worst_var < 1.0
    _line(
        2,
        "constant-drift exactness",
        ok,
        f"N(m0, I) in 3-d, K in (1,50), n=1e5; worst mean err {worst_mu:.2f}x band, "
        f"worst var err {worst_var:.2f}x band",
    )


def test_03_drift_estimator_consistency_and_rate():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 25).reshape(-1, 1)
    t_values = (0.0, 0.25, 0.5, 0.75, 0.99)
    reps, seed0 = 32, 424242
    mse = {m: {"mc-grad": [], "mc-stein": []} for m in (100, 1000, 10_000)}
    worst_z = 0.0
    violations = 0
    for m in (100, 1000, 10_000):
        for ti, t in enumerate(t_values):
            exact = drift_exact(MIX, grid, t)
            batches = {"mc-grad": [], "mc-stein": []}
            for r in range(reps):
                z = _rng.normal_rows(seed0 + r, _rng.ROLE_DRIFT, ti, len(grid), (m, 1))
                for mode in batches:
                    batches[mode].append(
                        _mc_drift_core(MIX, grid, t, z, mode, step_index=ti, particle_offset=0)
                    )
            for mode, rows in batches.items():
                a = np.stack(rows)
                mse[m][mode].append(float(np.mean((a - exact[None]) ** 2)))
                if m == 10_000:
                    se = a.std(axis=0, ddof=1) / math.sqrt(reps)
                    zscores = np.abs(a.mean(axis=0) - exact) / np.maximum(se, 1e-300)
                    worst_z = max(worst_z, float(zscores.max()))
                    violations += int((zscores > 4.0).sum())
    slopes = {}
    for mode in ("mc-grad", "mc-stein"):
        ms = np.array([100.0, 1000.0, 10_000.0])
        ys = np.array([np.mean(mse[int(v)][mode]) for v in ms])
        slopes[mode] = float(np.polyfit(np.log(ms), np.log(ys), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (
        violations == 0
        and all(-1.3 <= s <= -0.7 for s in slopes.values())
        and elapsed < 60.0
    )
    _line(
        3,
        "drift-estimator consistency",
        ok,
        f"125 grid cells x 2 estimators at m=1e4: 0 points outside 4 SE required, "
        f"got {violations} (worst z {worst_z:.2f}); squared-error slopes "
        f"grad {slopes['mc-grad']:.2f}, stein {slopes['mc-stein']:.2f} (need -1 +- 0.3); "
        f"{elapsed:.1f}s (< 60 s)",
    )


def test_04_scale_invariance_bitwise():
    points = [(-2.0, 0.0), (0.3, 0.4), (1.0, 0.75), (4.0, 0.99)]
    drift_sets = []
    terminal_sets = []
    for log_c in (math.log(1e-6), 0.0, math.log(1e6)):
        target = gaussian_potential([1.0], log_scale=log_c)
        rows = []
        for mode, call in (("mc-grad", drift_mc_grad), ("mc-stein", drift_mc_stein)):
            ev = DriftEvaluator(target=target, mode=mode, m=32, seed=4)
            rows.extend(call(ev, np.array([x]), t) for x, t in points)
        drift_sets.append(np.vstack(rows))
        cfg = SamplerConfig(steps=10, particles=256, seed=44, drift="mc-stein", mc_size=16)
        terminal_sets.append(sfs_run(cfg, target).samples)
    drift_ok = all(np.array_equal(drift_sets[0], d) for d in drift_sets[1:])
    run_ok = all(np.array_equal(terminal_sets[0], s) for s in terminal_sets[1:])
    _line(
        4,
        "scale invariance",
        drift_ok and run_ok,
        "log f shifted by log C, C in (1e-6, 1, 1e6): drift values and full-run "
        f"terminals bit-identical = ({drift_ok}, {run_ok})",
    )


def test_05_drift_sup_bound_from_oracle_constants():
    gamma, xi = mixture_gamma_xi([0.5, 0.5], [2.0, -2.0], lo=-5.0, hi=5.0)
    # Frozen closed forms for this mixture on [-5, 5]: the oracle scan must
    # land on gamma = 2(e^8 + e^-12) (the second derivative at the edge)
    # and xi = e^-2 (the density ratio at the origin).
    assert gamma == pytest.approx(2.0 * (math.exp(8.0) + math.exp(-12.0)), rel=1e-9)
    assert xi == pytest.approx(math.exp(-2.0), rel=1e-12)
    bound = gamma / xi
    xs = np.linspace(-5.0, 5.0, 1001).reshape(-1, 1)
    sup = 0.0
    violations = 0
    for t in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        norms = np.abs(drift_exact(MIX, xs, t)).ravel()
        sup = max(sup, float(norms.max()))
        violations += int((norms > bound).sum())
    # Supplementary sharper check: this drift is 2 tanh(2x), so the true
    # supremum is below 2 even though the generic bound is ~4.4e4.
    ok = violations == 0 and sup <= bound and sup < 2.0
    _line(
        5,
        "drift sup bound",
        ok,
        f"sup |b| = {sup:.4f} over 1001 points x 6 times <= gamma/xi = {bound:.1f} "
        f"(oracle gamma {gamma:.1f}, xi {xi:.5f}); violations {violations}",
    )


def test_06_second_moment_bound_along_the_chain():
    gamma, xi = mixture_gamma_xi([0.5, 0.5], [2.0, -2.0], lo=-5.0, hi=5.0)
    p = 1
    bound = 6.0 * (gamma / xi) ** 2 + 3.0 * p
    cfg = SamplerConfig(
        steps=100, particles=10_000, seed=6006, drift="mc-grad", mc_size=64
    )
    path = sfs_run(cfg, MIX, workers=4, record_trajectory=True).trajectories
    sq = np.sum(path * path, axis=2)
    means = sq.mean(axis=0)
    slack = 4.0 * sq.std(axis=0, ddof=1) / math.sqrt(sq.shape[0])
    margin = (bound + slack) - means
    ok = bool((margin > 0.0).all())
    _line(
        6,
        "second-moment bound",
        ok,
        f"max_k E|Y_k|^2 = {means.max():.3f} <= 6 gamma^2/xi^2 + 3p = {bound:.3e} "
        f"at all 101 steps (K=100, n=1e4, m=64), min margin {margin.min():.3e}",
    )


def test_07_sampling_quality_against_noise_floor():
    start = time.perf_counter()
    cfg = SamplerConfig(steps=200, particles=20_000, seed=7001)
    batch = sfs_run(cfg, MIX)
    truth = sample_ground_truth(MIX, 20_000, 7002)
    w2 = wasserstein2_1d(batch.samples, truth.samples)
    floor = w2_noise_floor(MIX, 20_000, 7003, pairs=3)
    elapsed = time.perf_counter() - start
    ok = w2 <= 3.0 * floor and elapsed < 30.0
    _line(
        7,
        "sampling quality",
        ok,
        f"1-d mixture, exact drift, K=200, n=2e4: W2 {w2:.4f} <= 3 x floor "
        f"{floor:.4f} (ratio {w2 / floor:.2f}); {elapsed:.1f}s (< 30 s)",
    )


def test_08_error_non_increasing_in_steps():
    reps = 5
    values = (10, 40, 160)
    scores = np.zeros((len(values), reps))
    for r in range(reps):
        seeds = _rng.child_seeds(7070, r, 2)
        truth = sample_ground_truth(MIX, 4000, seeds[1])
        for i, steps in enumerate(values):
            cfg = SamplerConfig(steps=steps, particles=4000, seed=seeds[0])
            batch = sfs_run(cfg, MIX)
            scores[i, r] = wasserstein2_1d(batch.samples, truth.samples)
    ok = True
    details = []
    for i in range(len(values) - 1):
        diffs = scores[i + 1] - scores[i]
        margin = 2.0 * diffs.std(ddof=1) / math.sqrt(reps)
        ok = ok and diffs.mean() <= margin
        details.append(
            f"K {values[i]}->{values[i + 1]}: mean diff {diffs.mean():+.4f} <= 2 SE {margin:.4f}"
        )
    means = ", ".join(f"K={v}: {scores[i].mean():.4f}" for i, v in enumerate(values))
    _line(8, "error non-increasing in K", ok, f"{means}; {'; '.join(details)} (5 reps, CRN)")


def test_09_regularized_runs_and_batch_size_trend():
    from sfsampler import quartic_bump

    bump = quartic_bump(3.0)
    reps = 5
    values = (100, 1000, 10_000)
    ok = True
    details = []
    for rule in ("log", "power"):
        scores = np.zeros((len(values), reps))
        for r in range(reps):
            seeds = _rng.child_seeds(9090, r, 2)
            truth = sample_ground_truth(bump, 256, seeds[1])
            for i, m in enumerate(values):
                cfg = SamplerConfig(
                    steps=16, particles=256, seed=seeds[0], drift="mc-grad",
                    mc_size=m, eps=EpsSchedule(rule=rule),
                )
                batch = sfs_run(cfg, bump, workers=4)
                assert np.isfinite(batch.samples).all()
                scores[i, r] = wasserstein2_1d(batch.samples, truth.samples)
        for i in range(len(values) - 1):
            diffs = scores[i + 1] - scores[i]
            margin = 2.0 * diffs.std(ddof=1) / math.sqrt(reps)
            ok = ok and diffs.mean() <= margin
        details.append(
            f"{rule}: " + " ".join(f"m={v}:{scores[i].mean():.3f}" for i, v in enumerate(values))
        )
    _line(
        9,
        "regularized batch-size trend",
        ok,
        f"bump target, eps rules bound per run, all samples finite; W2 non-increasing "
        f"in m within 2 SE ({'; '.join(details)})",
    )


def test_10_metric_oracles():
    gen = np.random.default_rng(1010)
    worst_small = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 9))
        p = int(gen.integers(1, 4))
        x, y = gen.normal(size=(n, p)), gen.normal(size=(n, p))
        worst_small = max(worst_small, abs(exact_w2_assignment(x, y) - brute_force_w2(x, y)))
    worst_1d = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 257))
        x, y = gen.normal(size=n), gen.normal(size=n) + gen.uniform(-1, 1)
        worst_1d = max(worst_1d, abs(wasserstein2_1d(x, y) - exact_w2_assignment(x, y)))
    ok = worst_small <= 1e-12 and worst_1d <= 1e-12
    _line(
        10,
        "metric oracles",
        ok,
        f"assignment vs brute force (50x, n<=8): max diff {worst_small:.2e}; "
        f"1-d sort vs assignment (50x, n<=256): max diff {worst_1d:.2e} (<= 1e-12)",
    )


def test_11_byte_identical_reruns_across_threads(tmp_path):
    from sfsampler import quartic_bump

    runs = {
        "exact": (SamplerConfig(steps=200, particles=20_000, seed=7001), MIX),
        "mc": (
            SamplerConfig(
                steps=16, particles=256, seed=1111, drift="mc-grad", mc_size=64,
                eps=EpsSchedule(rule="log"),
            ),
            quartic_bump(3.0),
        ),
    }
    ok = True
    for label, (cfg, target) in runs.items():
        blobs = []
        for attempt, workers in enumerate((1, 8, 1, 8)):
            out = os.path.join(tmp_path, f"{label}-{attempt}")
            batch = sfs_run(cfg, target, workers=workers)
            paths = save_batch(batch, out)
            with open(paths["csv"], "rb") as fh:
                blobs.append(fh.read())
        ok = ok and all(b == blobs[0] for b in blobs[1:])
    _line(
        11,
        "byte-identical determinism",
        ok,
        "exact-drift and regularized Monte-Carlo runs re-executed under 1 and 8 "
        "threads: all sample CSVs byte-identical",
    )
