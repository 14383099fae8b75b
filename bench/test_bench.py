"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench -q
"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from replay import replay_run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402

TINY = {
    "mix2d-grad": dict(particles=24, steps=3, mc_size=16),
    "bump-eps-grad-w2": dict(particles=24, steps=3, mc_size=64),
    "mix1d-exact-sample": dict(particles=200, steps=5),
    "mix2d-stein-check": dict(particles=32, steps=2, mc_size=4),
}


def tiny_bench(name, tmp_path, seed=3):
    spec = dataclasses.replace(WORKLOADS[name], **TINY[name])
    return Bench(spec, seed, str(tmp_path / name))


def declared(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_workloads_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ungated = {"bump-eps-grad-w2", "mix2d-stein-check"}
    assert names == [w for w in WORKLOADS if w not in ungated]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    bench = tiny_bench(name, tmp_path)
    ok, attempted, failed, metrics, info = run.end_to_end(bench, 0.0)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert failed == 0 and attempted >= 1
    assert info["run_seeds_checked"] == len(bench.run_seeds) == bench.spec.seeds
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_per_layer_metric_is_emitted_with_its_unit(name, tmp_path):
    ok, _, failed, metrics, _ = run.per_layer(tiny_bench(name, tmp_path), 0.0, seed=3)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert ok and failed == 0
    assert metrics["trace.replay_match"][0] == 1.0


@pytest.mark.parametrize("name", ["mix2d-grad", "bump-eps-grad-w2", "mix1d-exact-sample"])
def test_replay_reproduces_the_run_byte_for_byte(name, tmp_path):
    bench = tiny_bench(name, tmp_path)
    bench.check(0, bench.run_once(0))
    config = dataclasses.replace(bench.config, seed=bench.run_seeds[0])
    y = replay_run(config, bench.target, bench.spec.workers, Tracer())
    assert y.tobytes() == bench.first[0].tobytes()


@pytest.mark.parametrize("name, ratio", [("bump-eps-grad-w2", 2.0), ("mix2d-grad", 1.0)])
def test_log_f_points_per_probe(name, ratio, tmp_path):
    _, _, _, metrics, _ = run.per_layer(tiny_bench(name, tmp_path), 0.0, seed=3)
    assert metrics["targets.log_f_pts_per_probe"][0] == ratio
    assert metrics["targets.grad_pts_per_probe"][0] == 1.0


def test_a_changed_output_counts_as_failed(tmp_path):
    bench = tiny_bench("mix2d-grad", tmp_path)
    out = bench.run_once(0)
    bench.check(0, out)
    with pytest.raises(RuntimeError, match="differ"):
        bench.check(0, out + 1e-12)
    with pytest.raises(RuntimeError, match="non-finite"):
        bench.check(1, out * float("nan"))


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mix2d-grad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
