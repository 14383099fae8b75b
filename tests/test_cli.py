"""CLI: exit codes, error JSON, and the files each subcommand leaves behind."""

import argparse
import hashlib
import json
import os
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest

from sfsampler import (
    DriftEvaluator,
    ProbeGrid,
    cli,
    drift_exact,
    estimate_regularity,
    gaussian_mixture_target,
    harness,
    load_batch,
    probe_points,
    regularize,
    rng,
)
from sfsampler.cli import build_parser, main
from sfsampler.config import RUN_KEYS, read_ini, sampler_from_config, target_from_config

GOOD = """[target]
kind = mixture
weights = 0.5 0.5
means = 2; -2

[run]
seed = 7
steps = 10
particles = 128
drift = mc-grad
mc_size = 8

[ula]
step_size = 0.05
burn_in = 20

[plan]
axis = steps
values = 4 8 16
replications = 3
"""

SINGULAR = """[target]
kind = bump
radius = 0.05

[run]
seed = 5
steps = 1
particles = 64
drift = mc-grad
mc_size = 16
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_sample_writes_batch_and_resolved_config(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "out")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    payload = _json_out(capsys)
    assert payload["command"] == "sample"
    assert payload["n"] == 128
    batch = load_batch(os.path.join(out, "samples.csv"))
    assert batch.samples.shape == (128, 1)
    assert batch.config_digest == payload["config_digest"]
    assert os.path.exists(os.path.join(out, "resolved.ini"))
    # The resolved config reruns to the same digest and the same bytes.
    out2 = os.path.join(tmp_path, "out2")
    assert main(["sample", "--config", os.path.join(out, "resolved.ini"), "--out", out2]) == 0
    with open(os.path.join(out, "samples.csv"), "rb") as fa:
        with open(os.path.join(out2, "samples.csv"), "rb") as fb:
            assert fa.read() == fb.read()


def test_sample_cli_overrides_change_the_run(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "out")
    assert main(["sample", "--config", cfg, "--out", out, "--particles", "32",
                 "--seed", "21", "--drift", "exact"]) == 0
    payload = _json_out(capsys)
    assert payload["n"] == 32
    batch = load_batch(os.path.join(out, "samples.csv"))
    assert batch.seed == 21
    assert batch.config["sfs"]["drift"] == "exact"


def test_every_run_flag_reaches_the_run(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "out")
    assert main(["sample", "--config", cfg, "--out", out, "--seed", "3", "--steps", "5",
                 "--particles", "6", "--drift", "mc-stein", "--mc-size", "9",
                 "--eps-rule", "fixed:0.25", "--trajectory"]) == 0
    assert load_batch(os.path.join(out, "samples.csv")).config["sfs"] == {
        "drift": "mc-stein",
        "eps": 0.25,
        "m": 9,
        "particles": 6,
        "seed": 3,
        "steps": 5,
    }
    with open(os.path.join(out, "resolved.ini")) as fh:
        assert "[run]\nseed = 3\nsteps = 5\nparticles = 6\ndrift = mc-stein\nmc_size = 9\n" \
            "eps_rule = fixed:0.25\n" in fh.read()


def _sample_outputs(out):
    """The bytes of samples.csv and the samples.json payload with ``wallclock`` masked."""
    with open(os.path.join(out, "samples.csv"), "rb") as fh:
        rows = fh.read()
    with open(os.path.join(out, "samples.json")) as fh:
        return rows, {**json.load(fh), "wallclock": None}


def test_requests_that_resolve_alike_write_one_record(tmp_path):
    # On a mixture "auto" is the closed form, which reads no m: the record names
    # the run, not the request, so all four requests write the same files.
    cfg = _write(tmp_path, GOOD.replace("drift = mc-grad\nmc_size = 8\n", ""))
    outputs = []
    for i, flags in enumerate(([], ["--drift", "exact"], ["--drift", "exact", "--mc-size", "64"],
                               ["--mc-size", "7"])):
        out = os.path.join(tmp_path, f"exact-{i}")
        assert main(["sample", "--config", cfg, "--out", out] + flags) == 0
        outputs.append(_sample_outputs(out))
    assert all(output == outputs[0] for output in outputs)
    assert outputs[0][1]["config"]["sfs"]["drift"] == "exact"
    assert outputs[0][1]["config"]["sfs"]["m"] is None
    # A Monte-Carlo run reads its m, so m = 8 and m = 9 are two runs.
    runs = []
    for m in ("8", "9"):
        out = os.path.join(tmp_path, f"mc-{m}")
        assert main(["sample", "--config", cfg, "--out", out, "--drift", "mc-grad",
                     "--mc-size", m]) == 0
        runs.append(_sample_outputs(out))
    assert runs[0][0] != runs[1][0]
    assert runs[0][1]["config_digest"] != runs[1][1]["config_digest"]


def test_target_options_that_build_one_target_write_one_plan_json(tmp_path):
    text = "[target]\nkind = standard\n{}\n[run]\nseed = 7\nsteps = 4\nparticles = 32\n\n" \
        "[plan]\naxis = steps\nvalues = 2 4 8\n"
    files = {}
    for name, extra in (("plain", ""), ("dim", "dim = 1\n")):
        out = os.path.join(tmp_path, name)
        assert main(["sweep", "--config", _write(tmp_path, text.format(extra), name + ".ini"),
                     "--out", out]) == 0
        for artifact in ("plan.json", "cells.csv"):
            with open(os.path.join(out, artifact), "rb") as fh:
                files.setdefault(artifact, []).append(fh.read())
    for artifact, (plain, dim) in files.items():
        assert plain == dim, artifact


def test_sample_trajectory_flag(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "out")
    assert main(["sample", "--config", cfg, "--out", out, "--trajectory",
                 "--particles", "16"]) == 0
    path = np.load(os.path.join(out, "trajectories.npy"))
    assert path.shape == (16, 11, 1)


def test_a_recorded_path_changes_no_byte_of_the_run(tmp_path, capsys):
    # The path is a view of the run, not a setting of it: samples.csv, the
    # sidecar and resolved.ini are the same bytes with and without it.
    cfg = _write(tmp_path, GOOD)
    files = {}
    for flag in ([], ["--trajectory"]):
        out = os.path.join(tmp_path, "path" if flag else "plain")
        assert main(["sample", "--config", cfg, "--out", out, "--particles", "24"] + flag) == 0
        capsys.readouterr()
        with open(os.path.join(out, "resolved.ini"), "rb") as fh:
            files.setdefault("resolved.ini", []).append(fh.read())
        files.setdefault("samples", []).append(_sample_outputs(out))
    for name, (plain, path) in files.items():
        assert plain == path, name
    assert not os.path.exists(os.path.join(tmp_path, "plain", "trajectories.npy"))
    path = np.load(os.path.join(tmp_path, "path", "trajectories.npy"))
    assert path.shape == (24, 11, 1)
    terminal = load_batch(os.path.join(tmp_path, "path", "samples.csv")).samples
    assert np.array_equal(path[:, -1], terminal)


def test_a_path_over_the_budget_is_exit_4_before_any_file(tmp_path, capsys):
    # 10**6 particles over 201 points is 2.01e8 values, over the 2**27 budget.
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "o")
    assert main(["sample", "--config", cfg, "--out", out, "--trajectory",
                 "--particles", "1000000", "--steps", "200"]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == "ValueError"
    assert payload["message"].endswith("; record fewer particles or steps")
    assert not os.path.exists(out)


@pytest.mark.parametrize("rule, code", [("fixed:1.5", 4), ("fixed:nan", 4), ("fixed:0", 4),
                                        ("sqrt", 2), ("fixed:abc", 2), ("fixed:", 2),
                                        ("log:0.5", 2)])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_an_eps_rule_out_of_range_is_exit_4_and_one_that_is_no_rule_exit_2(
        tmp_path, capsys, rule, code, where):
    if where == "flag":
        argv = ["--config", _write(tmp_path, GOOD), "--eps-rule", rule]
    else:
        text = GOOD.replace("mc_size = 8\n", f"mc_size = 8\neps_rule = {rule}\n")
        argv = ["--config", _write(tmp_path, text)]
    out = os.path.join(tmp_path, "o")
    assert main(["sample", "--out", out] + argv) == code
    payload = _json_out(capsys)
    assert payload["exit"] == code
    if code == 2:
        assert payload == {"error": "ConfigError", "exit": 2,
                           "message": f"cannot parse eps rule {rule!r}"}
    else:
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("fixed eps must be a finite real number in (0.0, 1.0)")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_a_run_file_cannot_ask_for_a_path(tmp_path, capsys, command):
    cfg = _write(tmp_path, GOOD.replace("mc_size = 8\n", "mc_size = 8\nrecord_trajectory = true\n"))
    out = os.path.join(tmp_path, "o")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert _json_out(capsys) == {"error": "ConfigError", "exit": 2,
                                 "message": "unknown key 'record_trajectory' in section [run]"}
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_a_run_file_cannot_name_a_plan(tmp_path, capsys, command):
    cfg = _write(tmp_path, GOOD.replace("[plan]\n", "[plan]\nname = x\n"))
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main([command, "--config", cfg, "--out", out]) == 2
    assert not run.called
    assert _json_out(capsys) == {"error": "ConfigError", "exit": 2,
                                 "message": "unknown key 'name' in section [plan]"}
    assert not os.path.exists(out)


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["sample", "--config", os.path.join(tmp_path, "nope.ini"),
                 "--out", os.path.join(tmp_path, "o")]) == 2
    payload = _json_out(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["exit"] == 2


def test_missing_seed_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "[target]\nkind = bump\n\n[run]\nsteps = 4\n")
    assert main(["sample", "--config", cfg, "--out", os.path.join(tmp_path, "o")]) == 2
    assert _json_out(capsys)["error"] == "ConfigError"


def test_repeated_plan_values_are_exit_2_before_any_file(tmp_path, capsys):
    text = GOOD.replace("axis = steps\nvalues = 4 8 16", "axis = particles\nvalues = 600 600 64 64")
    cfg = _write(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    payload = _json_out(capsys)
    assert payload["error"] == "ConfigError" and "particles values must differ" in payload["message"]
    assert not os.path.exists(out)


def test_non_whole_count_in_plan_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("values = 4 8 16", "values = 4.5 8 16"))
    out = os.path.join(tmp_path, "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    payload = _json_out(capsys)
    assert payload["error"] == "ConfigError" and "4.5" in payload["message"]
    assert not os.path.exists(out)


def test_unknown_target_kind_is_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "[target]\nkind = cauchy\n\n[run]\nseed = 1\n")
    assert main(["sample", "--config", cfg, "--out", os.path.join(tmp_path, "o")]) == 3
    assert _json_out(capsys)["error"] == "UnknownTargetError"


def test_validation_failures_are_exit_4(tmp_path, capsys):
    bad_weights = _write(
        tmp_path, "[target]\nkind = mixture\nweights = 0.5 0.6\nmeans = 2; -2\n\n[run]\nseed = 1\n"
    )
    assert main(["sample", "--config", bad_weights, "--out", os.path.join(tmp_path, "o")]) == 4
    assert _json_out(capsys)["exit"] == 4

    bump = _write(tmp_path, "[target]\nkind = bump\n\n[run]\nseed = 1\n", name="b.ini")
    assert main(["drift-check", "--config", bump]) == 4
    assert _json_out(capsys)["error"] == "UnsupportedTargetError"

    for target, key in (
        ("kind = gaussian", "mean"),
        ("kind = mixture\nweights = 1", "means"),
        ("kind = gaussian-potential", "mean"),
    ):
        missing = _write(tmp_path, f"[target]\n{target}\n\n[run]\nseed = 1\n", name="m.ini")
        assert main(["sample", "--config", missing, "--out", os.path.join(tmp_path, "o")]) == 4
        payload = _json_out(capsys)
        assert payload["error"] == "ValueError"
        assert f"['{key}']" in payload["message"]


POTENTIAL = """[target]
kind = gaussian-potential
mean = 1.5

[run]
seed = 3
drift = mc-grad
mc_size = 16
"""


def test_workers_below_one_are_exit_4(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    potential = _write(tmp_path, POTENTIAL, name="potential.ini")
    out = os.path.join(tmp_path, "o")
    assert main(["sample", "--config", cfg, "--out", out, "--workers", "-3"]) == 4
    assert _json_out(capsys)["error"] == "ValueError"
    assert not os.path.exists(os.path.join(out, "samples.csv"))
    for argv in (
        ["sweep", "--config", cfg, "--out", out, "--workers", "0"],
        ["compare", "--config", cfg, "--out", out, "--workers", "0"],
        ["drift-check", "--config", cfg, "--out", out, "--workers", "0"],
        ["drift-check", "--config", cfg, "--workers", "-3"],
        ["regularity", "--config", cfg, "--out", out, "--workers", "0"],
        ["regularity", "--config", potential, "--out", out, "--workers", "0"],
    ):
        assert main(argv) == 4, argv
        payload = _json_out(capsys)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("workers must be a positive integer")
        assert not os.path.exists(out), argv


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_scoring_commands_need_a_ground_truth_sampler_before_any_run(tmp_path, capsys, command):
    cfg = _write(tmp_path, POTENTIAL + "\n[ula]\nstep_size = 0.05\nburn_in = 20\n\n"
                 "[plan]\naxis = steps\nvalues = 2 4 8\n")
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main([command, "--config", cfg, "--out", out]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == "UnsupportedTargetError"
    assert "ground truth" in payload["message"]
    assert not run.called
    assert not os.path.exists(out)


def test_mc_sweep_without_mc_size_is_exit_4_before_any_file(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("mc_size = 8\n", ""))
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main(["sweep", "--config", cfg, "--out", out]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == "ValueError"
    assert "(mc_size) must be a positive integer" in payload["message"]
    assert not run.called
    assert not os.path.exists(out)


def test_m_driven_eps_sweep_with_the_closed_form_is_exit_4_before_any_file(tmp_path, capsys):
    text = GOOD.replace("drift = mc-grad\nmc_size = 8\n", "eps_rule = log\n")
    cfg = _write(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main(["sweep", "--config", cfg, "--out", out]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == "ValueError"
    assert "driven by the Monte-Carlo batch size" in payload["message"]
    assert not run.called
    assert not os.path.exists(os.path.join(out, "plan.json"))


EXACT_BUMP = GOOD.replace("kind = mixture\nweights = 0.5 0.5\nmeans = 2; -2\n", "kind = bump\n").replace(
    "drift = mc-grad\nmc_size = 8\n", "drift = exact\neps_rule = fixed:0.2\n")
CLOSED_FORM_REFUSED = {
    "auto": (GOOD.replace("drift = mc-grad\nmc_size = 8\n", "eps_rule = log\n"),
             "ValueError", "driven by the Monte-Carlo batch size"),
    "exact": (GOOD.replace("mc-grad\nmc_size = 8\n", "exact\neps_rule = log\n"),
              "ValueError", "driven by the Monte-Carlo batch size"),
    "bump": (EXACT_BUMP, "UnsupportedTargetError", "'bump' has none"),
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_REFUSED))
@pytest.mark.parametrize("command", ["sample", "drift-check", "sweep", "compare", "regularity"])
def test_m_driven_eps_with_the_closed_form_is_exit_4_in_every_run_command(
        tmp_path, capsys, command, case):
    # The check commands run a Monte-Carlo drift, but they refuse what a run refuses.
    text, error, fragment = CLOSED_FORM_REFUSED[case]
    cfg = _write(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main([command, "--config", cfg, "--out", out]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == error
    assert fragment in payload["message"]
    assert not os.path.exists(out)


SWEEP_1D = """[target]
kind = mixture
weights = 0.5 0.5
means = 2; -2

[run]
seed = 7
steps = 10
particles = 64
drift = mc-grad
mc_size = 8

[plan]
axis = steps
values = 2 4 8
"""
SWEEP_2D = SWEEP_1D.replace("means = 2; -2", "means = 2 0; -2 0")


def test_a_run_file_cannot_name_a_metric(tmp_path, capsys):
    # Not even the one its dimension gives.
    cfg = _write(tmp_path, SWEEP_1D + "metric = w2_1d\n")
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert not run.called
    assert _json_out(capsys) == {"error": "ConfigError", "exit": 2,
                                 "message": "unknown key 'metric' in section [plan]"}
    assert not os.path.exists(out)


# A sweep scores by sorting in one dimension and by sliced W2 above, and writes
# the bytes of a run file that named that metric while [plan] took one.
@pytest.mark.parametrize("text, metric, digests", [
    (SWEEP_1D, "w2_1d", {
        "cells.csv": "e36c7a6a114bd5a40ae2023cb73583927c7094868e0d3d85459cfdd6f273a374",
        "plan.json": "50e8ec3e7d64c6c6a5aa2da2a9d8ea6b8a7b5ef9b5ea4811558545b67aacd5f3",
    }),
    (SWEEP_2D, "sliced", {
        "cells.csv": "45471dd866bca62579b17ae22334d0025b334bf981c3f2f3bc88d7c65067111b",
        "plan.json": "bd1bf647c325d6c8d4ef55af5d37a384db5710ef063e6e9f5e277df2047aaa26",
    }),
], ids=["1-d", "2-d"])
def test_a_sweep_scores_as_its_dimension_gives_and_keeps_its_bytes(
        tmp_path, capsys, text, metric, digests):
    cfg = _write(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert _json_out(capsys)["failures"] == {}
    with open(os.path.join(out, "plan.json")) as fh:
        assert json.load(fh)["plan"]["metric"] == metric
    for name, digest in digests.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.mark.parametrize("text, metric", [(SWEEP_1D, "w2_1d"), (SWEEP_2D, "sliced")],
                         ids=["1-d", "2-d"])
def test_sweep_and_compare_score_with_one_metric(tmp_path, capsys, text, metric):
    cfg = _write(tmp_path, text + "\n[ula]\nstep_size = 0.05\nburn_in = 20\n")
    for command in ("sweep", "compare"):
        assert main([command, "--config", cfg, "--out", os.path.join(tmp_path, command)]) == 0
    capsys.readouterr()
    with open(os.path.join(tmp_path, "sweep", "plan.json")) as fh:
        plan = json.load(fh)["plan"]
    with open(os.path.join(tmp_path, "compare", "comparison.json")) as fh:
        comparison = json.load(fh)
    assert plan["metric"] == comparison["sfs"]["metric"] == comparison["ula"]["metric"] == metric


def test_drift_check_needs_the_closed_form_before_any_mc_batch(tmp_path, capsys):
    cfg = _write(tmp_path, SINGULAR)
    with mock.patch.object(DriftEvaluator, "batch", autospec=True,
                           side_effect=AssertionError("batch ran")) as batch:
        assert main(["drift-check", "--config", cfg]) == 4
    assert _json_out(capsys) == {
        "error": "UnsupportedTargetError",
        "exit": 4,
        "message": "closed-form drift needs a mixture target, 'bump' has none",
    }
    assert not batch.called


def test_every_subcommand_takes_the_shared_flags():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["sample", "drift-check", "sweep", "compare", "regularity"]
    overrides = {"--" + key.replace("_", "-") for key in RUN_KEYS}
    for name, parser in sub.choices.items():
        flags = {flag: action for action in parser._actions for flag in action.option_strings}
        assert {"--config", "--out", "--workers"} | overrides <= set(flags), name
        assert flags["--config"].required, name
        assert flags["--out"].required == (name in ("sample", "sweep", "compare")), name
        assert ("--trajectory" in flags) == (name == "sample"), name


@pytest.mark.parametrize("command, text", [
    ("drift-check", GOOD),
    ("regularity", GOOD),
    ("regularity", POTENTIAL),
], ids=["drift-check", "regularity-mixture", "regularity-potential"])
def test_check_commands_print_the_same_bytes_on_two_threads(tmp_path, capsys, command, text):
    cfg = _write(tmp_path, text)
    stdout = []
    for workers in ("1", "2"):
        assert main([command, "--config", cfg, "--workers", workers]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]


@pytest.mark.parametrize("command, report", [
    ("drift-check", "drift_check.json"),
    ("regularity", "regularity.json"),
])
def test_check_commands_save_exactly_the_report_they_print(tmp_path, capsys, command, report):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "o")
    assert main([command, "--config", cfg, "--out", out, "--workers", "2"]) == 0
    with open(os.path.join(out, report), "rb") as fh:
        assert fh.read() == capsys.readouterr().out.encode()


def test_mixture_weights_message_shows_a_plain_number(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("weights = 0.5 0.5", "weights = 0.5 0.6"))
    assert main(["sample", "--config", cfg, "--out", os.path.join(tmp_path, "o")]) == 4
    assert _json_out(capsys)["message"].endswith("got 1.1")


def test_singularity_is_exit_5_with_context(tmp_path, capsys):
    cfg = _write(tmp_path, SINGULAR)
    assert main(["sample", "--config", cfg, "--out", os.path.join(tmp_path, "o")]) == 5
    payload = _json_out(capsys)
    assert payload["error"] == "DriftSingularityError"
    assert payload["context"]["step_index"] == 0
    assert payload["context"]["x"] == [0.0]


def test_argparse_problems_are_exit_2(tmp_path, capsys):
    assert main(["sample"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_drift_check_reports_small_errors(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    out = os.path.join(tmp_path, "dc")
    assert main(["drift-check", "--config", cfg, "--out", out, "--mc-size", "4096"]) == 0
    payload = _json_out(capsys)
    assert payload["mode"] == "mc-grad"
    assert len(payload["cells"]) == 5
    assert payload["max_error"] < 0.5
    assert os.path.exists(os.path.join(out, "drift_check.json"))


def test_sweep_and_compare_commands(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    sweep_out = os.path.join(tmp_path, "sweep")
    assert main(["sweep", "--config", cfg, "--out", sweep_out]) == 0
    payload = _json_out(capsys)
    assert payload["cells"] == 3 and payload["failures"] == {}
    assert os.path.exists(os.path.join(sweep_out, "cells.csv"))

    cmp_out = os.path.join(tmp_path, "cmp")
    assert main(["compare", "--config", cfg, "--out", cmp_out]) == 0
    payload = _json_out(capsys)
    assert payload["sfs"]["w2"] > 0.0
    assert payload["budget"]["per_particle"] == 80
    assert os.path.exists(os.path.join(cmp_out, "comparison.json"))


def test_a_diverging_langevin_chain_in_compare_is_exit_5_with_context(tmp_path, capsys):
    # h = 5 multiplies a chain by about -4 per iteration, so 10 * 64 iterations
    # overflow; Langevin runs first, so the diffusion sampler never starts.
    cfg = _write(tmp_path, GOOD.replace("step_size = 0.05", "step_size = 5"))
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["compare", "--config", cfg, "--out", out, "--mc-size", "64"]) == 5
    assert not run.called
    payload = _json_out(capsys)
    context = payload.pop("context")
    assert sorted(context) == ["particle_index", "step_index"]
    assert 0 <= context["particle_index"] < 128 and 0 < context["step_index"] < 640
    assert payload == {
        "error": "NonFiniteStateError",
        "exit": 5,
        "message": "Langevin chain {particle_index} became non-finite after iteration "
                   "{step_index}".format(**context),
    }
    assert not os.path.exists(os.path.join(out, "comparison.json"))


@pytest.mark.parametrize("command", ["sample", "drift-check", "regularity"])
@pytest.mark.parametrize("target, run, means", [
    ("kind = gaussian\nmean = 1e200", "", "mixture means"),
    ("kind = mixture\nweights = 0.5 0.5\nmeans = 1e200; -1e200", "", "mixture means"),
    ("kind = gaussian-potential\nmean = 1e200", "drift = mc-stein\nmc_size = 8\n",
     "the potential mean"),
], ids=["gaussian", "mixture", "potential"])
def test_mixture_means_that_overflow_are_exit_4_before_any_file(tmp_path, capsys, command,
                                                                target, run, means):
    cfg = _write(tmp_path,
                 f"[target]\n{target}\n\n[run]\nseed = 1\nsteps = 4\nparticles = 8\n{run}")
    out = os.path.join(tmp_path, "o")
    assert main([command, "--config", cfg, "--out", out]) == 4
    payload = _json_out(capsys)
    assert payload["error"] == "ValueError"
    assert payload["message"] == f"{means} must have a finite |m|^2 / 2"
    assert not os.path.exists(out)


def test_compare_derives_the_langevin_length_and_refuses_post_steps(tmp_path, capsys):
    # steps * mc_size - burn_in = 10 * 8 - 20 = 60 is the only length the budget allows.
    cfg = _write(tmp_path, GOOD.replace("burn_in = 20\n", "burn_in = 20\npost_steps = 60\n"))
    out = os.path.join(tmp_path, "o")
    with mock.patch.object(harness, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
        assert main(["compare", "--config", cfg, "--out", out]) == 2
    assert not run.called
    assert _json_out(capsys) == {"error": "ConfigError", "exit": 2,
                                 "message": "unknown key 'post_steps' in section [ula]"}
    assert not os.path.exists(out)


def test_compare_with_exact_drift_is_exit_4(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    assert main(["compare", "--config", cfg, "--out", os.path.join(tmp_path, "o"),
                 "--drift", "exact"]) == 4
    assert _json_out(capsys)["error"] == "ValueError"


def test_regularity_command_checks_declared_bounds(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "[target]\nkind = mixture\nweights = 0.5 0.5\nmeans = 2; -2\n\n"
        "[target.regularity]\ngamma = 5961.916\nxi = 0.13533\n\n[run]\nseed = 1\n",
    )
    out = os.path.join(tmp_path, "reg")
    assert main(["regularity", "--config", cfg, "--out", out]) == 0
    payload = _json_out(capsys)
    assert payload["checks"]["b_sup_ok"] is True
    assert payload["checks"]["b_sup_bound"] == 5961.916 / 0.13533
    assert payload["estimate"]["b_sup_hat"] < 2.0
    assert os.path.exists(os.path.join(out, "regularity.json"))


def test_regularity_reports_a_violated_bound_and_only_the_b_sup_check(tmp_path, capsys):
    # gamma / xi = 1.19 < 2 tanh(10), the grid sup of the +-2 mixture's drift:
    # the declared constants are violated, which the report states and exit 0 keeps.
    cfg = _write(
        tmp_path,
        "[target]\nkind = mixture\nweights = 0.5 0.5\nmeans = 2; -2\n\n"
        "[target.regularity]\ngamma = 5961.916\nxi = 5000\n\n[run]\nseed = 1\n",
    )
    assert main(["regularity", "--config", cfg]) == 0
    payload = _json_out(capsys)
    assert set(payload["estimate"]) == {"b_sup_hat", "n_points"}
    assert set(payload["checks"]) == {"b_sup_bound", "b_sup_ok"}
    assert payload["checks"]["b_sup_bound"] < 2.0
    assert payload["estimate"]["b_sup_hat"] > payload["checks"]["b_sup_bound"]
    assert payload["checks"]["b_sup_ok"] is False


BUMP = "[target]\nkind = bump\nradius = 3\n\n[run]\nseed = 1\n"


@pytest.mark.parametrize("declared, code", [
    ("gamma = 1\nxi = 0.5\nzeta = 0.1", 4), ("gamma = 1\nzeta = 0.1", 2),
], ids=["zeta-below-xi", "no-xi"])
def test_a_declared_zeta_below_xi_exits_4_and_a_missing_xi_exits_2(
        tmp_path, capsys, declared, code):
    text = BUMP.replace("[run]", f"[target.regularity]\n{declared}\n\n[run]") + "eps_rule = log\n"
    cfg = _write(tmp_path, text)
    assert main(["regularity", "--config", cfg]) == code
    assert _json_out(capsys)["error"] == ("ValueError" if code == 4 else "ConfigError")


def test_regularity_on_a_floored_bump_runs_on_the_floored_target(tmp_path, capsys):
    cfg = _write(tmp_path, BUMP + "eps_rule = log\n")
    assert main(["regularity", "--config", cfg]) == 0
    payload = _json_out(capsys)
    assert payload["target"] == "bump+eps"
    assert np.isfinite(payload["estimate"]["b_sup_hat"])
    assert payload["estimate"]["n_points"] == 25 * len(ProbeGrid.t_values)


def test_regularity_on_a_bump_without_a_floor_is_exit_5_with_context(tmp_path, capsys):
    # The probe box [-5, 5] reaches past the support [-3, 3]. The error names the
    # first (step, grid point) whose 64 probes x + sqrt(1 - t) z, z the point's row
    # of the seed-1 drift block, all fall where the bump is zero.
    assert main(["regularity", "--config", _write(tmp_path, BUMP)]) == 5
    payload = _json_out(capsys)
    assert payload["error"] == "DriftSingularityError"
    grid = ProbeGrid()
    pts = probe_points(grid, 1)
    for k, t in enumerate(grid.t_values):
        z = rng.normal_rows(1, rng.ROLE_DRIFT, k, len(pts), (64, 1))
        outside = np.all(np.abs(pts[:, None] + np.sqrt(1.0 - t) * z) >= 3.0, axis=(1, 2))
        if outside.any():
            break
    assert outside.any()
    assert payload["context"]["step_index"] == k
    assert payload["context"]["particle_index"] == int(np.argmax(outside))


def test_drift_check_measures_against_the_floored_closed_form(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("mc_size = 8", "mc_size = 8\neps_rule = fixed:0.2"))
    assert main(["drift-check", "--config", cfg]) == 0
    payload = _json_out(capsys)
    floored = regularize(gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]]), 0.2)
    ev = DriftEvaluator(floored, "mc-grad", m=8, seed=7)
    grid = ProbeGrid()
    pts = probe_points(grid, 1, seed=7)
    for cell, t in zip(payload["cells"], grid.t_values):
        err = np.linalg.norm(ev.batch(pts, t, 0) - drift_exact(floored, pts, t), axis=1)
        assert cell == {"t": t, "rms": float(np.sqrt(np.mean(err**2))), "max": float(err.max())}
    assert payload["target"] == "mixture+eps"


@pytest.mark.parametrize("text", [GOOD, GOOD.replace("mc-grad", "mc-stein"), POTENTIAL],
                         ids=["mixture-grad", "mixture-stein", "potential"])
def test_check_commands_without_a_floor_use_the_target_as_given(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    sections = read_ini(cfg)
    target, config = target_from_config(sections), sampler_from_config(sections)
    ev = DriftEvaluator(target, config.drift, m=config.mc_size, seed=config.seed)
    assert main(["regularity", "--config", cfg]) == 0
    payload = _json_out(capsys)
    assert payload["target"] == target.name
    estimate = estimate_regularity(ev)
    assert payload["estimate"] == asdict(estimate)
    if target.mixture is None:
        return
    grid = ProbeGrid()
    pts = probe_points(grid, 1, seed=config.seed)
    assert main(["drift-check", "--config", cfg]) == 0
    payload = _json_out(capsys)
    assert payload["target"] == target.name
    for cell, t in zip(payload["cells"], grid.t_values):
        err = np.linalg.norm(ev.batch(pts, t, 0) - drift_exact(target, pts, t), axis=1)
        assert cell["rms"] == float(np.sqrt(np.mean(err**2)))


@pytest.mark.parametrize("command", ["drift-check", "regularity"])
def test_check_commands_on_the_closed_form_run_mc_grad_at_m_64(tmp_path, capsys, command):
    default = _write(tmp_path, GOOD.replace("drift = mc-grad\nmc_size = 8\n", ""), "a.ini")
    explicit = _write(tmp_path, GOOD.replace("mc_size = 8", "mc_size = 64"), "b.ini")
    assert main([command, "--config", default]) == 0
    got = capsys.readouterr().out
    assert main([command, "--config", explicit]) == 0
    assert got == capsys.readouterr().out


def test_iid_probes_miss_an_off_centre_mixture_at_t_0(tmp_path, capsys):
    """A known failure of iid probes, pinned until per-step diagnostics can flag it.

    At t = 0 the probes are N(0, 1) draws, and an even mixture at 2.5 and 5.5 puts
    its mass where few of m = 64 probes land, so a few probes carry nearly all of the
    softmax weight. drift-check read an RMS of 1.01-1.08 there against 0.14-0.22 on
    the +-2 mixture (seeds 1-3). Per-step drift diagnostics (ROADMAP item 4) must
    flag the off-centre case and not the +-2 one.
    """
    def rms_at_0(means, seed):
        cfg = _write(tmp_path, f"[target]\nkind = mixture\nweights = 0.5 0.5\nmeans = {means}\n\n"
                     f"[run]\nseed = {seed}\ndrift = mc-grad\nmc_size = 64\n")
        assert main(["drift-check", "--config", cfg]) == 0
        cell = _json_out(capsys)["cells"][0]
        assert cell["t"] == 0.0
        return cell["rms"]

    for seed in (1, 2, 3):
        assert rms_at_0("2.5; 5.5", seed) >= 0.6
        assert rms_at_0("2; -2", seed) <= 0.35


def test_config_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "bad.ini")
    with open(cfg, "wb") as fh:
        fh.write(b"\xff\xfe[target]\n")
    out = os.path.join(tmp_path, "o")
    assert main(["sample", "--config", cfg, "--out", out]) == 2
    payload = _json_out(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"cannot read config {cfg}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, owner", [("sample", cli), ("compare", harness)],
                         ids=["sample", "compare"])
def test_out_that_cannot_be_a_directory_is_exit_2_before_any_run(tmp_path, capsys, command, owner):
    cfg = _write(tmp_path, GOOD)
    for out in (cfg, os.path.join(cfg, "x", "y")):
        with mock.patch.object(owner, "sfs_run", side_effect=AssertionError("sampler ran")) as run:
            assert main([command, "--config", cfg, "--out", out]) == 2
        payload = _json_out(capsys)
        assert payload["error"] == "NotADirectoryError"
        assert payload["exit"] == 2
        assert not run.called
    with open(cfg) as fh:
        assert fh.read() == GOOD
