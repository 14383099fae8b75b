"""Config files: strict parsing, typed errors, and lossless round-trips."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsampler import (
    DRIFT_MODES,
    ConfigError,
    EpsSchedule,
    ExperimentPlan,
    SamplerConfig,
    UnknownTargetError,
    from_potential,
    quartic_bump,
    regularize,
)
from sfsampler.config import (
    _TARGET_KEYS,
    _fmt,
    _parse_value,
    plan_from_config,
    read_ini,
    sampler_from_config,
    target_from_config,
    ula_from_config,
    write_resolved_ini,
)
from sfsampler.harness import SWEEP_AXES
from sfsampler.targets import _KINDS, build_target, describe


def _write(tmp_path, text, name="cfg.ini"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


GOOD = """[target]
kind = mixture
weights = 0.5 0.5
means = 2; -2

[run]
seed = 7
steps = 25
particles = 400
drift = mc-grad
mc_size = 16
eps_rule = fixed:0.125

[ula]
step_size = 0.05
burn_in = 100

[plan]
axis = steps
values = 4 8 16
replications = 3
"""


def test_full_config_parses(tmp_path):
    sections = read_ini(_write(tmp_path, GOOD))
    target = target_from_config(sections)
    config = sampler_from_config(sections)
    assert target.name == "mixture"
    assert config.steps == 25
    assert config.eps == EpsSchedule(rule="fixed", value=0.125)
    ula = ula_from_config(sections)
    assert ula == {"step_size": 0.05, "burn_in": 100}
    plan = plan_from_config(sections, target, config)
    assert plan.target is target
    assert plan.axis == "steps"
    assert plan.values == (4.0, 8.0, 16.0)


def test_overrides_win(tmp_path):
    sections = read_ini(_write(tmp_path, GOOD))
    config = sampler_from_config(sections, {"seed": 99, "steps": 50, "eps_rule": "none"})
    assert config.seed == 99
    assert config.steps == 50
    assert config.eps.rule == "none"
    assert config.particles == 400


@pytest.mark.parametrize(
    "options",
    [
        {"kind": "standard", "dim": 2},
        {"kind": "gaussian", "mean": [1.0, -2.0]},
        {
            "kind": "mixture",
            "weights": [0.25, 0.75],
            "means": [[2.0, 1.0], [-2.0, 0.5]],
            "regularity": {"gamma": 100.0, "xi": 0.01, "zeta": 8.0},
        },
        {"kind": "bump", "radius": 2.5},
        {"kind": "gaussian-potential", "mean": [0.5, 0.1], "log_scale": -3.75},
    ],
)
def test_resolved_ini_round_trips_losslessly(tmp_path, options):
    target = build_target(options)
    config = SamplerConfig(
        steps=17, particles=33, seed=123456789, drift="mc-stein", mc_size=9,
        eps=EpsSchedule(rule="fixed", value=0.0625),
    )
    path = os.path.join(tmp_path, "resolved.ini")
    write_resolved_ini(path, target, config)
    sections = read_ini(path)
    target2 = target_from_config(sections)
    config2 = sampler_from_config(sections)
    assert describe(target2) == describe(target)
    assert config2 == config


def test_round_trip_preserves_awkward_floats(tmp_path):
    target = build_target({"kind": "gaussian", "mean": [0.1, 1e-17, -2.0000000000000004]})
    path = os.path.join(tmp_path, "resolved.ini")
    write_resolved_ini(path, target, SamplerConfig(steps=1, particles=1, seed=0))
    target2 = target_from_config(read_ini(path))
    assert target2.params == target.params


GOLDEN_FULL = """[target]
kind = mixture
means = 2.0 1.0; -2.0 0.5
weights = 0.25 0.75

[target.regularity]
gamma = 100.0
xi = 0.01
zeta = 8.0

[run]
seed = 123456789
steps = 17
particles = 33
drift = mc-grad
mc_size = 9
eps_rule = fixed:0.30000000000000004

[ula]
step_size = 0.05
burn_in = 100

[plan]
axis = eps
values = 0.1 0.2 0.3333333333333333
replications = 4
"""

GOLDEN_MINIMAL = """[target]
kind = gaussian-potential
log_scale = -3.75
mean = 0.5 1e-17

[run]
seed = 0
steps = 4
particles = 8
drift = auto
eps_rule = none
"""


def test_resolved_ini_bytes_are_pinned(tmp_path):
    target = build_target(
        {
            "kind": "mixture",
            "weights": [0.25, 0.75],
            "means": [[2.0, 1.0], [-2.0, 0.5]],
            "regularity": {"gamma": 100.0, "xi": 0.01, "zeta": 8.0},
        }
    )
    config = SamplerConfig(
        steps=17, particles=33, seed=123456789, drift="mc-grad", mc_size=9,
        eps=EpsSchedule(rule="fixed", value=0.1 + 0.2),
    )
    plan = ExperimentPlan(
        target=target, base=config, axis="eps", values=(0.1, 0.2, 1 / 3), replications=4,
    )
    ula = {"step_size": 0.05, "burn_in": 100}
    path = os.path.join(tmp_path, "full", "resolved.ini")
    write_resolved_ini(path, target, config, ula=ula, plan=plan)
    with open(path, "rb") as fh:
        assert fh.read() == GOLDEN_FULL.encode()

    target = build_target({"kind": "gaussian-potential", "mean": [0.5, 1e-17], "log_scale": -3.75})
    path = os.path.join(tmp_path, "minimal.ini")
    write_resolved_ini(path, target, SamplerConfig(steps=4, particles=8, seed=0))
    with open(path, "rb") as fh:
        assert fh.read() == GOLDEN_MINIMAL.encode()


ROUND_TRIP_OPTIONS = {
    "kind": "mixture",
    "weights": [0.25, 0.75],
    "means": [[2.0, 1.0], [-2.0, 0.5]],
    "regularity": {"gamma": 100.0, "xi": 0.01, "zeta": 8.0},
}
_AWKWARD = st.floats(allow_nan=False, allow_infinity=False)
_SCHEDULES = st.one_of(
    st.sampled_from(["none", "log", "power"]).map(lambda rule: EpsSchedule(rule=rule)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda value: EpsSchedule(rule="fixed", value=value)),
)
_CONFIGS = st.builds(
    SamplerConfig,
    steps=st.integers(1, 10**9),
    particles=st.integers(1, 10**9),
    seed=st.integers(0, 2**128 - 1),
    drift=st.sampled_from(("auto",) + DRIFT_MODES),
    mc_size=st.none() | st.integers(1, 10**9),
    eps=_SCHEDULES,
)


ROUND_TRIP_TARGET = build_target(ROUND_TRIP_OPTIONS)


@st.composite
def _run_files(draw):
    """A SamplerConfig, and either no plan or a plan around that config."""
    config = draw(_CONFIGS)
    if draw(st.booleans()):
        return config, None
    axis = draw(st.sampled_from(SWEEP_AXES))
    value = _AWKWARD if axis == "eps" else st.integers(-10**6, 10**6).map(float)
    plan = ExperimentPlan(
        target=ROUND_TRIP_TARGET,
        base=config,
        axis=axis,
        values=tuple(draw(st.lists(value, min_size=3, max_size=6, unique=True))),
        replications=draw(st.integers(3, 10**6)),
    )
    return config, plan


@settings(max_examples=80, deadline=None)
@given(_run_files())
def test_run_file_round_trips_every_setting(run_file):
    config, plan = run_file
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.ini"), os.path.join(tmp, "second.ini")
        write_resolved_ini(first, ROUND_TRIP_TARGET, config, plan=plan)
        sections = read_ini(first)
        target2, config2 = target_from_config(sections), sampler_from_config(sections)
        plan2 = None if plan is None else plan_from_config(sections, target2, config2)
        assert config2 == config
        # A TargetSpec compares by identity, so the plans compare as plan.json holds them.
        assert (plan2 is None) == (plan is None)
        if plan is not None:
            assert plan2.describe() == plan.describe()
        write_resolved_ini(second, target2, config2, plan=plan2)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def test_resolved_ini_refuses_targets_read_ini_cannot_rebuild(tmp_path):
    potential = from_potential(lambda x: 0.5 * np.sum(x * x, axis=1), None, dim=1)
    config = SamplerConfig(steps=4, particles=8, seed=0)
    for target, kind in ((potential, "potential"), (regularize(quartic_bump(), 0.1), "regularized")):
        path = os.path.join(tmp_path, f"{kind}.ini")
        with pytest.raises(ValueError, match=f"kind '{kind}'"):
            write_resolved_ini(path, target, config)
        assert not os.path.exists(path)


def test_unknown_target_kind(tmp_path):
    path = _write(tmp_path, "[target]\nkind = cauchy\n\n[run]\nseed = 1\n")
    with pytest.raises(UnknownTargetError):
        target_from_config(read_ini(path))


@pytest.mark.parametrize(
    "text",
    [
        "[target]\nkind = gaussian\nmean = 1\ncolour = red\n",
        "[teleport]\nkind = gaussian\n",
        "[target]\nkind = gaussian\nmean = one two\n",
        "[run]\nseed = 1\nsteps = many\n",
        "not an ini file at all\n",
    ],
)
def test_malformed_configs_raise_config_error(tmp_path, text):
    with pytest.raises(ConfigError):
        read_ini(_write(tmp_path, text))


def test_missing_pieces_raise_config_error(tmp_path):
    no_target = read_ini(_write(tmp_path, "[run]\nseed = 1\n"))
    with pytest.raises(ConfigError):
        target_from_config(no_target)
    no_seed = read_ini(_write(tmp_path, "[target]\nkind = bump\n\n[run]\nsteps = 4\n"))
    with pytest.raises(ConfigError):
        sampler_from_config(no_seed)
    with pytest.raises(ConfigError):
        ula_from_config(no_seed)
    with pytest.raises(ConfigError):
        plan_from_config(no_seed, quartic_bump(), SamplerConfig(steps=1, particles=1, seed=0))
    assert sampler_from_config(no_seed, {"seed": 5}).seed == 5
    with pytest.raises(ConfigError, match="unknown run setting 'colour'"):
        sampler_from_config(no_seed, {"seed": 5, "colour": "red"})
    missing_file = os.path.join(tmp_path, "nope.ini")
    with pytest.raises(ConfigError):
        read_ini(missing_file)


def test_bad_eps_rule_is_a_config_error(tmp_path):
    path = _write(tmp_path, "[target]\nkind = bump\n\n[run]\nseed = 1\neps_rule = sqrt\n")
    with pytest.raises(ConfigError):
        sampler_from_config(read_ini(path))


def test_partial_regularity_is_rejected(tmp_path):
    path = _write(
        tmp_path,
        "[target]\nkind = bump\n\n[target.regularity]\ngamma = 3.0\n\n[run]\nseed = 1\n",
    )
    with pytest.raises(ConfigError):
        target_from_config(read_ini(path))


# Each value type against its own writer: what _fmt writes, _parse_value reads back.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VALUE_TYPES = {
    "str": st.text().filter(lambda s: s == s.strip()),
    "int": st.integers(),
    "float": _FINITE,
    "floats": st.lists(_FINITE, min_size=1, max_size=6),
    "rows": st.lists(st.lists(_FINITE, min_size=1, max_size=4), min_size=1, max_size=4),
}


@pytest.mark.parametrize("kind", sorted(_VALUE_TYPES))
def test_every_value_type_round_trips_through_its_writer(kind):
    @settings(max_examples=60, deadline=None)
    @given(_VALUE_TYPES[kind])
    def check(value):
        assert _parse_value("run", "key", kind, _fmt(value)) == value

    check()


@pytest.mark.parametrize("kind, raw, message", [
    ("int", "1e3", "[run] key: cannot read '1e3' as int"),
    ("floats", " , ", "[run] key: cannot read ',' as floats"),
    ("rows", "2;", "[run] key: cannot read '2;' as rows"),
    ("rows", "2; ;-2", "[run] key: cannot read '2; ;-2' as rows"),
    ("float", "abc", "[run] key: cannot read 'abc' as float"),
])
def test_malformed_values_give_the_same_message(kind, raw, message):
    with pytest.raises(ConfigError) as info:
        _parse_value("run", "key", kind, raw)
    assert str(info.value) == message


def test_target_keys_are_every_kinds_keys():
    assert _TARGET_KEYS == {
        "dim": "int",
        "kind": "str",
        "log_scale": "float",
        "mean": "floats",
        "means": "rows",
        "radius": "float",
        "weights": "floats",
    }


def test_readme_target_table_lists_each_kinds_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| kind | required | optional (default) | target |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kind, required, optional = (cell.strip() for cell in line.split("|")[1:4])
        table[kind.strip("`")] = (
            re.findall(r"`(\w+)`", required),
            re.findall(r"`(\w+)`", optional),
        )
    assert table == {
        kind: (list(required), list(optional)) for kind, (_, required, optional) in _KINDS.items()
    }
