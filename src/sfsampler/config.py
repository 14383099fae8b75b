"""INI config files: strict typed parsing and a lossless resolved writer.

Sections: [target] (kind plus kind-specific keys), [target.regularity]
(declared gamma/xi/zeta), [run] (sampler settings; seed is required),
[ula] (baseline settings for comparisons), [plan] (sweep settings).
Unknown sections or keys are ConfigError, not warnings: a typo in a
config should fail loudly before any compute happens. Floats are written
with repr() so a written file parses back to bit-identical values.
"""

from __future__ import annotations

import configparser
import os

from .errors import ConfigError, check_int, check_real
from .harness import ExperimentPlan
from .sampler import EpsSchedule, SamplerConfig
from .targets import _KINDS, build_target

# Key tables, in the order write_resolved_ini writes each section; [target]
# takes "kind" plus every key some kind does (build_target refuses a key of
# another kind), and is written from the sorted target.params.
_TARGET_KEYS = {"kind": "str"}
_TARGET_KEYS.update(pair for _, req, opt in _KINDS.values() for pair in (req | opt).items())
_REG_KEYS = {"gamma": "float", "xi": "float", "zeta": "float"}
RUN_KEYS = {
    "seed": "int",
    "steps": "int",
    "particles": "int",
    "drift": "str",
    "mc_size": "int",
    "eps_rule": "str",
}
_ULA_KEYS = {"step_size": "float", "burn_in": "int"}
_PLAN_KEYS = {"axis": "str", "values": "floats", "replications": "int"}
# Values for keys [run] leaves out whose field has no default of its own;
# eps_rule is the text that parses to SamplerConfig.eps.
_RUN_DEFAULTS = {"steps": 100, "particles": 1000, "eps_rule": "none"}
_SECTIONS = {
    "target": _TARGET_KEYS,
    "target.regularity": _REG_KEYS,
    "run": RUN_KEYS,
    "ula": _ULA_KEYS,
    "plan": _PLAN_KEYS,
}


def _floats(raw):
    vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError(raw)
    return vals


# Type name -> parser of the stripped text; numbers are split by spaces or
# commas, rows by semicolons ("2 0; -2 0").
VALUE_TYPES = {
    "str": str,
    "int": int,
    "float": float,
    "floats": _floats,
    "rows": lambda raw: [_floats(part) for part in raw.split(";")],
}


def _parse_value(section, key, kind, raw):
    raw = raw.strip()
    parse = VALUE_TYPES[kind]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {kind}") from None


def _read_section(cp, name, known):
    if not cp.has_section(name):
        return {}
    out = {}
    for key, raw in cp.items(name):
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        out[key] = _parse_value(name, key, known[key], raw)
    return out


def read_ini(path):
    """Parse an INI file into per-section typed dicts.

    Raises:
        ConfigError: unreadable file, malformed INI, unknown section or
            key, or a value that does not parse as its declared type.
    """
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_string(fh.read(), source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    return {name: _read_section(cp, name, keys) for name, keys in _SECTIONS.items()}


def target_from_config(sections):
    """Build the target of [target], with its [target.regularity] declaration."""
    opts = dict(sections.get("target", {}))
    if "kind" not in opts:
        raise ConfigError("config has no [target] section with a kind")
    reg = sections.get("target.regularity", {})
    if reg:
        if "gamma" not in reg or "xi" not in reg:
            raise ConfigError("[target.regularity] needs both gamma and xi")
        opts["regularity"] = reg
    return build_target(opts)


def sampler_from_config(sections, overrides=None):
    """Build the SamplerConfig from [run], with CLI overrides winning.

    Args:
        sections: dict from read_ini (or a compatible literal).
        overrides: optional {key: value} with the same keys as [run];
            None values are ignored.

    Raises:
        ConfigError: no seed anywhere, an unknown override key, or an
            eps_rule that is no rule.
        ValueError: a setting out of range, a fixed eps outside (0, 1) too.
    """
    run = {**_RUN_DEFAULTS, **sections.get("run", {})}
    for key, value in (overrides or {}).items():
        if key not in RUN_KEYS:
            raise ConfigError(f"unknown run setting {key!r}")
        if value is not None:
            run[key] = value
    if "seed" not in run:
        raise ConfigError("no seed: set seed under [run] or pass --seed")
    return SamplerConfig(eps=EpsSchedule.parse(str(run.pop("eps_rule"))), **run)


def ula_from_config(sections):
    """Extract Langevin baseline settings, or raise if they are missing."""
    ula = sections.get("ula", {})
    if "step_size" not in ula or "burn_in" not in ula:
        raise ConfigError("comparison needs [ula] with step_size and burn_in")
    return {key: ula[key] for key in _ULA_KEYS}


def plan_from_config(sections, target, base):
    """Build an ExperimentPlan from [plan] around a built target and a base SamplerConfig."""
    plan = sections.get("plan", {})
    if "axis" not in plan or "values" not in plan:
        raise ConfigError("sweep needs [plan] with axis and values")
    try:
        return ExperimentPlan(target=target, base=base, **plan)
    except ValueError as exc:
        raise ConfigError(f"[plan]: {exc}") from None


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        sep = "; " if value and isinstance(value[0], (list, tuple)) else " "
        return sep.join(_fmt(v) for v in value)
    return str(value)


def write_resolved_ini(path, target, config, ula=None, plan=None):
    """Write the fully resolved settings as an INI that parses back losslessly.

    The [target] section is rebuilt from target.params, so what lands on
    disk is what build_target actually constructed, not what the user
    typed. Sections given as None are left out, and so are keys whose
    value is None.

    Raises:
        ValueError: the target is not of a kind build_target rebuilds, such
            as a from_potential or regularized target.
    """
    kind = target.params.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"resolved.ini cannot rebuild a target of kind {kind!r}")
    reg = target.regularity
    sections = {
        "target": dict(sorted(target.params.items())),
        "target.regularity": None if reg is None else reg.describe(),
        "run": {
            key: str(config.eps) if key == "eps_rule" else getattr(config, key)
            for key in RUN_KEYS
        },
        "ula": None if ula is None else {
            "step_size": check_real("step_size", ula["step_size"], low=0.0),
            "burn_in": check_int("burn_in", ula["burn_in"], minimum=0),
        },
        "plan": None if plan is None else {key: getattr(plan, key) for key in _PLAN_KEYS},
    }
    text = "\n\n".join(
        "\n".join(
            [f"[{name}]"]
            + [f"{key} = {_fmt(value)}" for key, value in values.items() if value is not None]
        )
        for name, values in sections.items()
        if values is not None
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return path
