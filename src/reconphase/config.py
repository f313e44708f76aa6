"""Run-configuration loading, validation, and resolution.

A run configuration is a JSON document with four optional blocks around
a required ``system`` block::

    {
      "system":      {"kind": "ball", "profile": [0.0, 0.5], ...},
      "integration": {"rtol": 1e-10, "atol": 1e-12, ...},
      "sampling":    {"seed": 7, "count": 20},
      "initial_state": {"a": [0.9, -0.2], "a_dot": [0.1, 0.35], "w": 0.4},
      "output":      {"dir": "out"}
    }

``_RULES`` holds one table per ``system.kind``, mapping each key of each
block to the rule its value must meet, and ``_REQUIRED`` names the keys
the kind needs.  An unknown block or key is an error, and so is a key
of the other kind.  A number is a JSON integer or float no larger in
magnitude than the largest float: ``true``, ``NaN``, ``Infinity`` and
literals that overflow (``1e400``, a 401-digit integer) are not numbers.  ``sampling.seed`` is an integer in
``[0, 2**64)`` and ``sampling.count`` an integer >= 1.  The first
violation is a :class:`ConfigError` that names its ``$.block.key`` path.

The ``integration`` keys are the fields of
:class:`~reconphase.dynsys.IntegrationDefaults`.  Resolution order for
them (later wins): built-in defaults, config file, environment variables
(``RECONPHASE_RTOL``, ``RECONPHASE_ATOL``, ``RECONPHASE_TOL_CLOSURE``,
``RECONPHASE_TOL_PHASE``).  Every integration setting, from the file or
the environment, must be a number > 0.
The command line sets no tolerance: its ``--seed`` and ``--out`` flags
override ``sampling.seed`` and ``output.dir``.  Every command embeds the
fully resolved configuration in its output for provenance.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, fields
from typing import Optional

from .dynsys import (
    BALL,
    IntegrationDefaults,
    PhasePoint,
    RIGID,
    SurfaceProfile,
    SystemSpec,
    ball_point,
    make_ball_system,
    make_rigid_body,
    rigid_point,
)
from .errors import ConfigError
from .liegroup import Rotation


def _is_number(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# A rule is (test, what) for one value, or (min_len, max_len, rule) for
# an array whose every item meets the rule.
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a finite number > 0")

_KIND = (lambda v: v in (BALL, RIGID), f"{BALL!r} or {RIGID!r}")
_QUAT = (4, 4, _NUMBER)
_SHARED = {
    "integration": {f.name: _POSITIVE for f in fields(IntegrationDefaults)},
    "sampling": {
        "seed": (lambda v: type(v) is int and 0 <= v < 2**64,
                 "an integer, minimum 0, below 2**64"),
        "count": (lambda v: type(v) is int and v >= 1, "an integer, minimum 1"),
    },
    "output": {"dir": (lambda v: type(v) is str, "a string")},
}

_RULES = {
    BALL: dict(
        _SHARED,
        system={"kind": _KIND, "profile": (1, 8, _NUMBER), "gravity": _POSITIVE,
                "mass": _POSITIVE, "inertia_ratio": _POSITIVE,
                "annulus": (2, 2, _POSITIVE)},
        initial_state={"a": (2, 2, _NUMBER), "a_dot": (2, 2, _NUMBER),
                       "w": _NUMBER, "quat": _QUAT},
    ),
    RIGID: dict(
        _SHARED,
        system={"kind": _KIND, "inertia": (3, 3, _POSITIVE)},
        initial_state={"omega": (3, 3, _NUMBER), "quat": _QUAT},
    ),
}
_REQUIRED = {
    BALL: {"system": ("profile",), "initial_state": ("a", "a_dot")},
    RIGID: {"system": ("inertia",), "initial_state": ("omega",)},
}

_ENV_KNOBS = {
    "RECONPHASE_RTOL": "rtol",
    "RECONPHASE_ATOL": "atol",
    "RECONPHASE_TOL_CLOSURE": "tol_closure",
    "RECONPHASE_TOL_PHASE": "tol_phase",
}


def load_config(path: str) -> dict:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {e.lineno}): {e.msg}"
        ) from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ConfigError(f"config {path!r}: {e}") from e
    _check_rules(raw, path)
    return raw


def _check_rules(raw, path: str):
    def invalid(where, problem):
        return ConfigError(f"config {path!r}: {where} {problem}")

    if type(raw) is not dict:
        raise invalid("$", "is not an object")
    if "system" not in raw:
        raise invalid("$.system", "is required")
    if type(raw["system"]) is not dict:
        raise invalid("$.system", "is not an object")
    if "kind" not in raw["system"]:
        raise invalid("$.system.kind", "is required")
    kind = raw["system"]["kind"]
    test, what = _KIND
    if not test(kind):
        raise invalid("$.system.kind", f"is not {what}")
    required = _REQUIRED[kind]
    for block, values in raw.items():
        rules = _RULES[kind].get(block)
        if rules is None:
            raise invalid(f"$.{block}", "is not a config block")
        if type(values) is not dict:
            raise invalid(f"$.{block}", "is not an object")
        whose = f"{block} for kind {kind!r}" if block in required else block
        for key, value in values.items():
            where = f"$.{block}.{key}"
            rule = rules.get(key)
            if rule is None:
                raise invalid(where, f"is not a key of {whose}")
            items = {where: value}
            if len(rule) == 3:
                n_min, n_max, rule = rule
                if type(value) is not list or not n_min <= len(value) <= n_max:
                    size = n_min if n_min == n_max else f"{n_min} to {n_max}"
                    raise invalid(where, f"is not an array of {size} items")
                items = {f"{where}[{i}]": v for i, v in enumerate(value)}
            test, what = rule
            for at, v in items.items():
                if not test(v):
                    raise invalid(at, f"is not {what}")
        for key in required.get(block, ()):
            if key not in values:
                raise invalid(f"$.{block}.{key}", f"is required for kind {kind!r}")


def resolve_config(raw: dict, seed: Optional[int] = None,
                   out_dir: Optional[str] = None, env=None) -> dict:
    """Merge defaults, the config file, environment overrides, and CLI
    flags into one fully explicit configuration dictionary."""
    env = os.environ if env is None else env
    integ = asdict(IntegrationDefaults())
    integ.update(raw.get("integration", {}))
    test, what = _POSITIVE
    for var, knob in _ENV_KNOBS.items():
        if var in env:
            try:
                value = float(env[var])
            except ValueError:
                value = None
            if not test(value):
                raise ConfigError(f"{var}={env[var]!r} is not {what}")
            integ[knob] = value

    sampling = {"seed": 0, "count": 20}
    sampling.update(raw.get("sampling", {}))
    if seed is not None:
        sampling["seed"] = int(seed)

    output = dict(raw.get("output", {}))
    if out_dir is not None:
        output["dir"] = out_dir
    output.setdefault("dir", ".")

    resolved = {
        "system": dict(raw["system"]),
        "integration": integ,
        "sampling": sampling,
        "output": output,
    }
    if "initial_state" in raw:
        resolved["initial_state"] = dict(raw["initial_state"])
    return resolved


def build_system(resolved: dict) -> SystemSpec:
    """Construct the SystemSpec a resolved configuration describes.  Only
    the keys the file gives are passed, so the defaults stay those of
    SurfaceProfile and make_ball_system."""
    block = dict(resolved["system"])
    defaults = IntegrationDefaults(**resolved["integration"])
    if block.pop("kind") == RIGID:
        return make_rigid_body(block["inertia"], defaults=defaults)
    extra = {"annulus": tuple(block.pop("annulus"))} if "annulus" in block else {}
    profile = SurfaceProfile(tuple(block.pop("profile")), **block)
    return make_ball_system(profile, defaults=defaults, **extra)


def build_initial_state(resolved: dict, spec: SystemSpec) -> PhasePoint:
    """The phase point of ``initial_state``, or a ConfigError naming it."""
    if "initial_state" not in resolved:
        raise ConfigError("this command requires an initial_state block")
    state = resolved["initial_state"]
    quat = state.get("quat")
    try:
        Q = Rotation(quat) if quat is not None else Rotation.identity()
    except ValueError as e:
        raise ConfigError(f"$.initial_state.quat is not a rotation: {e}") from e
    try:
        if spec.kind == BALL:
            return ball_point(spec, state["a"], state["a_dot"], Q, state.get("w", 0.0))
        return rigid_point(spec, Q, state["omega"])
    except ValueError as e:
        raise ConfigError(f"$.initial_state is not a phase point: {e}") from e
