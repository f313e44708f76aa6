"""Run-configuration loading, schema validation, and resolution.

A run configuration is a JSON document with four optional blocks around
a required ``system`` block::

    {
      "system":      {"kind": "ball", "profile": [0.0, 0.5], ...},
      "integration": {"rtol": 1e-10, "atol": 1e-12, ...},
      "sampling":    {"seed": 7, "count": 20},
      "initial_state": {"a": [0.9, -0.2], "a_dot": [0.1, 0.35], "w": 0.4},
      "output":      {"dir": "out"}
    }

The ``integration`` keys are the fields of
:class:`~reconphase.dynsys.IntegrationDefaults`.  Resolution order for
them (later wins): built-in defaults, config file, environment variables
(``RECONPHASE_RTOL``, ``RECONPHASE_ATOL``, ``RECONPHASE_TOL_CLOSURE``,
``RECONPHASE_TOL_PHASE``).  Every number in the file must be finite, and
every integration setting, from the file or the environment, finite and
positive; anything else is a :class:`ConfigError`.
The command line sets no tolerance: its ``--seed`` and ``--out`` flags
override ``sampling.seed`` and ``output.dir``.  Every command embeds the
fully resolved configuration in its output for provenance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from typing import Optional

import numpy as np
from jsonschema import Draft202012Validator

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

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["system"],
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": [BALL, RIGID]},
                "profile": {
                    "type": "array",
                    "items": _NUMBER,
                    "minItems": 1,
                    "maxItems": 8,
                },
                "gravity": _POSITIVE,
                "mass": _POSITIVE,
                "inertia_ratio": _POSITIVE,
                "annulus": {
                    "type": "array",
                    "items": _POSITIVE,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "inertia": {
                    "type": "array",
                    "items": _POSITIVE,
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "integration": {
            "type": "object",
            "additionalProperties": False,
            "properties": {f.name: _POSITIVE for f in fields(IntegrationDefaults)},
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "count": {"type": "integer", "minimum": 1},
            },
        },
        "initial_state": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "a": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                "a_dot": {
                    "type": "array",
                    "items": _NUMBER,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "w": _NUMBER,
                "quat": {
                    "type": "array",
                    "items": _NUMBER,
                    "minItems": 4,
                    "maxItems": 4,
                },
                "omega": {
                    "type": "array",
                    "items": _NUMBER,
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}

_ENV_KNOBS = {
    "RECONPHASE_RTOL": "rtol",
    "RECONPHASE_ATOL": "atol",
    "RECONPHASE_TOL_CLOSURE": "tol_closure",
    "RECONPHASE_TOL_PHASE": "tol_phase",
}


def _guess_line(text: str, key: str) -> Optional[int]:
    """Best-effort line number of a key in the raw config text."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _finite_float(token: str) -> float:
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals
    such as ``1e400`` are rejected rather than read as non-finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def load_config(path: str) -> dict:
    """Read, parse, and schema-validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    try:
        raw = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {e.lineno}): {e.msg}"
        ) from e
    except ValueError as e:
        raise ConfigError(f"config {path!r}: {e}") from e
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for err in errors[:5]:
            path_keys = [str(k) for k in err.absolute_path]
            where = "$" + "".join(
                f"[{k}]" if k.isdigit() else f".{k}" for k in path_keys
            )
            line = _guess_line(text, path_keys[-1]) if path_keys else None
            loc = f" (near line {line})" if line else ""
            msgs.append(f"{where}{loc}: {err.message}")
        raise ConfigError(
            f"config {path!r} violates the schema:\n  " + "\n  ".join(msgs)
        )
    _check_cross_fields(raw, path)
    return raw


def _check_cross_fields(raw: dict, path: str):
    kind = raw["system"]["kind"]
    sys_block = raw["system"]
    if kind == BALL:
        if "profile" not in sys_block:
            raise ConfigError(f"config {path!r}: ball system requires system.profile")
        if "inertia" in sys_block:
            raise ConfigError(f"config {path!r}: system.inertia is rigid-only")
    else:
        if "inertia" not in sys_block:
            raise ConfigError(f"config {path!r}: rigid system requires system.inertia")
        for key in ("profile", "gravity", "mass", "inertia_ratio", "annulus"):
            if key in sys_block:
                raise ConfigError(f"config {path!r}: system.{key} is ball-only")
    state = raw.get("initial_state")
    if state is not None:
        if kind == BALL and not {"a", "a_dot"} <= set(state):
            raise ConfigError(
                f"config {path!r}: ball initial_state requires a and a_dot"
            )
        if kind == RIGID and "omega" not in state:
            raise ConfigError(
                f"config {path!r}: rigid initial_state requires omega"
            )
        if kind == RIGID and ("a" in state or "a_dot" in state or "w" in state):
            raise ConfigError(
                f"config {path!r}: a/a_dot/w in initial_state are ball-only"
            )


def resolve_config(raw: dict, seed: Optional[int] = None,
                   out_dir: Optional[str] = None, env=None) -> dict:
    """Merge defaults, the config file, environment overrides, and CLI
    flags into one fully explicit configuration dictionary."""
    env = os.environ if env is None else env
    integ = asdict(IntegrationDefaults())
    integ.update(raw.get("integration", {}))
    for var, knob in _ENV_KNOBS.items():
        if var in env:
            try:
                value = float(env[var])
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"{var}={env[var]!r} is not a finite positive number"
                )
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
    """Construct the SystemSpec a resolved configuration describes."""
    sys_block = resolved["system"]
    defaults = IntegrationDefaults(**resolved["integration"])
    if sys_block["kind"] == BALL:
        profile = SurfaceProfile(
            tuple(sys_block["profile"]),
            gravity=sys_block.get("gravity", 1.0),
            mass=sys_block.get("mass", 1.0),
            inertia_ratio=sys_block.get("inertia_ratio", 0.4),
        )
        return make_ball_system(
            profile,
            annulus=tuple(sys_block.get("annulus", (0.2, 2.5))),
            defaults=defaults,
        )
    return make_rigid_body(sys_block["inertia"], defaults=defaults)


def build_initial_state(resolved: dict, spec: SystemSpec) -> PhasePoint:
    if "initial_state" not in resolved:
        raise ConfigError("this command requires an initial_state block")
    state = resolved["initial_state"]
    quat = state.get("quat")
    Q = Rotation(np.asarray(quat, dtype=float)) if quat is not None else Rotation.identity()
    if spec.kind == BALL:
        return ball_point(
            spec, a=state["a"], a_dot=state["a_dot"], Q=Q, w=state.get("w", 0.0)
        )
    return rigid_point(spec, Q, state["omega"])
