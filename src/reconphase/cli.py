"""Command-line interface.

Five subcommands: ``simulate`` (trajectory CSV), ``phase`` (phase JSON),
``torus`` (torus-chart grid CSV with conjugacy residuals), ``verify``
(named checks, JSON verdicts), ``sweep`` (one-parameter family CSV).
File formats are frozen in ``docs/output-schema.md``.

Contract highlights:
  * all writes are atomic (temp file + rename) and deterministic: the
    same config and seed produce byte-identical output (floats use
    shortest round-trip repr, JSON keys are sorted, no timestamps);
  * every output embeds the fully resolved configuration;
  * exit codes: 0 ok, 1 check failure, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import config as cfg
# act is unused here but stays importable: the benchmark tracer patches it
from .dynsys import BALL, PhasePoint, SystemSpec, act
from .errors import (
    ConfigError,
    PeriodNotFoundError,
    ReconphaseError,
)
# flow is unused here but stays importable: the benchmark tracer patches it
from .integrate import flow, flow_trajectory
from .liegroup import torus_rank
from .reconstruct import conjugacy_residuals, phase, torus_embed
from .verify import ALL_CHECKS, sample_points

# a period-continuity check needs a one-parameter family, not i.i.d.
# samples, so it is driven through `sweep` output rather than `verify`
CLI_CHECKS = tuple(k for k in ALL_CHECKS if k != "period_continuity")

_CHECK_TOLERANCES = {
    "phase_conserved": 5e-7,
    "equivariance": 5e-7,
    "linearization": 1e-6,
    "flower_invariants": 1e-6,
    "delta_integral": 1e-6,
    "frequency_flower_constancy": 1e-7,
    "vf_invariance": 5e-7,
}

TORUS_PROBE = 0.37  # flow fraction used for the grid conjugacy residual


def _u64(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _write_text(path: str, data: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: str, obj: dict):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _out_path(resolved: dict, filename: str) -> str:
    out_dir = resolved["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


def _config_echo(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True)


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(resolved: dict, name: str, spec: SystemSpec, meta, cols, rows) -> str:
    """Write ``{name}.csv`` in the v1 layout of ``docs/output-schema.md``:
    the format line, the system, one comment line per ``meta`` entry, the
    config echo, the header and the rows (strings as they are, numbers
    through ``_fmt``).  Returns the path."""
    buf = io.StringIO()
    buf.write(f"# reconphase {name} csv v1\n")
    buf.write(f"# system: {spec.kind}\n")
    for line in meta:
        buf.write(f"# {line}\n")
    buf.write(f"# config: {_config_echo(resolved)}\n")
    buf.write(",".join(cols) + "\n")
    for row in rows:
        buf.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")
    path = _out_path(resolved, f"{name}.csv")
    _write_text(path, buf.getvalue())
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(resolved: dict, t_end: float) -> int:
    spec = cfg.build_system(resolved)
    m0 = cfg.build_initial_state(resolved, spec)
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ConfigError("--t-end must be a positive finite time")
    traj = flow_trajectory(spec, m0, t_end)
    cols = ("t", *spec.state_columns(), *spec.invariant_names())
    rows = (
        [t, *y, *spec.invariants_y(y)] for t, y in zip(traj.times, traj.states)
    )
    path = _write_csv(resolved, "trajectory", spec, (), cols, rows)
    print(
        f"simulate: {len(traj.times)} nodes over t=[0, {_fmt(t_end)}] -> {path}"
    )
    return 0


def _relative_equilibrium_info(spec: SystemSpec, m: PhasePoint) -> dict:
    """Instantaneous steady-rotation axis and rate at a reduced
    equilibrium (spatial frame)."""
    if spec.kind == BALL:
        r2 = float(m.a @ m.a)
        rate = float(m.a[0] * m.a_dot[1] - m.a[1] * m.a_dot[0]) / r2 if r2 > 0 else 0.0
        axis = [0.0, 0.0, 1.0]
    else:
        omega = m.omega_body
        rate = float(np.linalg.norm(omega))
        axis = list(m.Q.apply(omega / rate)) if rate > 0 else [0.0, 0.0, 1.0]
    return {"axis": axis, "rate": rate}


def cmd_phase(resolved: dict) -> int:
    spec = cfg.build_system(resolved)
    m0 = cfg.build_initial_state(resolved, spec)
    path = _out_path(resolved, "phase.json")
    try:
        p = phase(spec, m0)
    except PeriodNotFoundError as e:
        doc = {
            "config": resolved,
            "regular": False,
            "relative_equilibrium": _relative_equilibrium_info(spec, m0),
            "reason": str(e),
            "phase": None,
        }
        _write_json(path, doc)
        info = doc["relative_equilibrium"]
        print(
            "phase: relative equilibrium (regular=false), steady rate "
            f"{_fmt(info['rate'])} -> {path}"
        )
        return 0
    doc = {"config": resolved, "regular": p.regular, "phase": p.to_dict()}
    _write_json(path, doc)
    print(f"phase: regular={str(p.regular).lower()} tau={_fmt(p.tau)} -> {path}")
    return 0


def cmd_torus(resolved: dict, grid: int) -> int:
    if grid < 1:
        raise ConfigError("--grid must be >= 1")
    spec = cfg.build_system(resolved)
    m0 = cfg.build_initial_state(resolved, spec)
    p = phase(spec, m0)
    if not p.regular:
        raise ConfigError(
            "torus chart requires a regular phase (conjugate the initial "
            "state away from the symmetry axis)"
        )
    rank = p.eta.size
    ticks = [i / grid for i in range(grid)]
    beta_cols = [f"beta_{j + 1}" for j in range(rank)]
    cols = ["alpha", *beta_cols, *spec.state_columns(), "conjugacy_residual"]
    points = [
        (alpha, beta, torus_embed(spec, p, alpha, beta))
        for alpha in ticks
        for beta in map(np.array, itertools.product(ticks, repeat=rank))
    ]
    residuals = conjugacy_residuals(spec, p, points, [TORUS_PROBE])[:, 0]
    rows = (
        [alpha, *beta, *x.y, resid]
        for (alpha, beta, x), resid in zip(points, residuals)
    )
    meta = (f"torus rank: {rank + 1}", f"flow probe fraction: {_fmt(TORUS_PROBE)}")
    path = _write_csv(resolved, "torus", spec, meta, cols, rows)
    print(
        f"torus: {len(points)} grid points, max conjugacy residual "
        f"{residuals.max():.3e} -> {path}"
    )
    return 0


def cmd_verify(resolved: dict, checks, strict: bool) -> int:
    unknown = [c for c in checks if c not in CLI_CHECKS]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; available: {', '.join(CLI_CHECKS)} "
            "(period continuity is a family property: export a family with "
            "`sweep` and use reconphase.verify.check_period_continuity)"
        )
    spec = cfg.build_system(resolved)
    seed = resolved["sampling"]["seed"]
    count = resolved["sampling"]["count"]
    reports = []
    if checks:
        rng = np.random.default_rng(seed)
        samples = sample_points(spec, rng, count)
        for name in checks:
            report = ALL_CHECKS[name](
                spec, samples, _CHECK_TOLERANCES[name], seed=seed
            )
            reports.append(report)

    statuses = [r.verdict for r in reports]
    failed = statuses.count("fail")
    inconclusive = statuses.count("inconclusive")
    ok = failed == 0 and (not strict or inconclusive == 0)
    doc = {
        "config": resolved,
        "strict": strict,
        "reports": [r.to_dict() for r in reports],
        "all_passed": ok,
    }
    path = _out_path(resolved, "verify.json")
    _write_json(path, doc)
    print(
        f"verify: {statuses.count('pass')}/{len(reports)} passed "
        f"({failed} failed, {inconclusive} inconclusive) -> {path}"
    )
    return 0 if ok else 1


_BALL_SWEEP_PARAMS = ("w", "speed_scale", "radius_scale")
_RIGID_SWEEP_PARAMS = ("omega_scale", "omega1", "omega2", "omega3")


def _sweep_state(kind: str, base: dict, param: str, value: float) -> dict:
    state = dict(base)
    if kind == BALL:
        if param == "w":
            state["w"] = value
        elif param == "speed_scale":
            state["a_dot"] = [value * x for x in base["a_dot"]]
            state["w"] = value * base.get("w", 0.0)
        else:  # radius_scale
            state["a"] = [value * x for x in base["a"]]
    else:
        if param == "omega_scale":
            state["omega"] = [value * x for x in base["omega"]]
        else:
            i = int(param[-1]) - 1
            omega = list(base["omega"])
            omega[i] = value
            state["omega"] = omega
    return state


def cmd_sweep(resolved: dict, param: str, values) -> int:
    spec = cfg.build_system(resolved)
    valid = _BALL_SWEEP_PARAMS if spec.kind == BALL else _RIGID_SWEEP_PARAMS
    if param not in valid:
        raise ConfigError(
            f"sweep parameter {param!r} not valid for a {spec.kind} system; "
            f"choose one of: {', '.join(valid)}"
        )
    if "initial_state" not in resolved:
        raise ConfigError("sweep requires an initial_state block as the base point")
    cfg.build_initial_state(resolved, spec)  # an invalid base point exits 2
    base = resolved["initial_state"]

    rank = torus_rank(spec.group)
    freq_cols = [f"freq_{j}" for j in range(rank + 1)]
    eta_cols = [f"eta_{j + 1}" for j in range(rank)]
    cols = [
        "value",
        "status",
        "tau",
        *freq_cols,
        *eta_cols,
        "delta_x",
        "delta_y",
        "delta_z",
        "closure_residual",
        "defining_residual",
    ]
    n_numeric = len(cols) - 2

    n_ok = 0
    taus = []
    rows = []
    for value in values:
        state = _sweep_state(spec.kind, base, param, float(value))
        row_cfg = dict(resolved, initial_state=state)
        try:
            m = cfg.build_initial_state(row_cfg, spec)
            p = phase(spec, m)
        except ReconphaseError as e:
            rows.append([value, type(e).__name__] + [math.nan] * n_numeric)
            continue
        if p.regular:
            n_ok += 1
            status, torus = "ok", [*p.frequencies, *p.eta, *p.delta_rep]
        else:
            # frequencies past 1/tau, eta and delta need a regular phase
            status, torus = "singular", [1.0 / p.tau] + [math.nan] * (2 * rank + 3)
        taus.append(p.tau)
        rows.append([value, status, p.tau, *torus,
                     p.residuals["closure"], p.residuals["defining"]])

    path = _write_csv(resolved, "sweep", spec, (f"parameter: {param}",), cols, rows)
    n = len(values)
    span = f"tau in [{min(taus):.6g}, {max(taus):.6g}]" if taus else "no periods found"
    print(f"sweep: {n_ok}/{n} points regular, {span} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _parse_values(text: str):
    """lo:hi:n (inclusive linspace) or a comma-separated list; every
    value, given or generated, must be finite."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("--values expects lo:hi:n")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 2:
            raise argparse.ArgumentTypeError("--values needs n >= 2")
        values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    else:
        values = [float(tok) for tok in text.split(",") if tok]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"--values {text} gives a value that "
                                         "is not finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="run-configuration JSON file")
    common.add_argument("--seed", type=_u64, default=None, metavar="U64",
                        help="override sampling.seed")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="override output.dir")

    parser = argparse.ArgumentParser(
        prog="reconphase",
        description="Reconstruction phases, invariant tori and "
        "petal/flower geometry for symmetric flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the configured initial state")
    p.add_argument("--t-end", type=float, required=True, metavar="T",
                   help="integration horizon (> 0)")

    sub.add_parser("phase", parents=[common],
                   help="reduced period and reconstruction phase")

    p = sub.add_parser("torus", parents=[common],
                       help="torus-chart grid with conjugacy residuals")
    p.add_argument("--grid", type=int, default=3, metavar="N",
                   help="ticks per torus coordinate (default 3)")

    p = sub.add_parser("verify", parents=[common],
                       help="run named invariance checks")
    p.add_argument("--checks", default="all", metavar="LIST",
                   help="comma-separated check names, 'all', or '' for none")
    p.add_argument("--strict", action="store_true",
                   help="treat inconclusive checks as failures")

    p = sub.add_parser("sweep", parents=[common],
                       help="phase data along a one-parameter family")
    p.add_argument("--param", required=True, metavar="NAME",
                   help="family parameter (see docs/output-schema.md)")
    p.add_argument("--values", required=True, type=_parse_values,
                   metavar="LO:HI:N", help="lo:hi:n linspace or v1,v2,...")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = cfg.load_config(args.config)
        resolved = cfg.resolve_config(raw, seed=args.seed, out_dir=args.out)
        if args.command == "simulate":
            return cmd_simulate(resolved, args.t_end)
        if args.command == "phase":
            return cmd_phase(resolved)
        if args.command == "torus":
            return cmd_torus(resolved, args.grid)
        if args.command == "verify":
            if args.checks == "all":
                checks = list(CLI_CHECKS)
            else:
                checks = [tok for tok in args.checks.split(",") if tok]
            return cmd_verify(resolved, checks, args.strict)
        if args.command == "sweep":
            return cmd_sweep(resolved, args.param, args.values)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ReconphaseError as e:
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
