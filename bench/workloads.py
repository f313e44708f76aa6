"""Benchmark workloads: input generation, the timed calls, and the
correctness gate of every item.

A workload runs in rounds.  Round ``k`` is a fixed list of jobs, one per
system; each job is one CLI invocation on a generated config (the oracle
workload: one orbit through the oracle and through ``phase()``).  Round
inputs depend only on ``(seed, k)``, so two runs with the same seed make
the same inputs and must write byte-identical files.

Generation is the benchmark's own code: the program only ever receives
the generated config files, so a change to the package's samplers cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reconphase import cli, config, reconstruct, verify
from reconphase.dynsys import ball_point, rigid_point
from reconphase.liegroup import Rotation

TWO_PI = 2.0 * math.pi
E2 = np.array([0.0, 1.0, 0.0])

BALL_SYSTEM = {"kind": "ball", "profile": [0.0, 0.5]}
RIGID_SYSTEM = {"kind": "rigid", "inertia": [1.0, 2.0, 3.0]}
INERTIA = np.array(RIGID_SYSTEM["inertia"])

# Acceptance-suite bounds (tests/test_acceptance.py), not loosened.
TORUS_RESIDUAL_BOUND = 1e-6   # criterion 04
ORACLE_ANGLE_BOUND = 1e-6     # criterion 08, radians

SWEEP_VALUES = {"ball": ("w", "-0.6:0.6:12"), "rigid": ("omega_scale", "0.3:3:12")}
TORUS_GRID = {"ball": 3, "rigid": 5}
VERIFY_COUNT = 1
VERIFY_POOL_SEED = 0
VERIFY_POOL_SIZE = 5
ORACLE_DESIGN_SEED = 0
ORACLE_DESIGN_SIZE = 8


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def _rot2(angle, v):
    c, s = math.cos(angle), math.sin(angle)
    return [c * v[0] - s * v[1], s * v[0] + c * v[1]]


def _quat(rng) -> list:
    q = rng.normal(size=4)
    return list(q / np.linalg.norm(q))


def ball_state(rng) -> dict:
    """A ball initial state around the README config: contact radius
    0.7-1.1, speed 0.3-0.45, velocity turned up to 0.4 rad from the
    README direction, then a random circle rotation and attitude (exact
    symmetries).  Every sweep row in w in [-0.6, 0.6] of such a state has
    a regular phase; at speed 0.25, turned by -0.4 rad, w = -0.6 leaves
    the annulus."""
    r = rng.uniform(0.7, 1.1)
    speed = rng.uniform(0.3, 0.45)
    turn = rng.uniform(-0.4, 0.4)
    spin = rng.uniform(0.0, TWO_PI)
    a = np.array([0.9, -0.2]) / math.hypot(0.9, -0.2) * r
    v = np.array([0.1, 0.35]) / math.hypot(0.1, 0.35) * speed
    return {
        "a": _rot2(spin, a),
        "a_dot": _rot2(spin + turn, v),
        "w": float(rng.uniform(-0.6, 0.6)),
        "quat": _quat(rng),
    }


def _family_margin(u) -> float:
    return float(INERTIA[1] * (u @ (u / INERTIA)) - 1.0)


def rigid_state(rng) -> dict:
    """A rigid-body state drawn like ``verify.sample_rigid``: momentum
    direction uniform on the sphere, at least 0.35 from the middle axis
    and 0.12 in family margin from the separatrix; |L| in [0.8, 1.5]."""
    while True:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if min(np.linalg.norm(u - E2), np.linalg.norm(u + E2)) < 0.35:
            continue
        if abs(_family_margin(u)) < 0.12:
            continue
        L = rng.uniform(0.8, 1.5)
        return {"omega": list(L * u / INERTIA), "quat": _quat(rng)}


def oracle_state(seed: int, k: int) -> dict:
    """Orbit ``k`` of the oracle workload.

    The oracle's cost depends on the body-momentum direction alone
    (1.3-11 s per orbit on a 2.1 GHz 2-vCPU host), and only about eight
    orbits fit in a run, so directions come from a fixed design of
    ``ORACLE_DESIGN_SIZE`` draws of :func:`rigid_state`, cycled in order.  The seed draws an
    image of each under transformations that leave the cost unchanged:
    a random attitude, a momentum scale in [0.8, 1.25], a half turn
    about a principal axis and a time reversal.
    """
    design = rigid_state(np.random.default_rng([ORACLE_DESIGN_SEED, k % ORACLE_DESIGN_SIZE]))
    rng = np.random.default_rng([seed, k])
    flips = [np.ones(3), np.array([1, -1, -1]), np.array([-1, 1, -1]),
             np.array([-1, -1, 1])][rng.integers(4)]
    sign = 1.0 if rng.integers(2) else -1.0
    scale = rng.uniform(0.8, 1.25)
    omega = sign * scale * flips * np.array(design["omega"])
    return {"omega": list(omega), "quat": _quat(rng)}


def cli_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One timed call and its correctness gate."""

    system: str
    out_dir: Path
    call: Callable[[], object]
    gate: Callable[["Job"], tuple]     # -> (items attempted, items failed)
    config: dict
    # Jobs that share a stratum run the same input up to a cost-neutral
    # symmetry; rates average within a stratum first (see run.Tally.rate).
    stratum: str | None = None
    result: object = None

    def run(self):
        """Make the call; an exception is kept as the result, so the
        item counts as failed and the run goes on."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                self.result = self.call()
            except Exception as e:  # noqa: BLE001 - reported by the gate
                self.result = e

    def check(self) -> tuple:
        return self.gate(self)


def _write_config(out_dir: Path, doc: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _cli_job(system, out_dir, doc, argv, gate, stratum=None) -> Job:
    cfg_path = _write_config(out_dir, doc)
    full = [argv[0], "--config", str(cfg_path), "--out", str(out_dir), *argv[1:]]
    return Job(system, out_dir, lambda: cli.main(full), gate, doc, stratum)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    echo = next(ln for ln in lines if ln.startswith("# config: "))
    resolved = json.loads(echo[len("# config: "):])
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return resolved, rows


def _sweep_gate(n_values: int):
    def gate(job: Job) -> tuple:
        try:
            resolved, rows = _read_csv(job.out_dir / "sweep.csv")
        except (OSError, StopIteration, ValueError):
            return n_values, n_values
        if job.result != 0 or len(rows) != n_values:
            return n_values, n_values
        integ = resolved["integration"]
        spec = config.build_system(resolved)
        base = resolved["initial_state"]
        failed = 0
        for row in rows:
            value = float(row["value"])
            if job.system == "ball":
                m = ball_point(spec, base["a"], base["a_dot"], w=value)
            else:
                m = rigid_point(spec, Rotation.identity(), value * np.array(base["omega"]))
            scale = max(1.0, float(np.linalg.norm(spec.reduce_y(spec.pack(m)))))
            ok = (
                row["status"] == "ok"
                and float(row["closure_residual"]) < integ["tol_closure"] * scale
                and float(row["defining_residual"]) <= integ["tol_phase"]
            )
            failed += not ok
        return n_values, failed
    return gate


def _torus_gate(n_points: int):
    def gate(job: Job) -> tuple:
        try:
            _, rows = _read_csv(job.out_dir / "torus.csv")
        except (OSError, StopIteration, ValueError):
            return n_points, n_points
        if job.result != 0 or len(rows) != n_points:
            return n_points, n_points
        failed = sum(
            not float(r["conjugacy_residual"]) < TORUS_RESIDUAL_BOUND for r in rows
        )
        return n_points, failed
    return gate


def _verify_gate(job: Job) -> tuple:
    try:
        doc = json.loads((job.out_dir / "verify.json").read_text())
        verdicts = [r["verdict"] for r in doc["reports"]]
    except (OSError, ValueError, KeyError, TypeError):
        return VERIFY_COUNT, VERIFY_COUNT
    ok = (job.result == 0 and len(verdicts) == len(cli.CLI_CHECKS)
          and all(v == "pass" for v in verdicts))
    return VERIFY_COUNT, 0 if ok else VERIFY_COUNT


def _oracle_call(out_dir: Path):
    def call():
        resolved = config.resolve_config(config.load_config(str(out_dir / "config.json")))
        spec = config.build_system(resolved)
        m = config.build_initial_state(resolved, spec)
        predicted = verify.montgomery_oracle(spec.inertia, m)
        measured = verify.measured_rotation_angle(reconstruct.phase(spec, m), m)
        (out_dir / "oracle.json").write_text(
            json.dumps({"predicted": predicted, "measured": measured}) + "\n"
        )
        return predicted, measured
    return call


def _oracle_gate(job: Job) -> tuple:
    if not isinstance(job.result, tuple):
        return 1, 1
    predicted, measured = job.result
    err = abs((predicted - measured + math.pi) % TWO_PI - math.pi)
    return 1, 0 if err < ORACLE_ANGLE_BOUND else 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    item: str            # what one item is, for the printed metric names
    trace_rounds: int    # rounds in the traced prefix
    cycle: int           # rounds before every stratum has run once
    make_round: Callable[[int, int, Path], list]


def _sweep_round(seed: int, k: int, out: Path) -> list:
    rng = np.random.default_rng([seed, 1, k])
    jobs = []
    for system, state in (("ball", ball_state(rng)), ("rigid", rigid_state(rng))):
        param, values = SWEEP_VALUES[system]
        sysblock = BALL_SYSTEM if system == "ball" else RIGID_SYSTEM
        doc = {"system": sysblock, "initial_state": state}
        n = int(values.split(":")[2])
        jobs.append(_cli_job(system, out / system, doc,
                             ["sweep", "--param", param, f"--values={values}"],
                             _sweep_gate(n)))
    return jobs


def _torus_round(seed: int, k: int, out: Path) -> list:
    rng = np.random.default_rng([seed, 2, k])
    jobs = []
    for system, state, rank in (("ball", ball_state(rng), 2),
                                ("rigid", rigid_state(rng), 1)):
        grid = TORUS_GRID[system]
        sysblock = BALL_SYSTEM if system == "ball" else RIGID_SYSTEM
        doc = {"system": sysblock, "initial_state": state}
        jobs.append(_cli_job(system, out / system, doc,
                             ["torus", "--grid", str(grid)],
                             _torus_gate(grid ** (rank + 1))))
    return jobs


def _verify_round(seed: int, k: int, out: Path) -> list:
    """One ``verify --checks all`` per system on one sample.

    A sample costs 0.7-3 s to verify and about eight per system fit in a
    run, so fresh samples per seed left 17% of run-to-run spread.  The
    CLI sampling seeds instead cycle through a fixed pool of
    ``VERIFY_POOL_SIZE`` per system, from an offset the seed draws; the
    seed also scales the rigid body's inertia by a factor in [0.8, 1.25],
    which rescales time and leaves the sampled orbits and their cost
    unchanged.
    """
    i = (int(np.random.default_rng([seed, 3]).integers(VERIFY_POOL_SIZE)) + k) \
        % VERIFY_POOL_SIZE
    scale = float(np.random.default_rng([seed, 3, k]).uniform(0.8, 1.25))
    rigid = dict(RIGID_SYSTEM, inertia=[scale * x for x in RIGID_SYSTEM["inertia"]])
    jobs = []
    for j, (system, sysblock) in enumerate((("ball", BALL_SYSTEM), ("rigid", rigid))):
        doc = {"system": sysblock, "sampling": {"count": VERIFY_COUNT}}
        sampling_seed = cli_seed(np.random.default_rng([VERIFY_POOL_SEED, j, i]))
        jobs.append(_cli_job(system, out / system, doc,
                             ["verify", "--checks", "all", "--seed", str(sampling_seed)],
                             _verify_gate, stratum=f"pool{i}"))
    return jobs


def _oracle_round(seed: int, k: int, out: Path) -> list:
    doc = {"system": RIGID_SYSTEM, "initial_state": oracle_state(seed, k)}
    out_dir = out / "rigid"
    _write_config(out_dir, doc)
    return [Job("rigid", out_dir, _oracle_call(out_dir), _oracle_gate, doc,
                f"design{k % ORACLE_DESIGN_SIZE}")]


WORKLOADS = {
    "sweep": Workload("sweep", "orbits", 8, 1, _sweep_round),
    "torus": Workload("torus", "chart_points", 8, 1, _torus_round),
    "verify": Workload("verify", "samples_verified", 3, VERIFY_POOL_SIZE, _verify_round),
    "oracle": Workload("oracle", "oracle_orbits", 4, ORACLE_DESIGN_SIZE, _oracle_round),
}
