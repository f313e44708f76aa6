#!/usr/bin/env python3
"""reconphase benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--workload`` is one of sweep, torus, verify, oracle (see
``bench/METRICS.md`` for what each one loads and bypasses), or ``all``,
which runs each in its own process and prints one table.  The program is
imported from ``src/`` of the checkout and driven in this process,
single-threaded.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Outputs, the resolved configs, the seed and (traced)
the spans go to ``.bench_out/<workload>-seed<seed>/``.
"""

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned to one thread, and the tolerance overrides
# the program reads from the environment are dropped: the program gets
# only the generated configs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SCRUBBED_VARS = ("RECONPHASE_RTOL", "RECONPHASE_ATOL",
                 "RECONPHASE_TOL_CLOSURE", "RECONPHASE_TOL_PHASE")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "torus", "verify", "oracle")
SETUP_REPEATS = 3

# Machine speed on the benchmark's host moves by up to 2x within a minute
# (other tenants share the cores); its jitter decorrelates within about
# 0.2 s.  A fixed calibration kernel, the scipy DOP853 marcher the program
# itself uses, on the Euler equations, is run after every job for about
# CALIB_SHARE of the job's time.  Each job's time is rescaled by the mean
# kernel time before and after it, to a machine on which the kernel takes
# CALIB_REF_S (its typical duration on a quiet 2.1 GHz 2-vCPU host).  Raw
# times are kept in result.json and printed.
CALIB_REF_S = 0.02
CALIB_SHARE = 0.15
_INERTIA = (1.0, 2.0, 3.0)


def _euler(t, y):
    import numpy as np

    i1, i2, i3 = _INERTIA
    return np.array([(i2 - i3) * y[1] * y[2] / i1,
                     (i3 - i1) * y[2] * y[0] / i2,
                     (i1 - i2) * y[0] * y[1] / i3])


def kernel_s(seconds: float = 0.0) -> float:
    """Mean seconds of one calibration kernel run, over as many runs as
    fit in ``CALIB_SHARE * seconds`` (at least one)."""
    runs = [_kernel_once()]
    while sum(runs) < CALIB_SHARE * seconds:
        runs.append(_kernel_once())
    return statistics.mean(runs)


def _kernel_once() -> float:
    import numpy as np
    from scipy.integrate import DOP853

    t0 = time.perf_counter()
    solver = DOP853(_euler, 0.0, np.array([1.0, 0.2, 0.3]), t_bound=90.0,
                    rtol=1e-10, atol=1e-12)
    while solver.status == "running":
        solver.step()
    return time.perf_counter() - t0


# One fresh process: import the package and its CLI, then load, resolve
# and build the system of a config (what every CLI invocation pays first).
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reconphase.cli
from reconphase import config
t1 = time.perf_counter()
config.build_system(config.resolve_config(config.load_config(sys.argv[2])))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""


def measure_setup(config_path: Path) -> dict:
    """Median set-up over ``SETUP_REPEATS`` fresh processes, each rescaled
    to reference speed by the kernel timed around it."""
    runs, before = [], kernel_s(1.0)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = kernel_s(1.0)
        child = json.loads(proc.stdout.splitlines()[-1])
        child["total_s"] = child["import_s"] + child["config_s"]
        child["ref_s"] = child["total_s"] * 2.0 * CALIB_REF_S / (before + after)
        runs.append(child)
        before = after
    mid = sorted(runs, key=lambda r: r["ref_s"])[len(runs) // 2]
    return {"setup_s": mid["ref_s"], "setup_raw_s": mid["total_s"],
            "cli.import_s": mid["import_s"], "config.load_s": mid["config_s"]}


class Tally:
    """Per-job timings, items and failures.  Each job's time is also kept
    at reference speed, from the kernel timed before and after it."""

    def __init__(self):
        self.round_s = []
        self.records = []
        self._kernel = None

    def run_round(self, wl, seed, k, out, tracer=None):
        if self._kernel is None:
            self._kernel = kernel_s(1.0)
        total = 0.0
        for job in wl.make_round(seed, k, out / f"r{k}"):
            if tracer is not None:
                tracer.begin_item(f"{k}:{job.system}")
                frame = tracer.open(f"job.{wl.name}")
            t0 = time.perf_counter()
            job.run()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(frame, not isinstance(job.result, Exception))
            before, self._kernel = self._kernel, kernel_s(dt)
            items, failed = job.check()
            total += dt
            self.records.append({
                "round": k, "system": job.system, "seconds": dt,
                "ref_seconds": dt * 2.0 * CALIB_REF_S / (before + self._kernel),
                "items": items, "failed": failed, "stratum": job.stratum,
                "config": job.config})
            if isinstance(job.result, Exception):
                print(f"round {k} {job.system}: {type(job.result).__name__}: "
                      f"{job.result}", file=sys.stderr)
        self.round_s.append(total)

    @property
    def attempted(self) -> int:
        return sum(r["items"] for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(r["failed"] for r in self.records)

    @property
    def busy(self) -> float:
        return sum(self.round_s)

    @property
    def factor(self) -> float:
        """Reference-speed seconds per raw second over this tally."""
        return sum(r["ref_seconds"] for r in self.records) / self.busy

    def systems(self) -> list:
        return sorted({r["system"] for r in self.records})

    def strata(self, system=None, raw=False) -> dict:
        """Mean seconds and mean good items per stratum.  A job without a
        stratum is its own (fresh input every round), which makes the
        rates below plain totals; a stratum that repeats counts once, so a
        run that stops part way through a cycle keeps the cycle's mix."""
        groups = {}
        for r in self.records:
            if system is None or r["system"] == system:
                key = (r["system"], r["stratum"] or r["round"])
                groups.setdefault(key, []).append(r)
        field = "seconds" if raw else "ref_seconds"
        return {
            key: (statistics.mean(r[field] for r in rs),
                  statistics.mean(r["items"] - r["failed"] for r in rs))
            for key, rs in groups.items()
        }

    def rate(self, system=None, raw=False) -> float:
        """Good items per second, at reference speed unless ``raw``."""
        groups = self.strata(system, raw).values()
        return sum(n for _, n in groups) / sum(s for s, _ in groups)

    def wall_s(self) -> float:
        """Seconds of one round (a job per system) at reference speed."""
        groups = self.strata()
        n_rounds = len({key[1] for key in groups})
        return sum(s for s, _ in groups.values()) / n_rounds


def same_outputs(first: Path, second: Path) -> bool:
    """Byte-identical output files in two round directories."""
    for sys_dir in sorted(p for p in first.iterdir() if p.is_dir()):
        names = sorted(p.name for p in sys_dir.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(
            sys_dir, second / sys_dir.name, names, shallow=False)
        if mismatch or errors:
            print(f"outputs differ between runs: {sys_dir.name}: {mismatch + errors}",
                  file=sys.stderr)
            return False
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    out = Path(".bench_out") / f"{name}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # Round 0 once untimed: lazy set-up finishes, and its files are the
    # reference the measured round 0 must reproduce byte for byte.
    Tally().run_round(wl, seed, 0, out)
    (out / "r0").rename(out / "first")
    setup = measure_setup(out / "first" / sorted(os.listdir(out / "first"))[0] / "config.json")

    tally = Tally()
    if not trace:
        while tally.busy < seconds or len(tally.round_s) < wl.cycle:
            tally.run_round(wl, seed, len(tally.round_s), out)
    else:
        # The traced prefix alternates each round untraced and traced, so
        # drift in machine speed cancels out of the tracing overhead.
        reference, tracer = Tally(), Tracer()
        for k in range(wl.trace_rounds):
            reference.run_round(wl, seed, k, out)
            with tracer:
                tally.run_round(wl, seed, k, out, tracer)
        snap = tracer.snapshot()
        with tracer:
            while tally.busy < seconds or len(tally.round_s) < wl.cycle:
                tally.run_round(wl, seed, len(tally.round_s), out, tracer)
        tracer.write(out / "trace.jsonl")
        prefix_items = sum(r["items"] for r in tally.records
                           if r["round"] < wl.trace_rounds)
        traced_s = sum(r["ref_seconds"] for r in tally.records
                       if r["round"] < wl.trace_rounds)
        layers = layer_metrics(snap, prefix_items)
        layers["config.load_s"] = (setup["config.load_s"], "s")
        layers["cli.import_s"] = (setup["cli.import_s"], "s")
        layers["trace_overhead_frac"] = (
            traced_s / sum(r["ref_seconds"] for r in reference.records) - 1.0,
            "ratio")
        layers["bench.speed_factor"] = (tally.factor, "ratio")

    deterministic = same_outputs(out / "first", out / "r0")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "items_per_s": {"value": tally.rate(), "unit": "1/s"},
            "wall_s": {"value": tally.wall_s(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }
    checked = [tally, reference] if trace else [tally]
    failed = sum(t.n_failed for t in checked)
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": sum(t.attempted for t in checked),
        "failed": failed,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "deterministic": deterministic, "result": result,
        "speed_factor": tally.factor, "setup_raw_s": setup["setup_raw_s"],
        "items_per_raw_s": tally.rate(raw=True),
        "rounds": tally.records}, indent=1) + "\n")
    print_summary(wl, seed, tally, result, trace)
    return result


def print_summary(wl, seed, tally, result, trace):
    rounds = len(tally.round_s)
    print(f"workload {wl.name}  seed {seed}  rounds {rounds}  "
          f"busy {tally.busy:.2f} s  trace {int(trace)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        per_system = tally.systems()
        for s in per_system:
            label = wl.item + "_per_s" + ("" if len(per_system) == 1 else f".{s}")
            print(f"  {label:<42} {tally.rate(s):>14.6g} 1/s")
        frac = tally.n_failed / tally.attempted
        print(f"  {'failed_frac':<42} {frac:>14.6g} ratio  "
              f"({tally.n_failed}/{tally.attempted} {wl.item})")
        print(f"  {'items_per_raw_s':<42} {tally.rate(raw=True):>14.6g} 1/s  "
              f"(speed factor {tally.factor:.4f})")
        print(f"  (times are at reference speed; wall_s is one round, one job "
              f"per system; {rounds} rounds)")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed (exit {proc.returncode})")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy loads (workloads import it), and inherited by children
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in SCRUBBED_VARS:
        os.environ.pop(var, None)

    if not (SRC / "reconphase" / "__init__.py").is_file():
        print(f"no reconphase sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import reconphase
    if Path(reconphase.__file__).resolve().parent != SRC / "reconphase":
        print(f"reconphase imported from {reconphase.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
