"""Outside-in tracing of the reconphase layers for the benchmark.

The tracer wraps the package's public functions at each layer boundary
from the outside: it replaces module attributes and a few class
attributes while installed and restores them afterwards.  The package
binds names with ``from .x import y``, so each function is replaced at
every module that imports it; a name that a module no longer has is
skipped and listed in ``Tracer.missing``.

Two kinds of wrapper exist:

* span wrappers (calls that do a unit of work: ``phase()``, the marcher
  period search, ``flow()``, the chart, each check, the oracle) record
  one span each: id, name, parent span id, item id, start, end, and the
  time covered by the span's children;
* leaf wrappers (hot calls made tens of thousands of times per second:
  ``SystemSpec.rhs``, ``act``) only add to a call count and a busy time,
  charged to the enclosing span as child time; ``SystemSpec.unpack`` and
  ``Rotation.__init__`` are only counted.

A span's self time is its duration minus its children's spans and leaf
time.  Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    start: float
    end: float
    child_s: float
    ok: bool
    extra: dict

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Spans and counters recorded at the package's layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # open spans: [id, name, parent, start, child_s]
        self._next_id = 0
        self.calls: dict[str, int] = {}
        self.busy_s: dict[str, float] = {}
        self.item: str | None = None
        self.tau: float | None = None  # tau of the item's latest phase()
        self.missing: list[str] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def begin_item(self, item: str):
        self.item = item
        self.tau = None

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, ok: bool, extra: dict | None = None):
        end = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][4] += end - frame[3]
        self.spans.append(
            Span(frame[0], frame[1], frame[2], self.item, frame[3], end,
                 frame[4], ok, extra or {})
        )

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` may return extra fields for it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(frame, False)
                raise
            extra = after(args, kwargs, result) if after is not None else None
            self.close(frame, True, extra)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot function: count calls and busy time only."""
        calls, busy, stack = self.calls, self.busy_s, self._stack
        calls.setdefault(name, 0)
        busy.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                calls[name] += 1
                busy[name] += dt
                if stack:
                    stack[-1][4] += dt

        return wrapper

    def counter(self, name: str, fn):
        """Wrap a function: count calls only."""
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, targets, make):
        """Replace each present ``(owner, attr)`` by ``make(original)``;
        one wrapper per distinct original object."""
        wrapped = {}
        for owner, attr in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            setattr(owner, attr, wrapped[id(original)])
            self._undo.append((owner, attr, original))

    def install(self):
        from reconphase import cli, config, dynsys, integrate, liegroup
        from reconphase import reconstruct, verify

        self.missing = []

        def flow_after(args, kwargs, result):
            t = kwargs["t"] if "t" in kwargs else args[2]
            return {"horizon_tau": abs(t) / self.tau if self.tau else 0.0}

        def phase_after(args, kwargs, result):
            self.tau = result.tau
            traj = getattr(result, "_trajectory", None)
            return {"rhs_evals": getattr(traj, "n_rhs_evals", 0)}

        def search_after(args, kwargs, result):
            traj = result[1]
            return {
                "accepted": traj.n_accepted,
                "rejected": traj.n_rejected,
                "rhs_evals": traj.n_rhs_evals,
            }

        def sampler_after(args, kwargs, result):
            return {"kept": len(result)}

        def span(name, after=None):
            return lambda fn: self.span(name, fn, after)

        self._patch([(dynsys.SystemSpec, "rhs")],
                    lambda fn: self.leaf("dynsys.rhs", fn))
        self._patch([(m, "act") for m in (dynsys, reconstruct, verify, cli)],
                    lambda fn: self.leaf("dynsys.act", fn))
        self._patch([(dynsys.SystemSpec, "unpack")],
                    lambda fn: self.counter("dynsys.unpack", fn))
        self._patch([(liegroup.Rotation, "__init__")],
                    lambda fn: self.counter("liegroup.rotation", fn))
        self._patch([(integrate, "_period_search"), (reconstruct, "_period_search")],
                    span("integrate.period_search", search_after))
        self._patch([(m, "flow") for m in (integrate, reconstruct, verify, cli)],
                    span("integrate.flow", flow_after))
        self._patch([(m, "phase") for m in (reconstruct, verify, cli)],
                    span("reconstruct.phase", phase_after))
        self._patch([(reconstruct, "torus_embed"), (reconstruct, "flower_frame"),
                     (verify, "torus_embed"), (verify, "flower_frame"),
                     (cli, "torus_embed")],
                    span("reconstruct.chart"))
        self._patch([(reconstruct, "reduced_orbit_distance"),
                     (verify, "reduced_orbit_distance")],
                    span("reconstruct.orbit_distance"))
        self._patch([(reconstruct, "same_petal"), (verify, "same_petal")],
                    span("reconstruct.same_petal"))
        self._patch([(verify, "sample_points"), (cli, "sample_points")],
                    span("verify.sampler", sampler_after))
        self._patch([(verify, "montgomery_oracle")], span("verify.oracle"))
        self._patch([(verify, "momentum_loop_area")], span("verify.loop_area"))
        self._patch([(config, "load_config")], span("config.load"))
        self._patch([(cli, "_write_text")], span("cli.write"))
        checks = verify.ALL_CHECKS
        for name, fn in list(checks.items()):
            checks[name] = self.span(f"verify.check.{name}", fn)
            self._undo.append((checks, name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output --------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        """Freeze the spans and counters recorded so far."""
        return Snapshot(list(self.spans), dict(self.calls), dict(self.busy_s))

    def write(self, path):
        """Write every span (one JSON object per line) and the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": self.calls, "busy_s": self.busy_s,
                                 "missing": self.missing}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "item": s.item, "start": s.start, "end": s.end,
                    "self_s": s.self_s, "ok": s.ok, **s.extra,
                }) + "\n")


@dataclass
class Snapshot:
    spans: list
    calls: dict
    busy_s: dict

    def __post_init__(self):
        self._by_id = {s.id: s for s in self.spans}

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def under(self, span: Span, ancestor: str) -> bool:
        parent = span.parent
        while parent is not None:
            p = self._by_id[parent]
            if p.name == ancestor:
                return True
            parent = p.parent
        return False


def _pct_ms(spans, q) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([s.dur for s in spans], q)) * 1e3


def layer_metrics(snap: Snapshot, n_items: int) -> dict:
    """The per-layer metrics of one traced prefix, by name -> (value, unit).

    ``n_items`` is the number of workload items (sweep rows, chart
    points, verified samples, oracle orbits) the prefix attempted.
    """
    def total(spans, attr="dur"):
        return float(sum(getattr(s, attr) for s in spans))

    phase = snap.named("reconstruct.phase")
    search = snap.named("integrate.period_search")
    flow = snap.named("integrate.flow")
    chart = snap.named("reconstruct.chart")
    dist = snap.named("reconstruct.orbit_distance")
    sampler = snap.named("verify.sampler")
    sampled_phase = [s for s in phase if snap.under(s, "verify.sampler")]
    kept = sum(s.extra.get("kept", 0) for s in sampler)
    search_evals = sum(s.extra.get("rhs_evals", 0) for s in search)

    m = {
        "dynsys.rhs_calls": (snap.calls.get("dynsys.rhs", 0), "count"),
        "dynsys.rhs_self_s": (snap.busy_s.get("dynsys.rhs", 0.0), "s"),
        "dynsys.act_calls": (snap.calls.get("dynsys.act", 0), "count"),
        "dynsys.act_self_s": (snap.busy_s.get("dynsys.act", 0.0), "s"),
        "dynsys.unpack_calls": (snap.calls.get("dynsys.unpack", 0), "count"),
        "liegroup.rotation_objects": (snap.calls.get("liegroup.rotation", 0), "count"),
        "integrate.period_search_calls": (len(search), "count"),
        "integrate.period_search_self_s": (total(search, "self_s"), "s"),
        "integrate.steps_accepted": (sum(s.extra.get("accepted", 0) for s in search), "count"),
        "integrate.steps_rejected": (sum(s.extra.get("rejected", 0) for s in search), "count"),
        "integrate.rhs_evals_per_phase": (search_evals / len(search) if search else 0.0, "count"),
        "integrate.flow_calls": (len(flow), "count"),
        "integrate.flow_self_s": (total(flow, "self_s"), "s"),
        "integrate.flow_horizon_tau": (sum(s.extra.get("horizon_tau", 0.0) for s in flow), "tau"),
        "reconstruct.phase_calls": (len(phase), "count"),
        "reconstruct.phase_self_s": (total(phase, "self_s"), "s"),
        "reconstruct.phase_p50_ms": (_pct_ms(phase, 50), "ms"),
        "reconstruct.phase_p95_ms": (_pct_ms(phase, 95), "ms"),
        "reconstruct.phase_calls_per_sample": (len(phase) / n_items if n_items else 0.0, "ratio"),
        "reconstruct.chart_calls": (len(chart), "count"),
        "reconstruct.chart_self_s": (total(chart, "self_s"), "s"),
        "reconstruct.chart_p50_ms": (_pct_ms(chart, 50), "ms"),
        "reconstruct.chart_p95_ms": (_pct_ms(chart, 95), "ms"),
        "reconstruct.orbit_distance_calls": (len(dist), "count"),
        "reconstruct.orbit_distance_self_s": (total(dist, "self_s"), "s"),
        "reconstruct.same_petal_self_s": (total(snap.named("reconstruct.same_petal"), "self_s"), "s"),
        "verify.sampler_s": (total(sampler), "s"),
        "verify.sampler_accept_ratio": (kept / len(sampled_phase) if sampled_phase else 0.0, "ratio"),
        "verify.oracle_s": (total(snap.named("verify.oracle")), "s"),
        "verify.loop_area_s": (total(snap.named("verify.loop_area")), "s"),
        "cli.write_s": (total(snap.named("cli.write")), "s"),
    }
    for name in CHECK_NAMES:
        m[f"verify.check.{name}_s"] = (total(snap.named(f"verify.check.{name}")), "s")
    return m


# the checks `reconphase verify --checks all` runs
CHECK_NAMES = (
    "phase_conserved",
    "equivariance",
    "linearization",
    "flower_invariants",
    "delta_integral",
    "frequency_flower_constancy",
    "vf_invariance",
)
