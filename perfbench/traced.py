"""The traced per-layer run.

It drives the op sequences of the timed workloads once more, step by step
through each layer's public functions, and records harness-owned spans
(name, start, end, parent) around every call.  A layer's figure is the
median self time of its span: the span's duration minus the part covered
by its child spans.  Nothing here uses ``repro.obs`` or wraps an engine or
model method: a patched engine declines the columnar path
(``PdnSpot._ENGINE_PATCHABLE``), which would change what is measured.

Every traced run reports every per-layer metric, whatever ``--workload``
names; the workload only picks which probe gives ``host.raw_units_per_s``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
import urllib.request
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import measure
import workloads
from hostref import RefTracker

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import ResultSet
from repro.analysis.study import scenario_records
from repro.cache import DiskCache
from repro.cache.store import parameters_fingerprint
from repro.pdn import columnar
from repro.sim.adapters import simulation_record
from repro.sim.study import SimEngine
from repro.workloads.scenarios import available_scenarios, build_scenario_trace

#: Ops each probe traces (enough for a median, short enough for one run).
SWEEP_OPS = 8
DISKWARM_OPS = 8
SERVE_REQUESTS = 40


@dataclass
class Span:
    """One recorded interval."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def ms(self) -> float:
        """Duration in milliseconds."""
        return (self.end - self.start) * 1000.0


class Recorder:
    """Nested spans of one thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record ``name`` around the body; the innermost open span is its parent."""
        record = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_ms(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by name.

        Children of one span run one after another on this thread, so the
        part of the parent they cover is the sum of their durations.
        """
        covered = defaultdict(float)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.ms
        grouped: Dict[str, List[float]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            grouped[record.name].append(record.ms - covered[index])
        return grouped

    def total_ms(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(record.ms for record in self.spans if record.name == name)


@dataclass
class TracedResult:
    """What the traced run prints."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked op; keep ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _sweep_units(study):
    scenarios = list(study.scenarios)
    units = []
    for scenario in scenarios:
        conditions = scenario.conditions()
        units.extend((name, conditions, scenario.overrides) for name in workloads.PDN_NAMES)
    return scenarios, units


def _assemble(scenarios, evaluations, name: str) -> ResultSet:
    count = len(workloads.PDN_NAMES)
    records = []
    for index, scenario in enumerate(scenarios):
        paired = zip(workloads.PDN_NAMES, evaluations[index * count:(index + 1) * count])
        records.extend(scenario_records(scenario, paired))
    return ResultSet.from_records(records, name=name)


def traced_sweep(rec: Recorder, spec, op_name: str, disk_cache=None):
    """One sweep op, layer by layer; its ResultSet, engine and units."""
    with rec.span(op_name):
        with rec.span("analysis.study.expand"):
            study = workloads.sweep_study(spec)
            scenarios, units = _sweep_units(study)
        spot = PdnSpot(disk_cache=disk_cache)
        if disk_cache is None:
            with rec.span("core.calibration"):
                spot.prime_for_execution(units)
        with rec.span("analysis.pdnspot.evaluate" if disk_cache is None
                      else "analysis.pdnspot.evaluate_diskwarm"):
            evaluations = spot.evaluate_units(units)
        with rec.span("analysis.resultset.assemble"):
            results = _assemble(scenarios, evaluations, study.name)
        with rec.span("analysis.resultset.to_json"):
            text = results.to_json()
    return text, spot, units


def probe_sweep(rec: Recorder, out: TracedResult, seed: int) -> Tuple[int, Tuple[str, ...]]:
    """sweep-cold's ops, plus the columnar kernel alone on the same units."""
    misses = fallback = done = 0
    for spec in workloads.cold_specs(seed, SWEEP_OPS):
        text, spot, units = traced_sweep(rec, spec, "harness.sweep_op")
        misses += spot.cache_info().misses
        done += len(units)
        out.check(text == workloads.sweep_cold_op(spec)[1],
                  "traced sweep differs from the sweep-cold op")
        kernel = PdnSpot(enable_cache=False)
        kernel.prime_for_execution(units)
        with rec.span("pdn.columnar.kernel"):
            kernel_evaluations = kernel.evaluate_units(units)
        out.check(kernel_evaluations == spot.evaluate_units(units),
                  "cache-free columnar evaluation differs from the memo engine")
        for name in workloads.PDN_NAMES:
            conditions = [c for n, c, _ in units if n == name]
            if columnar.evaluate_columns(kernel.pdn(name), conditions) is None:
                fallback += len(conditions)
    out.metrics["analysis.pdnspot.cache_misses"] = (float(misses), "count")
    out.metrics["analysis.pdnspot.scalar_fallback_units"] = (float(fallback), "count")
    return done, ("harness.sweep_op",)


def probe_diskwarm(rec: Recorder, out: TracedResult, seed: int) -> Tuple[int, Tuple[str, ...]]:
    """Direct DiskCache get/put, then sweep-diskwarm's ops on written grids."""
    grids, sequence = workloads.diskwarm_plan(seed, DISKWARM_OPS)
    root = workloads.scratch_dir("traced-disk")
    try:
        engine = PdnSpot()
        _, units = _sweep_units(workloads.sweep_study(grids[0]))
        evaluations = engine.evaluate_units(units)
        store = DiskCache(root / "direct", fingerprint=parameters_fingerprint(engine.parameters))
        keys = [engine.cache_key(*unit) for unit in units]
        for key, evaluation in zip(keys, evaluations):
            with rec.span("cache.store.put"):
                store.put(key, evaluation)
        loaded = []
        for key in keys:
            with rec.span("cache.store.get"):
                loaded.append(store.get(key))
        out.check(loaded == evaluations, "DiskCache.get returned other evaluations than put")

        cache_dir = str(root / "engine")
        writer = PdnSpot(disk_cache=cache_dir)
        expected = [writer.run(workloads.sweep_study(grid)).to_json() for grid in grids]
        hits = misses = corrupt = done = 0
        for index in sequence:
            text, spot, op_units = traced_sweep(rec, grids[index], "harness.diskwarm_op",
                                                disk_cache=cache_dir)
            done += len(op_units)
            stats = spot.disk_cache.stats()
            hits, misses = hits + stats.hits, misses + stats.misses
            corrupt += stats.corrupt
            out.check(text == expected[index], "disk-warm sweep differs from the written one")
        out.metrics["cache.store.hits"] = (float(hits), "count")
        out.metrics["cache.store.misses"] = (float(misses), "count")
        out.metrics["cache.store.corrupt"] = (float(corrupt), "count")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return done, ("harness.diskwarm_op",)


def probe_sim(rec: Recorder, out: TracedResult) -> Tuple[int, Tuple[str, ...]]:
    """sim-trace's ops: trace build, static and FlexWatts replays, records."""
    phases = switches = hits = lookups = 0
    for scenario_seed in workloads.SIM_SEEDS:
        study = workloads.sim_study(scenario_seed)
        with rec.span("harness.sim_op"):
            engine = SimEngine()
            with rec.span("workloads.scenarios.trace_build"):
                for scenario in available_scenarios():
                    build_scenario_trace(scenario, seed=scenario_seed)
            results = {}
            for name, span in (("IVR", "sim.study.static"), ("FlexWatts", "sim.study.flexwatts")):
                units = [(name, point, point.overrides) for point in study.points]
                with rec.span(span):
                    for unit, result in zip(units, engine.evaluate_units(units)):
                        results[unit[:2]] = result
            with rec.span("sim.adapters.assemble"):
                records = [simulation_record(results[(name, point)], point.record_fields())
                           for point in study.points for name in workloads.SIM_PDNS]
                text = ResultSet.from_records(records, name=study.name).to_json()
        info = engine.spot.cache_info()
        hits, lookups = hits + info.hits, lookups + info.hits + info.misses
        phases += sum(len(r.phase_records) for r in results.values())
        switches += sum(r.mode_switch_count for r in results.values())
        out.check(text == workloads.sim_op(scenario_seed),
                  f"traced simulation of seed {scenario_seed} differs from the sim-trace op")
    out.metrics["sim.study.phase_hit_ratio"] = (hits / lookups, "ratio")
    out.metrics["sim.phases"] = (float(phases), "count")
    out.metrics["sim.mode_switches"] = (float(switches), "count")
    return phases, ("harness.sim_op",)


def _post(url: str, body: dict) -> bytes:
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def probe_serve(rec: Recorder, out: TracedResult, seed: int) -> Tuple[int, Tuple[str, ...]]:
    """One client's serve-mixed sequence: HTTP exchange, then decode."""
    pool, sequence = workloads.serve_plan(seed, SERVE_REQUESTS)
    root = workloads.scratch_dir("traced-serve")
    daemon = None
    try:
        daemon = workloads.Daemon(root)
        for spec in pool:
            workloads.request(daemon.client, spec)
        local = PdnSpot()
        done = 0
        for item in sequence:
            done += workloads.sweep_units(item.spec)
            tdps, ars = item.spec
            body = {"tdps": list(tdps), "ars": list(ars),
                    "workloads": list(workloads.WORKLOAD_TYPES)}
            with rec.span(f"serve.client.http_{item.kind}"):
                raw = _post(f"{daemon.url}/v1/sweep", body)
            with rec.span("serve.client.decode"):
                results = ResultSet.from_json(json.dumps(json.loads(raw)["resultset"]))
            expected = local.run(workloads.sweep_study(item.spec)).to_json()
            out.check(results.to_json() == expected,
                      f"{item.kind} response differs from a local evaluation")
        for name, value in workloads.serve_counters(daemon.client.stats()).items():
            out.metrics[name] = (value, "count")
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(root, ignore_errors=True)

    # A grid large enough for two column chunks, so jobs=2 really dispatches.
    _, units = _sweep_units(workloads.sweep_study(workloads.cold_specs(seed, 1)[0]))
    timings = {}
    for jobs in (1, 2):
        engine = PdnSpot()
        started = time.perf_counter()
        engine.evaluate_units(units, jobs=jobs)
        timings[jobs] = (time.perf_counter() - started) * 1000.0
    out.metrics["analysis.executor.pool_overhead_ms"] = (timings[2] - timings[1], "ms")
    return done, ("serve.client.http_hot", "serve.client.http_new", "serve.client.decode")


#: Span name -> (metric name, unit scale, unit) of the per-layer timings.
SPAN_METRICS = {
    "core.calibration": ("core.calibration_ms", 1.0, "ms"),
    "analysis.study.expand": ("analysis.study.expand_ms", 1.0, "ms"),
    "analysis.pdnspot.evaluate": ("analysis.pdnspot.evaluate_ms", 1.0, "ms"),
    "analysis.pdnspot.evaluate_diskwarm": ("analysis.pdnspot.evaluate_diskwarm_ms", 1.0, "ms"),
    "pdn.columnar.kernel": ("pdn.columnar.kernel_ms", 1.0, "ms"),
    "analysis.resultset.assemble": ("analysis.resultset.assemble_ms", 1.0, "ms"),
    "analysis.resultset.to_json": ("analysis.resultset.to_json_ms", 1.0, "ms"),
    "harness.sweep_op": ("harness.sweep_op.self_ms", 1.0, "ms"),
    "harness.diskwarm_op": ("harness.diskwarm_op.self_ms", 1.0, "ms"),
    "cache.store.get": ("cache.store.get_us", 1000.0, "us"),
    "cache.store.put": ("cache.store.put_us", 1000.0, "us"),
    "workloads.scenarios.trace_build": ("workloads.scenarios.trace_build_ms", 1.0, "ms"),
    "sim.study.static": ("sim.study.static_ms", 1.0, "ms"),
    "sim.study.flexwatts": ("sim.study.flexwatts_ms", 1.0, "ms"),
    "sim.adapters.assemble": ("sim.adapters.assemble_ms", 1.0, "ms"),
    "harness.sim_op": ("harness.sim_op.self_ms", 1.0, "ms"),
    "serve.client.http_hot": ("serve.client.http_hot_ms", 1.0, "ms"),
    "serve.client.http_new": ("serve.client.http_new_ms", 1.0, "ms"),
    "serve.client.decode": ("serve.client.decode_ms", 1.0, "ms"),
}


def run(workload: str, seed: int) -> TracedResult:
    """Trace every layer once; report medians of self time and the counts."""
    out = TracedResult()
    ref = RefTracker()
    imports = [workloads.fresh_import() for _ in range(workloads.SETUP_REPEATS)]
    out.metrics["setup.import_numpy_s"] = (statistics.median(i["numpy"] for i in imports), "s")
    out.metrics["setup.import_repro_cli_s"] = (
        statistics.median(i["repro_cli"] for i in imports), "s")
    rec = Recorder()
    units = {}
    ref.sample()
    units["sweep-cold"] = probe_sweep(rec, out, seed)
    ref.sample()
    units["sweep-diskwarm"] = probe_diskwarm(rec, out, seed)
    ref.sample()
    units["sim-trace"] = probe_sim(rec, out)
    ref.sample()
    units["serve-mixed"] = probe_serve(rec, out, seed)
    ref.sample()
    for span, samples in rec.self_ms().items():
        metric, scale, unit = SPAN_METRICS[span]
        out.metrics[metric] = (statistics.median(samples) * scale, unit)
    out.metrics["host.ref_ms"] = (ref.median_ms(), "ms")
    done, spans = units[workload]
    seconds = sum(rec.total_ms(span) for span in spans) / 1000.0
    out.metrics["host.raw_units_per_s"] = (measure.rate(done, seconds), "1/s")
    return out
