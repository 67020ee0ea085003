"""The four timed workloads and the inputs they generate from a seed.

Every workload is closed-loop with one client: the next op starts only when
the previous one returned, and the host reference kernel runs right before
each op (for serve-mixed, while the daemon is idle).  Each op is checked;
every check that needs work of its own (the per-point oracle, local
re-evaluation of served grids) runs after the timed window.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import measure
from hostref import RefTracker

from repro.analysis.pdnspot import PdnSpot
from repro.core.hybrid_vr import PdnMode
from repro.pdn import available_pdns
from repro.power.domains import WorkloadType
from repro.serve.client import ServeClient
from repro.serve.protocol import build_simulate_study, build_sweep_study
from repro.sim.engine import phase_conditions
from repro.sim.study import SimEngine
from repro.workloads.scenarios import build_scenario_trace

WORKLOAD_TYPES = ("cpu_single_thread", "cpu_multi_thread", "graphics")
#: Every sweep evaluates all registered PDNs, in the engine's order.
PDN_NAMES = tuple(available_pdns())
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Ops are sized so that one window holds the 100+ ops a p90 with ten
#: samples beyond it needs, with room for a slower host.
#: sweep-cold grid: fig7's axes (TDP x AR x 3 workload types x 5 PDNs) at a
#: quarter of its density, 1200 units.
COLD_TDPS, COLD_ARS = 8, 10
#: sweep-diskwarm: this many 300-unit grids, written during set-up.
DISK_GRIDS, DISK_TDPS, DISK_ARS = 3, 5, 4
#: sim-trace: every registered scenario at both TDP extremes on FlexWatts,
#: the PDN that exercises the PMU, the predictor and mode switching.
SIM_TDPS = (4.0, 50.0)
SIM_PDNS = ("FlexWatts",)
#: Scenario seeds every sim-trace run cycles through (the workload seed only
#: rotates the start), so every run has the same mix.
SIM_SEEDS = (11, 12, 13, 14)
#: serve-mixed traffic: one closed-loop client; every 5th request (20 %) is
#: an unseen ("new") grid, the rest come from a small pre-warmed pool.  The
#: daemon runs serially: with its per-dispatch process pool (--jobs 2), and
#: with two concurrent clients, run-to-run spreads were 15-35 % (see
#: perfbench/README.md).
NEW_EVERY = 5
SERVE_HOT_POOL = 4
SERVE_JOBS = 1
HOT_TDPS, HOT_ARS = 2, 5  # 150 units, served from the daemon's memory
NEW_TDPS, NEW_ARS = 2, 3  # 90 units, computed and written through to disk
#: Fewest ops a window may end with: a p90 needs ten samples beyond it.
MIN_OPS = 100
#: Every n-th op (up to ORACLE_OPS of them) is compared with the oracle.
ORACLE_EVERY, ORACLE_OPS = 25, 4


def sweep_axes(rng: random.Random, n_tdps: int, n_ars: int) -> Tuple[tuple, tuple]:
    """Distinct sorted TDPs (4-50 W, 0.1 W grid) and ARs (0.30-1.00)."""
    tdps = tuple(v / 10 for v in sorted(rng.sample(range(40, 501), n_tdps)))
    ars = tuple(v / 100 for v in sorted(rng.sample(range(30, 101), n_ars)))
    return tdps, ars


def sweep_study(spec: Tuple[tuple, tuple]):
    """The :class:`~repro.analysis.study.Study` one sweep spec describes."""
    tdps, ars = spec
    return build_sweep_study(tdps, ars, [WorkloadType(w) for w in WORKLOAD_TYPES])


def sweep_units(spec: Tuple[tuple, tuple]) -> int:
    """(pdn, conditions) units of one sweep spec over every PDN."""
    return len(spec[0]) * len(spec[1]) * len(WORKLOAD_TYPES) * len(PDN_NAMES)


def oracle_json(spec: Tuple[tuple, tuple]) -> str:
    """The per-point, cache-free evaluation of a spec: the reference output."""
    return PdnSpot(columnar=False, enable_cache=False).run(sweep_study(spec)).to_json()


def cold_specs(seed: int, count: int) -> List[Tuple[tuple, tuple]]:
    """The sweep-cold op sequence of ``seed``."""
    rng = random.Random(f"sweep-cold:{seed}")
    return [sweep_axes(rng, COLD_TDPS, COLD_ARS) for _ in range(count)]


def diskwarm_plan(seed: int, count: int) -> Tuple[List[Tuple[tuple, tuple]], List[int]]:
    """The grids sweep-diskwarm writes, and the grid index of each op."""
    rng = random.Random(f"sweep-diskwarm:{seed}")
    grids = [sweep_axes(rng, DISK_TDPS, DISK_ARS) for _ in range(DISK_GRIDS)]
    return grids, [rng.randrange(DISK_GRIDS) for _ in range(count)]


def sim_seed_sequence(seed: int, count: int) -> List[int]:
    """Scenario seed of each sim-trace op: the fixed list, rotated by ``seed``."""
    return [SIM_SEEDS[(seed + i) % len(SIM_SEEDS)] for i in range(count)]


def sim_study(scenario_seed: int):
    """The :class:`~repro.sim.study.SimStudy` of one sim-trace op."""
    return build_simulate_study(tdps=SIM_TDPS, seed=scenario_seed, pdns=SIM_PDNS)


@dataclass(frozen=True)
class ServeRequest:
    """One request of a serve-mixed client sequence."""

    kind: str  # "hot" or "new"
    spec: Tuple[tuple, tuple]


def serve_plan(seed: int, count: int) -> Tuple[List[Tuple[tuple, tuple]], List[ServeRequest]]:
    """The pre-warmed hot pool and the client's request sequence.

    Every :data:`NEW_EVERY`-th request is new, so every run has the same
    mix.  Hot grids sit on the 0.1 W TDP grid; new grids use TDPs half a
    step off it (x.x5 W), drawn without replacement, so no new grid repeats
    one seen before.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    pool = [sweep_axes(rng, HOT_TDPS, HOT_ARS) for _ in range(SERVE_HOT_POOL)]
    fresh = [(v + 0.5) / 10 for v in range(40, 500)]
    rng.shuffle(fresh)
    sequence = []
    for position in range(count):
        if position % NEW_EVERY == NEW_EVERY - 1 and len(fresh) >= NEW_TDPS:
            tdps = tuple(sorted(fresh.pop() for _ in range(NEW_TDPS)))
            sequence.append(ServeRequest("new", (tdps, sweep_axes(rng, 1, NEW_ARS)[1])))
        else:
            sequence.append(ServeRequest("hot", pool[rng.randrange(len(pool))]))
    return pool, sequence


# --------------------------------------------------------------------------- #
# Shared machinery
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one timed workload run measured and checked."""

    samples: measure.Samples = field(default_factory=measure.Samples)
    ref: RefTracker = field(default_factory=RefTracker)
    setup_raw_s: List[float] = field(default_factory=list)
    setup_norm_s: List[float] = field(default_factory=list)
    #: Seconds the timed ops took, raw and normalised (for units_per_s).
    busy_raw_s: float = 0.0
    busy_norm_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    #: Failure message per failed op (or grid), keyed so each counts once.
    failures: Dict[object, str] = field(default_factory=dict)
    digest: str = ""
    #: The class the end-to-end op percentiles describe.
    primary: str = "op"
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, key: object, message: str) -> None:
        """Record why op (or grid) ``key`` failed; a key counts once."""
        self.failures.setdefault(key, message)

    @property
    def failed(self) -> int:
        """Failed ops, never more than were attempted."""
        return min(len(self.failures), self.attempted)


def _checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def scratch_dir(name: str) -> Path:
    """A fresh per-process directory inside the checkout for caches and logs."""
    path = _checkout_root() / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env() -> Dict[str, str]:
    """Environment for a subprocess of the program under test."""
    env = dict(os.environ)
    src = str(_checkout_root() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import repro.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'numpy': t1 - t0, 'repro_cli': t2 - t1}))\n"
)


def fresh_import() -> Dict[str, float]:
    """Import numpy then ``repro.cli`` in a fresh interpreter; their seconds."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=program_env(), cwd=_checkout_root(), capture_output=True,
        text=True, timeout=60, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def repeat_setup(outcome: Outcome, step: Callable[[bool], None]) -> None:
    """Run ``step(last)`` :data:`SETUP_REPEATS` times, timing each run.

    The reference kernel runs before each run and once after the last; each
    run is normalised by the references around it.
    """
    refs: List[float] = []
    for index in range(SETUP_REPEATS):
        refs.append(outcome.ref.sample())
        started = time.perf_counter()
        step(index == SETUP_REPEATS - 1)
        outcome.setup_raw_s.append(time.perf_counter() - started)
    refs.append(outcome.ref.sample())
    for raw, ref_ms in zip(outcome.setup_raw_s, measure.centered_refs(refs, 1)):
        outcome.setup_norm_s.append(measure.normalize(raw, ref_ms))


def timed_ops(
    outcome: Outcome,
    seconds: float,
    count: int,
    op: Callable[[int], Tuple[object, int]],
    check: Callable[[int, object], Optional[str]],
    kind: Callable[[int], str] = lambda index: "op",
) -> None:
    """Run ``op(i)`` closed-loop for ``seconds``, the kernel before each.

    ``op`` returns its output and the units it completed, ``kind`` names
    its class and ``check`` returns a failure message or ``None``.  The op
    index wraps at ``count``.  After the window each op is normalised by
    the median of the kernel runs around it (:func:`measure.centered_refs`),
    so a host changing speed mid-run is followed from both sides.  On a
    host too slow to finish :data:`MIN_OPS` ops of the primary class in
    time, the window is stretched (to at most 1.5x) rather than reporting a
    p90 without its ten samples beyond.
    """
    started_at = time.perf_counter()
    deadline, hard_deadline = started_at + seconds, started_at + 1.5 * seconds
    refs: List[float] = []
    timed: List[Tuple[str, float, int]] = []
    index = primary = 0
    while time.perf_counter() < deadline or (
        primary < MIN_OPS and time.perf_counter() < hard_deadline
    ):
        gc.collect()
        refs.append(outcome.ref.sample())
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            output, units = op(index % count)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            outcome.fail(index, f"{type(error).__name__}: {error}")
            timed.append(("", 0.0, 0))
            index += 1
            continue
        raw_ms = (time.perf_counter() - started) * 1000.0
        timed.append((kind(index % count), raw_ms, units))
        primary += timed[-1][0] == outcome.primary
        message = check(index, output)
        if message is not None:
            outcome.fail(index, message)
        index += 1
    refs.append(outcome.ref.sample())
    for (name, raw_ms, units), ref_ms in zip(timed, measure.centered_refs(refs)):
        if not name:
            continue
        outcome.samples.add(name, raw_ms, ref_ms, units)
        outcome.busy_raw_s += raw_ms / 1000.0
        outcome.busy_norm_s += measure.normalize(raw_ms, ref_ms) / 1000.0


def oracle_sample(attempted: int) -> List[int]:
    """Indices of the ops compared with the per-point oracle."""
    return list(range(0, attempted, ORACLE_EVERY))[:ORACLE_OPS]


def etee_problem(results) -> Optional[str]:
    """Why a sweep ResultSet's ETEE column is out of (0, 1], or ``None``."""
    bad = [v for v in results.column("etee") if not 0.0 < v <= 1.0]
    return f"{len(bad)} ETEE values outside (0, 1]" if bad else None


# --------------------------------------------------------------------------- #
# sweep-cold
# --------------------------------------------------------------------------- #
def sweep_cold_op(spec: Tuple[tuple, tuple]):
    """What one ``repro sweep`` does after import: fresh engine, run, JSON."""
    results = PdnSpot().run(sweep_study(spec))
    return results, results.to_json()


def run_sweep_cold(seed: int, seconds: float, count: int = 1000) -> Outcome:
    """Fresh-engine fig7-shaped sweeps; no disk, sim or serve code."""
    outcome = Outcome()
    specs = cold_specs(seed, count)
    repeat_setup(outcome, lambda last: (fresh_import(), sweep_cold_op(specs[-1])))
    kept: Dict[int, str] = {}
    sample = set(oracle_sample(count))

    def op(i):
        results, text = sweep_cold_op(specs[i])
        return (results, text), len(results)

    def check(index, output):
        results, text = output
        if index in sample:
            kept[index] = text
        if len(results) != sweep_units(specs[index % count]):
            return f"{len(results)} rows, expected {sweep_units(specs[index % count])}"
        return etee_problem(results)

    timed_ops(outcome, seconds, count, op, check)
    outcome.peak_rss_mb = measure.peak_rss_mb()
    for index, text in sorted(kept.items()):
        if text != oracle_json(specs[index]):
            outcome.fail(index, "differs from the per-point oracle")
    outcome.digest = measure.digest(text for _, text in sorted(kept.items()))
    return outcome


# --------------------------------------------------------------------------- #
# sweep-diskwarm
# --------------------------------------------------------------------------- #
def run_sweep_diskwarm(seed: int, seconds: float, count: int = 1000) -> Outcome:
    """Fresh engines re-running grids a set-up pass wrote to a disk cache."""
    outcome = Outcome()
    grids, sequence = diskwarm_plan(seed, count)
    root = scratch_dir("diskwarm")
    expected: List[str] = []
    cache_dir = root / "cache"

    def setup(last: bool) -> None:
        shutil.rmtree(cache_dir, ignore_errors=True)
        writer = PdnSpot(disk_cache=str(cache_dir))
        texts = [writer.run(sweep_study(grid)).to_json() for grid in grids]
        if last:
            expected.extend(texts)

    try:
        repeat_setup(outcome, setup)

        def op(i):
            spot = PdnSpot(disk_cache=str(cache_dir))
            results = spot.run(sweep_study(grids[sequence[i]]))
            return (spot, results.to_json()), len(results)

        def check(index, output):
            spot, text = output
            misses = spot.cache_info().misses
            if misses:
                return f"{misses} disk misses"
            if text != expected[sequence[index % count]]:
                return "differs from the output written during set-up"
            return None

        timed_ops(outcome, seconds, count, op, check)
        outcome.peak_rss_mb = measure.peak_rss_mb()
        for index, grid in enumerate(grids):
            if expected[index] != oracle_json(grid):
                outcome.fail(("grid", index), "differs from the per-point oracle")
        outcome.digest = measure.digest(expected)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return outcome


# --------------------------------------------------------------------------- #
# sim-trace
# --------------------------------------------------------------------------- #
def sim_op(scenario_seed: int):
    """One fresh engine simulating every scenario at both TDPs."""
    return SimEngine().run(sim_study(scenario_seed)).to_json()


def sim_physics_problem(engine: SimEngine, scenario_seed: int) -> Tuple[Optional[str], int, int]:
    """Check energy = power x time and ETEE in (0, 1] phase by phase.

    Returns the first problem found (or ``None``), the phases simulated and
    the mode switches made.
    """
    study = sim_study(scenario_seed)
    units = [(name, point, point.overrides) for point in study.points for name in SIM_PDNS]
    results = engine.evaluate_units(units)
    flexwatts = engine.spot.pdn("FlexWatts")
    phases = switches = 0
    for (name, point, _), result in zip(units, results):
        trace = build_scenario_trace(point.scenario, seed=point.seed)
        phases += len(result.phase_records)
        switches += result.mode_switch_count
        for record in result.phase_records:
            where = f"{name}/{point.scenario}/{point.tdp_w}/phase {record.phase_index}"
            expected = record.supply_power_w * record.duration_s
            if abs(record.energy_j - expected) > 1e-12 * max(1.0, abs(expected)):
                return f"{where}: energy != power x time", phases, switches
            conditions = phase_conditions(trace.phases[record.phase_index], point.tdp_w)
            if record.pdn_mode is None:
                evaluation = engine.spot.evaluate(name, conditions)
            else:
                evaluation = flexwatts.evaluate_in_mode(conditions, PdnMode(record.pdn_mode))
            if not 0.0 < evaluation.etee <= 1.0:
                return f"{where}: ETEE {evaluation.etee} outside (0, 1]", phases, switches
            if evaluation.supply_power_w != record.supply_power_w:
                return f"{where}: supply power differs from a direct evaluation", phases, switches
        total = result.total_time_s * result.average_power_w
        if abs(result.total_energy_j - total) > 1e-9 * max(1.0, total):
            return f"{name}/{point.scenario}: total energy != power x time", phases, switches
    return None, phases, switches


def run_sim_trace(seed: int, seconds: float, count: int = 1000) -> Outcome:
    """Fresh-engine trace simulations: simulator, PMU, mode switching."""
    outcome = Outcome()
    sequence = sim_seed_sequence(seed, count)
    expected: Dict[int, str] = {}
    phases: Dict[int, int] = {}

    def setup(last: bool) -> None:
        fresh_import()
        for scenario_seed in SIM_SEEDS:
            text = sim_op(scenario_seed)
            if last:
                expected[scenario_seed] = text

    repeat_setup(outcome, setup)
    engine = SimEngine()
    for scenario_seed in SIM_SEEDS:
        problem, phases[scenario_seed], switches = sim_physics_problem(engine, scenario_seed)
        if problem is not None:
            outcome.fail(("seed", scenario_seed), problem)
        outcome.extra[f"mode_switches.seed{scenario_seed}"] = float(switches)

    def op(i):
        return sim_op(sequence[i]), phases[sequence[i]]

    def check(index, text):
        if text != expected[sequence[index % count]]:
            return "differs from the set-up run of the same scenario seed"
        return None

    timed_ops(outcome, seconds, count, op, check)
    outcome.peak_rss_mb = measure.peak_rss_mb()
    outcome.digest = measure.digest(expected[s] for s in SIM_SEEDS)
    return outcome


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class Daemon:
    """A ``python -m repro serve`` subprocess with a fresh cache directory."""

    START_TIMEOUT_S = 60.0

    def __init__(self, root: Path):
        self.cache_dir = root / "serve-cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._log_path = root / "serve.log"
        self._log = open(self._log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir), "--jobs", str(SERVE_JOBS)],
            env=program_env(), cwd=_checkout_root(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.url = self._wait_for_address()
        self.client = ServeClient(self.url)
        self.client.healthz()

    def _wait_for_address(self) -> str:
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://\S+)", self._log_path.read_text())
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start: {self._log_path.read_text()[-500:]}")

    def stop(self) -> None:
        """SIGTERM the daemon and wait for it (kill it if it hangs)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def request(client: ServeClient, spec: Tuple[tuple, tuple]):
    """One sweep request over HTTP; the rebuilt ResultSet."""
    tdps, ars = spec
    return client.sweep(tdps, ars, list(WORKLOAD_TYPES)).resultset


def run_serve_mixed(seed: int, seconds: float, count: int = 2000) -> Outcome:
    """One client against a daemon: memory-hot sweeps beside new ones."""
    outcome = Outcome(primary="hot")
    pool, sequence = serve_plan(seed, count)
    root = scratch_dir("serve")
    daemons: List[Daemon] = []
    responses: Dict[int, object] = {}

    def setup(last: bool) -> None:
        daemon = Daemon(root)
        daemons.append(daemon)
        for spec in pool:
            request(daemon.client, spec)
        if not last:
            daemon.stop()

    def op(i):
        results = request(daemons[-1].client, sequence[i].spec)
        return results, sweep_units(sequence[i].spec)

    def keep(index, results):
        responses[index] = results
        return None

    try:
        repeat_setup(outcome, setup)
        timed_ops(outcome, seconds, count, op, keep, kind=lambda i: sequence[i].kind)
        daemon = daemons[-1]
        outcome.peak_rss_mb = measure.peak_rss_mb(daemon.process.pid)
        outcome.extra.update(serve_counters(daemon.client.stats()))
        daemon.stop()
        local = PdnSpot()
        expected = {spec: local.run(sweep_study(spec)).to_json() for spec in pool}
        for index, results in responses.items():
            spec = sequence[index % count].spec
            if spec not in expected:
                expected[spec] = local.run(sweep_study(spec)).to_json()
            if results.to_json() != expected[spec]:
                outcome.fail(index, "response differs from a local evaluation")
        outcome.digest = measure.digest(expected[spec] for spec in pool)
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(root, ignore_errors=True)
    return outcome


#: The ``/v1/stats`` coalescer and cache counters a run reports.
SERVE_COUNTERS = (
    "coalescer.sweep.batches_dispatched",
    "coalescer.sweep.keys_coalesced",
    "coalescer.sweep.keys_dispatched",
    "coalescer.sweep.units_requested",
    "cache.memory.pdnspot.hits",
    "cache.memory.pdnspot.misses",
    "cache.disk.io.get.count",
    "cache.disk.io.put.count",
    "cache.disk.io.self_heal",
)


def serve_counters(stats: Dict[str, object]) -> Dict[str, float]:
    """The :data:`SERVE_COUNTERS` of a ``/v1/stats`` document, as ``serve.*``."""
    counters: Dict[str, float] = {}
    for path in SERVE_COUNTERS:
        node: object = stats
        for key in path.split("."):
            node = node[key]  # type: ignore[index]
        counters[f"serve.{path}"] = float(node)  # type: ignore[arg-type]
    return counters


RUNNERS: Dict[str, Callable[[int, float], Outcome]] = {
    "sweep-cold": run_sweep_cold,
    "sweep-diskwarm": run_sweep_diskwarm,
    "sim-trace": run_sim_trace,
    "serve-mixed": run_serve_mixed,
}
