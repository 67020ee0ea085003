"""The PDNspot facade.

:class:`PdnSpot` is the single entry point most users need: it owns a set of
PDN models built from one technology-parameter set and exposes the paper's
analyses as methods -- ETEE evaluation and comparison, declarative
:class:`~repro.analysis.study.Study` execution (:meth:`PdnSpot.run`),
TDP/AR/power-state sweeps, performance comparison against a baseline PDN,
battery-life power, BOM and board-area comparison.

Every evaluation is routed through a keyed memo cache over
``(parameter overrides, pdn name, operating conditions)``, so the repeated
grid points that dominate figure regeneration are computed once; see
:meth:`PdnSpot.cache_info`.

Example
-------
>>> from repro import PdnSpot
>>> spot = PdnSpot()
>>> etee = spot.compare_etee(tdp_w=4.0)  # evaluate once, compare many times
>>> etee["FlexWatts"] > etee["IVR"]
True
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.executor import (
    EvalUnit,
    ExecutorLike,
    MemoKey,
    SerialExecutor,
    TwoTierCacheMixin,
    WorkerConfig,
    make_executor,
)
from repro.cache import DiskCache, DiskCacheLike, parameters_fingerprint, resolve_disk_cache
from repro.analysis.resultset import Record, ResultSet
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.obs.runstats import RunStats, executor_label
from repro.analysis.study import (
    OverrideKey,
    Study,
    scenario_records,
)
from repro.cost.board_area import BoardAreaModel
from repro.cost.bom import BomModel
from repro.pdn import columnar as columnar_core
from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    conditions_key,
)
from repro.pdn.registry import available_pdns, build_pdn
from repro.perf.model import PerformanceModel, PerformanceResult
from repro.power.domains import WorkloadType
from repro.power.parameters import PdnTechnologyParameters, default_parameters
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.workloads.base import Benchmark
from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of a :class:`PdnSpot` evaluation cache."""

    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# Columnar-dispatch instruments, bound once at import time.  They tick in
# whichever process runs the block (the parent for serial/thread backends;
# worker-side ticks are process-local and intentionally not merged -- the
# parent's executor-level counters already cover dispatched units).
_COLUMNAR_BLOCKS = METRICS.counter("engine.columnar.blocks")
_COLUMNAR_BLOCK_UNITS = METRICS.counter("engine.columnar.block_units")
_SCALAR_FALLBACK_BLOCKS = METRICS.counter("engine.scalar_fallback.blocks")
_SCALAR_FALLBACK_UNITS = METRICS.counter("engine.scalar_fallback.units")


def _copy_evaluation(evaluation: PdnEvaluation) -> PdnEvaluation:
    """A caller-owned copy of a cached evaluation.

    ``PdnEvaluation`` is frozen but its ``breakdown`` (built by mutation
    inside the PDN models) and ``rail_voltages_v`` are not; handing the cached
    master to callers would let one caller's mutation corrupt every later
    cache hit.  The copy is field-level and shallow: a new breakdown and a
    new evaluation sharing the immutable field values, with fresh
    ``rail_details`` / ``rail_voltages_v`` dicts (their values are floats).
    Filling ``__dict__`` directly skips the dataclass ``__init__`` that
    :func:`dataclasses.replace` would re-run on already validated values.
    """
    source = evaluation.breakdown
    breakdown = object.__new__(type(source))
    breakdown.__dict__.update(source.__dict__)
    breakdown.rail_details = dict(source.rail_details)
    copy = object.__new__(type(evaluation))
    fields = copy.__dict__
    fields.update(evaluation.__dict__)
    fields["breakdown"] = breakdown
    fields["rail_voltages_v"] = dict(evaluation.rail_voltages_v)
    return copy


# Backwards-compatible alias: the key helper moved to repro.pdn.base so the
# interval simulator's phase cache can share it without importing analysis.
_conditions_key = conditions_key


class PdnSpot(TwoTierCacheMixin):
    """Multi-dimensional PDN exploration framework (the paper's PDNspot).

    Parameters
    ----------
    parameters:
        Technology parameters shared by every PDN model (Table 2 defaults).
    pdn_names:
        Which PDN architectures to instantiate; defaults to all five.
    baseline_name:
        The PDN used for normalisation (IVR, the state of the art).
    enable_cache:
        Whether evaluations are memoised over ``(overrides, pdn, conditions)``.
        Disabling reproduces the pre-cache evaluation cost (used by the
        benchmark harness to track the cache's speedup); results are
        identical either way because the PDN models are pure.
    disk_cache:
        Optional second cache tier: a cache-directory path (a
        :class:`~repro.cache.DiskCache` is built for it, keyed by this
        engine's parameters fingerprint) or a pre-built store.  Memory
        misses fall through to disk, computed evaluations write through, so
        a directory warmed by one process serves identical runs in any
        later process.  Requires ``enable_cache=True``.
    columnar:
        Whether batches may be evaluated through the vectorized columnar
        core (:mod:`repro.pdn.columnar`) instead of one Python call per
        point.  Results are bit-identical either way (the per-point path is
        the reference oracle gating the columnar kernels); disabling
        reproduces the per-point evaluation cost, which the ``vectorized-
        eval`` benchmarks compare against.  Requires NumPy; without it the
        flag silently degrades to per-point evaluation.
    """

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        pdn_names: Optional[Sequence[str]] = None,
        baseline_name: str = "IVR",
        enable_cache: bool = True,
        disk_cache: DiskCacheLike = None,
        columnar: bool = True,
    ):
        self.parameters = parameters if parameters is not None else default_parameters()
        names = list(pdn_names) if pdn_names is not None else available_pdns()
        if baseline_name not in names:
            raise ConfigurationError(
                f"baseline PDN {baseline_name!r} must be among the instantiated PDNs"
            )
        self._pdns: Dict[str, PowerDeliveryNetwork] = {
            name: build_pdn(name, self.parameters) for name in names
        }
        self._baseline_name = baseline_name
        self._performance_model = PerformanceModel(
            self._pdns[baseline_name], evaluator=self._evaluate_instance
        )
        self._bom_model = BomModel()
        self._area_model = BoardAreaModel()
        self._cache_enabled = enable_cache
        self._cache: Dict[Tuple[object, ...], PdnEvaluation] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        # Guards the cache mapping, its hit/miss counters and the variant
        # table: concurrent evaluate_cached calls (ThreadExecutor workers or
        # user threads) must not lose counter updates or race dict growth.
        self._cache_lock = threading.Lock()
        if disk_cache is not None and not enable_cache:
            raise ConfigurationError(
                "disk_cache requires enable_cache=True: the disk tier sits "
                "behind the memo cache"
            )
        self._disk_cache = resolve_disk_cache(
            disk_cache,
            namespace="pdnspot",
            fingerprint=parameters_fingerprint(self.parameters),
        )
        self._columnar = bool(columnar) and columnar_core.HAVE_NUMPY
        #: Parameter-override PDN variants, keyed by (overrides, pdn name).
        self._variants: Dict[Tuple[OverrideKey, str], PowerDeliveryNetwork] = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def pdns(self) -> Dict[str, PowerDeliveryNetwork]:
        """The instantiated PDN models, keyed by name."""
        return dict(self._pdns)

    @property
    def baseline(self) -> PowerDeliveryNetwork:
        """The baseline PDN used for normalisation."""
        return self._pdns[self._baseline_name]

    def pdn(self, name: str) -> PowerDeliveryNetwork:
        """Return one PDN model by name."""
        if name not in self._pdns:
            raise ConfigurationError(
                f"PDN {name!r} is not instantiated; available: {', '.join(self._pdns)}"
            )
        return self._pdns[name]

    # ------------------------------------------------------------------ #
    # Cached evaluation engine
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """Whether evaluations are memoised (fixed at construction)."""
        return self._cache_enabled

    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the evaluation cache."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._cache_hits, misses=self._cache_misses, size=len(self._cache)
            )

    def clear_cache(self) -> None:
        """Drop every memoised evaluation (statistics reset too).

        Only the in-memory tier is cleared; an attached disk store survives
        (use :meth:`DiskCache.prune` to reclaim it) and will serve the next
        lookups.
        """
        with self._cache_lock:
            self._cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    def cache_key(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> Tuple[object, ...]:
        """The memo-cache key of one evaluation unit (see :meth:`cache_keys`)."""
        return self.cache_keys([(pdn_name, conditions, overrides)])[0]

    def cache_keys(self, units: Sequence[EvalUnit]) -> List[Tuple[object, ...]]:
        """The memo-cache key of every unit, in unit order.

        A key is ``(overrides, pdn_name, conditions_key)``: equal to, and
        hashing like, that plain tuple, so it names the same dict slot and
        on-disk address.  The conditions part -- the one whose hash walks every domain load --
        is built once per distinct conditions *object* as a
        :class:`~repro.analysis.executor.MemoKey` (hashed once); a study
        shares one object across all of a scenario's PDNs.  The rest of the
        key hashes at C speed.  Identity is a safe key here because
        ``units`` pins every conditions object for the whole call.
        """
        point_keys: Dict[int, MemoKey] = {}
        keys: List[Tuple[object, ...]] = []
        for name, conditions, overrides in units:
            point_key = point_keys.get(id(conditions))
            if point_key is None:
                point_key = MemoKey(_conditions_key(conditions))
                point_keys[id(conditions)] = point_key
            keys.append((overrides, name, point_key))
        return keys

    @property
    def disk_cache(self) -> Optional[DiskCache]:
        """The attached on-disk store (second cache tier), if any."""
        return self._disk_cache

    # Two-tier cache_lookup / cache_install come from TwoTierCacheMixin.
    _payload_type = PdnEvaluation
    _copy_cached = staticmethod(_copy_evaluation)

    def _variant_pdn(self, name: str, overrides: OverrideKey) -> PowerDeliveryNetwork:
        """The PDN instance for one parameter-override set (built once)."""
        if not overrides:
            return self.pdn(name)
        self.pdn(name)  # validate the name against the instantiated set
        key = (overrides, name)
        with self._cache_lock:
            variant = self._variants.get(key)
        if variant is not None:
            return variant
        parameters = self.parameters.with_overrides(**dict(overrides))
        variant = build_pdn(name, parameters)
        with self._cache_lock:
            # Two racing builders produce equivalent models; first one wins.
            return self._variants.setdefault(key, variant)

    def evaluate_uncached(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at one operating point, bypassing the memo cache.

        The :class:`~repro.analysis.executor.EvaluationEngine` protocol's
        single-unit compute seam (the reference oracle the columnar path is
        gated against); executor workers call it for every unit that does not
        ride :meth:`evaluate_columns`.  The driver owns the cache interaction
        (:meth:`cache_lookup` / :meth:`cache_install`), so neither the
        mapping nor the counters are touched here.  Not public sugar -- use
        :meth:`evaluate` or :meth:`evaluate_units`.
        """
        return self._variant_pdn(pdn_name, overrides).evaluate(conditions)

    def _evaluate_cached(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at one operating point through the memo cache."""
        if not self._cache_enabled:
            return self.evaluate_uncached(pdn_name, conditions, overrides)
        key = self.cache_key(pdn_name, conditions, overrides)
        cached = self.cache_lookup(key)
        if cached is not None:
            return cached
        evaluation = self.evaluate_uncached(pdn_name, conditions, overrides)
        return self.cache_install(key, evaluation)

    def evaluate_cached(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Thin alias of :meth:`evaluate` (the historical spelling).

        Retained so pre-consolidation callers keep working; new code should
        call :meth:`evaluate` for one point or :meth:`evaluate_units` for a
        batch.
        """
        return self._evaluate_cached(pdn_name, conditions, overrides)

    # ------------------------------------------------------------------ #
    # Columnar capability (the vectorized half of the engine protocol)
    # ------------------------------------------------------------------ #

    #: Instance-level replacements of any of these mark a patched engine
    #: (tests gate concurrency or inject failures by swapping them); a
    #: patched engine declines columnar batches so every unit flows through
    #: the patched seam.
    _ENGINE_PATCHABLE = ("evaluate_uncached", "_evaluate_cached", "evaluate_cached", "evaluate")

    @property
    def columnar_enabled(self) -> bool:
        """Whether batches may take the vectorized columnar path."""
        return self._columnar

    def evaluate_columns(
        self, units: Sequence[EvalUnit]
    ) -> Optional[List[PdnEvaluation]]:
        """Evaluate a batch of units through the vectorized columnar core.

        Units are grouped into ``(pdn name, overrides)`` column blocks and
        each block is computed in one NumPy pass per metric
        (:func:`repro.pdn.columnar.evaluate_columns`); the column layout is
        shared between blocks over the same conditions, so a five-PDN study
        grid builds its :class:`~repro.pdn.columnar.ConditionsBatch` once.
        Results are returned in unit order and are bit-identical to
        :meth:`evaluate_uncached` per unit.

        A block whose model declines columnarisation (patched instance, an
        operating point the scalar model would reject with a precise error)
        silently falls back to the per-point oracle for that block only.
        Returns ``None`` -- declining the whole batch -- when the columnar
        path is disabled or this engine instance itself is patched.
        """
        if not self._columnar:
            return None
        if any(name in self.__dict__ for name in self._ENGINE_PATCHABLE):
            return None
        unit_list = list(units)
        if not unit_list:
            return []
        groups: Dict[Tuple[str, OverrideKey], List[int]] = {}
        for index, (name, _, overrides) in enumerate(unit_list):
            groups.setdefault((name, overrides), []).append(index)
        results: List[Optional[PdnEvaluation]] = [None] * len(unit_list)
        # One ConditionsBatch per distinct conditions sequence: study grids
        # evaluate every PDN over the same points, so the column layout is
        # built once and shared by all five blocks.  Identity keys are safe
        # here -- the conditions objects are pinned by unit_list for the
        # whole call.
        batches: Dict[Tuple[int, ...], Optional[columnar_core.ConditionsBatch]] = {}
        for (name, overrides), indices in groups.items():
            conditions = [unit_list[i][1] for i in indices]
            layout_key = tuple(map(id, conditions))
            if layout_key in batches:
                batch = batches[layout_key]
            else:
                batch = columnar_core.ConditionsBatch.from_conditions(conditions)
                batches[layout_key] = batch
            with obs_trace.span("engine.columnar_block", category="engine",
                                pdn=name, units=len(indices)) as block_span:
                evaluations = None
                reason: Optional[str] = None
                if batch is not None:
                    pdn = self._variant_pdn(name, overrides)
                    evaluations = columnar_core.evaluate_columns(
                        pdn, conditions, batch=batch
                    )
                    if evaluations is None:
                        reason = "model_declined"
                else:
                    reason = "batch_unbuildable"
                if evaluations is None:
                    _SCALAR_FALLBACK_BLOCKS.inc()
                    _SCALAR_FALLBACK_UNITS.inc(len(indices))
                    block_span.set("columnar", False)
                    block_span.set("fallback_reason", reason)
                    obs_trace.instant(
                        "engine.scalar_fallback", category="engine",
                        pdn=name, units=len(indices), reason=reason,
                    )
                    evaluations = [
                        self.evaluate_uncached(name, c, overrides)
                        for c in conditions
                    ]
                else:
                    _COLUMNAR_BLOCKS.inc()
                    _COLUMNAR_BLOCK_UNITS.inc(len(indices))
                    block_span.set("columnar", True)
            for index, evaluation in zip(indices, evaluations):
                results[index] = evaluation
        return results

    def worker_config(self) -> WorkerConfig:
        """The picklable recipe process-pool workers rebuild this engine from."""
        return WorkerConfig(
            parameters=self.parameters,
            pdn_names=tuple(self._pdns),
            baseline_name=self._baseline_name,
            columnar=self._columnar,
        )

    def prime_for_execution(self, units: Iterable[EvalUnit]) -> None:
        """Build every model (and lazy predictor) the units need, up front.

        Thread-pool workers treat the PDN models as read-only; the two pieces
        of lazily built state -- parameter-override variants and the FlexWatts
        Algorithm-1 predictor calibration -- are forced here, on the calling
        thread, before any worker runs.
        """
        seen = set()
        for name, _, overrides in units:
            key = (overrides, name)
            if key in seen:
                continue
            seen.add(key)
            pdn = self._variant_pdn(name, overrides)
            # Touching .predictor forces the lazy Algorithm-1 calibration on
            # hybrid PDNs; static PDNs have no such attribute.
            getattr(pdn, "predictor", None)

    def _evaluate_instance(
        self, pdn: PowerDeliveryNetwork, conditions: OperatingConditions
    ) -> PdnEvaluation:
        """Cached evaluator for collaborators that hold PDN instances."""
        if pdn is self._pdns.get(pdn.name):
            return self._evaluate_cached(pdn.name, conditions)
        return pdn.evaluate(conditions)

    def evaluate_units(
        self,
        units: Iterable[EvalUnit],
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
    ) -> List[PdnEvaluation]:
        """Evaluate ``(pdn_name, conditions, overrides)`` units, in order.

        **The** public batch entry point: every grid workload (studies,
        figure drivers, the optimizer, the evaluation service) reduces to
        this call.  With the default ``executor=None`` (and ``jobs`` unset
        or 1) the units run on the calling thread -- through the vectorized
        columnar core when this engine has it enabled, per point otherwise
        -- with the seed's bit-identical results and cache accounting.
        Otherwise the resolved :class:`~repro.analysis.executor.Executor`
        shards the units into column blocks, evaluates chunks concurrently,
        merges worker results back into this engine's cache and returns the
        evaluations in canonical unit order.
        """
        backend = make_executor(executor, jobs=jobs)
        if backend is None:
            if self._columnar:
                if not self._cache_enabled:
                    # No cache accounting to preserve: hand the whole batch
                    # to the columnar core directly (it falls back to the
                    # per-point oracle per block, or declines entirely when
                    # this engine instance is patched).
                    unit_list = list(units)
                    evaluations = self.evaluate_columns(unit_list)
                    if evaluations is not None:
                        return evaluations
                    return [
                        self.evaluate_uncached(name, conditions, overrides)
                        for name, conditions, overrides in unit_list
                    ]
                # The serial drive preserves per-unit cache accounting
                # exactly while letting whole column blocks ride the
                # vectorized path (one chunk, no pool, no pickling).
                return SerialExecutor(jobs=1).evaluate_units(self, units)
            return [
                self._evaluate_cached(name, conditions, overrides)
                for name, conditions, overrides in units
            ]
        return backend.evaluate_units(self, units)

    def evaluate_batch(
        self,
        points: Iterable[Tuple[str, OperatingConditions]],
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
    ) -> List[PdnEvaluation]:
        """Thin alias of :meth:`evaluate_units` for override-free points.

        Wraps each ``(pdn_name, conditions)`` pair as a unit with empty
        overrides and delegates; duplicate points -- which dominate
        figure-regeneration grids -- are computed once and served from the
        cache afterwards.
        """
        return self.evaluate_units(
            ((name, conditions, ()) for name, conditions in points),
            executor=executor,
            jobs=jobs,
        )

    def run(
        self,
        study: Study,
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
    ) -> ResultSet:
        """Execute a declarative :class:`Study` and return its results.

        Scenarios are evaluated in grid order against every instantiated PDN
        (or the study's ``pdn_names`` restriction); parameter-override
        scenarios evaluate against variant models built from
        ``self.parameters.with_overrides(...)``.  All evaluations go through
        the memo cache, so overlapping studies share work.

        Parameters
        ----------
        study:
            The scenario grid to evaluate.
        executor:
            ``None`` (serial, the default), a backend name (``"serial"``,
            ``"thread"``, ``"process"``) or an
            :class:`~repro.analysis.executor.Executor` instance.  Parallel
            backends shard the grid, evaluate chunks concurrently, merge the
            evaluations back into this engine's cache, and reassemble the
            result set in canonical grid order -- the returned
            :class:`ResultSet` is identical to the serial one.
        jobs:
            Worker count for the parallel backends; ``jobs > 1`` with
            ``executor=None`` selects the process backend.
        """
        started = time.perf_counter()
        before = self.cache_info()
        names = study.pdn_names if study.pdn_names is not None else tuple(self._pdns)
        for name in names:
            self.pdn(name)  # fail fast on unknown PDNs
        units: List[EvalUnit] = []
        for scenario in study.scenarios:
            conditions = scenario.conditions()
            units.extend((name, conditions, scenario.overrides) for name in names)
        with obs_trace.span("engine.run", category="engine",
                            study=study.name, units=len(units)):
            evaluations = self.evaluate_units(units, executor=executor, jobs=jobs)
        records: List[Record] = []
        cursor = 0
        for scenario in study.scenarios:
            paired = list(zip(names, evaluations[cursor : cursor + len(names)]))
            cursor += len(names)
            records.extend(scenario_records(scenario, paired))
        results = ResultSet.from_records(records, name=study.name)
        after = self.cache_info()
        results.run_stats = RunStats(
            units=len(units),
            duration_s=time.perf_counter() - started,
            cache_hits=after.hits - before.hits,
            cache_misses=after.misses - before.misses,
            executor=executor_label(make_executor(executor, jobs=jobs)),
        )
        return results

    # ------------------------------------------------------------------ #
    # ETEE evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at an explicit operating point (cached).

        The public single-point entry; for many points use
        :meth:`evaluate_units`, which can evaluate whole batches in one
        vectorized pass.
        """
        return self._evaluate_cached(pdn_name, conditions, overrides)

    def compare_etee(
        self,
        tdp_w: float,
        application_ratio: float = 0.56,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> Dict[str, float]:
        """ETEE of every instantiated PDN at one active operating point."""
        conditions = OperatingConditions.for_active_workload(
            tdp_w, application_ratio, workload_type
        )
        return {
            name: self._evaluate_cached(name, conditions).etee for name in self._pdns
        }

    def compare_power_state_etee(
        self, tdp_w: float, power_state: PackageCState
    ) -> Dict[str, float]:
        """ETEE of every instantiated PDN in one package power state."""
        conditions = OperatingConditions.for_power_state(tdp_w, power_state)
        return {
            name: self._evaluate_cached(name, conditions).etee for name in self._pdns
        }

    # ------------------------------------------------------------------ #
    # Sweeps (thin wrappers over the Study engine)
    # ------------------------------------------------------------------ #
    def tdp_sweep(
        self,
        tdps_w: Sequence[float],
        application_ratio: float = 0.56,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> List[Record]:
        """ETEE sweep over TDP for every instantiated PDN."""
        return self.run(
            Study.over_tdps(tdps_w, application_ratio, workload_type)
        ).to_records()

    def application_ratio_sweep(
        self,
        application_ratios: Sequence[float],
        tdp_w: float,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> List[Record]:
        """ETEE sweep over application ratio for every instantiated PDN."""
        return self.run(
            Study.over_application_ratios(application_ratios, tdp_w, workload_type)
        ).to_records()

    def power_state_sweep(self, tdp_w: float) -> List[Record]:
        """ETEE sweep over the battery-life power states."""
        return self.run(Study.over_power_states(tdp_w)).to_records()

    # ------------------------------------------------------------------ #
    # Performance, battery life, cost, area
    # ------------------------------------------------------------------ #
    def performance(
        self, pdn_name: str, benchmark: Benchmark, tdp_w: float
    ) -> PerformanceResult:
        """Relative performance of a benchmark on one PDN (baseline-normalised)."""
        return self._performance_model.evaluate(self.pdn(pdn_name), benchmark, tdp_w)

    def compare_performance(
        self, benchmarks: Iterable[Benchmark], tdp_w: float
    ) -> Dict[str, float]:
        """Suite-average relative performance of every PDN at one TDP."""
        return self._performance_model.compare_pdns(
            self._pdns.values(), benchmarks, tdp_w
        )

    def compare_battery_life_power(self, tdp_w: float = 18.0) -> Dict[str, Dict[str, float]]:
        """Average power of the four battery-life workloads on every PDN.

        Returns workload name -> PDN name -> average supply power (watts).
        """
        table: Dict[str, Dict[str, float]] = {}
        for workload in BATTERY_LIFE_WORKLOADS:
            table[workload.name] = {
                name: workload.average_power_w(
                    pdn, tdp_w, evaluate=self._evaluate_instance
                )
                for name, pdn in self._pdns.items()
            }
        return table

    def compare_bom(self, tdp_w: float) -> Dict[str, float]:
        """Normalised BOM of every PDN at one TDP (Fig. 8d)."""
        return self._bom_model.compare(
            self._pdns.values(), tdp_w, reference_name=self._baseline_name
        )

    def compare_board_area(self, tdp_w: float) -> Dict[str, float]:
        """Normalised board area of every PDN at one TDP (Fig. 8e)."""
        return self._area_model.compare(
            self._pdns.values(), tdp_w, reference_name=self._baseline_name
        )
