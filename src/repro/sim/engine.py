"""The interval simulator.

The simulator models time explicitly but keeps the electrical models analytic:
each workload phase is one (or several) evaluation intervals during which the
operating point is constant, so the phase's energy is simply power x time.
What the simulator adds over the analytic sweeps is the *dynamic* behaviour of
FlexWatts: mode decisions are made from PMU telemetry at each interval, mode
switches cost the 94 us flow, and a minimum-residency guard prevents
thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.runtime_estimator import RuntimeInputEstimator
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.pdn.base import (
    MemoKey,
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    conditions_key,
)
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.pmu import PmuTelemetry, PowerManagementUnit
from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive
from repro.workloads.base import WorkloadPhase, WorkloadTrace

# Simulator instruments, bound once at import time.
_SIM_PHASES = METRICS.counter("sim.phases")
_SIM_MODE_SWITCHES = METRICS.counter("sim.mode_switches")
_SIM_RESIDENCY_GUARD_HITS = METRICS.counter("sim.residency_guard_hits")

#: Evaluation hook for static PDNs: ``(pdn, conditions) -> PdnEvaluation``.
#: Lets an external memo cache (a :class:`repro.analysis.pdnspot.PdnSpot`)
#: serve operating points repeated across traces, scenarios and TDPs.
PhaseEvaluator = Callable[
    [PowerDeliveryNetwork, OperatingConditions], PdnEvaluation
]

#: Evaluation hook for the hybrid PDN's mode-forced evaluations:
#: ``(pdn, conditions, mode) -> PdnEvaluation``.
ModeEvaluator = Callable[
    [FlexWattsPdn, OperatingConditions, PdnMode], PdnEvaluation
]

#: A phase's operating point plus its hash-once memo key
#: (``MemoKey(conditions_key(conditions))``).
PhasePoint = Tuple[OperatingConditions, MemoKey]


def phase_conditions(phase: WorkloadPhase, tdp_w: float) -> OperatingConditions:
    """The operating point one workload phase is evaluated at.

    Active C0 phases carry their benchmark's application ratio and workload
    type; every other phase takes both from the package power-state profile.
    This is *the* phase-to-operating-point mapping -- the simulator, the
    telemetry profile and any external tooling must agree on it.
    """
    if phase.power_state is PackageCState.C0 and phase.benchmark is not None:
        return OperatingConditions.for_active_workload(
            tdp_w=tdp_w,
            application_ratio=phase.benchmark.application_ratio,
            workload_type=phase.benchmark.workload_type,
        )
    if phase.power_state is PackageCState.C0:
        raise ConfigurationError("a C0 phase needs a benchmark")
    return OperatingConditions.for_power_state(tdp_w, phase.power_state)


def phase_point(phase: WorkloadPhase, tdp_w: float) -> PhasePoint:
    """:func:`phase_conditions` plus the point's hash-once memo key."""
    conditions = phase_conditions(phase, tdp_w)
    return conditions, MemoKey(conditions_key(conditions))


def phase_duration(phase: WorkloadPhase, trace_period_s: float) -> float:
    """One phase's wall-clock duration (residency fallback included)."""
    if phase.duration_s is not None:
        return phase.duration_s
    return phase.residency * trace_period_s


def telemetry_profile(
    trace: WorkloadTrace, tdp_w: float, trace_period_s: float = 1.0
) -> List[PmuTelemetry]:
    """Per-phase PMU telemetry snapshots a trace produces at ``tdp_w``.

    Exactly the snapshots the interval simulator emits through
    :meth:`~repro.soc.pmu.PowerManagementUnit.emit_telemetry` -- same
    phase-to-operating-point mapping (:func:`phase_conditions`), same
    zero-duration skipping, same oracle estimator -- without running a
    simulation (no PDN needed).
    """
    return [
        RuntimeInputEstimator.estimate_from_conditions(
            phase_conditions(phase, tdp_w)
        )
        for phase in trace.phases
        if phase_duration(phase, trace_period_s) > 0.0
    ]


@dataclass(frozen=True)
class PhaseRecord:
    """Simulation outcome of one workload phase."""

    phase_index: int
    power_state: str
    workload_type: str
    duration_s: float
    supply_power_w: float
    energy_j: float
    pdn_mode: Optional[str] = None
    mode_switched: bool = False


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating one trace on one PDN."""

    pdn_name: str
    trace_name: str
    tdp_w: float
    phase_records: List[PhaseRecord] = field(default_factory=list)
    mode_switch_count: int = 0
    mode_switch_time_s: float = 0.0
    mode_switch_energy_j: float = 0.0

    @property
    def total_time_s(self) -> float:
        """Total simulated time, including mode-switch flows."""
        return sum(record.duration_s for record in self.phase_records) + self.mode_switch_time_s

    @property
    def total_energy_j(self) -> float:
        """Total energy drawn from the platform supply."""
        return (
            sum(record.energy_j for record in self.phase_records)
            + self.mode_switch_energy_j
        )

    @property
    def average_power_w(self) -> float:
        """Average supply power over the simulated trace."""
        total_time = self.total_time_s
        if total_time == 0.0:
            return 0.0
        return self.total_energy_j / total_time

    def time_in_mode_s(self, mode: PdnMode) -> float:
        """Time spent with the hybrid PDN in ``mode`` (FlexWatts runs only)."""
        return sum(
            (
                record.duration_s
                for record in self.phase_records
                if record.pdn_mode == mode.value
            ),
            0.0,
        )


class IntervalSimulator:
    """Replays workload traces against a processor + PDN combination.

    Parameters
    ----------
    tdp_w:
        The processor's configured TDP.
    trace_period_s:
        The period over which residencies are defined (e.g. the length of one
        video frame times the number of frames simulated); phases that carry
        only a residency last ``residency * trace_period_s``.
    evaluation_interval_s:
        How often the PMU re-evaluates its algorithms (FlexWatts uses 10 ms).
    """

    def __init__(
        self,
        tdp_w: float,
        trace_period_s: float = 1.0,
        evaluation_interval_s: float = 10e-3,
    ):
        require_positive(tdp_w, "tdp_w")
        require_positive(trace_period_s, "trace_period_s")
        require_positive(evaluation_interval_s, "evaluation_interval_s")
        self._tdp_w = tdp_w
        self._trace_period_s = trace_period_s
        self._evaluation_interval_s = evaluation_interval_s

    # ------------------------------------------------------------------ #
    # Operating-point construction
    # ------------------------------------------------------------------ #
    def _phase_point(self, phase: WorkloadPhase) -> PhasePoint:
        """One phase's operating point and memo key at this simulator's TDP.

        The internal hook through which :class:`repro.sim.study.SimEngine`
        serves phase points from its per-engine memo (built once per
        ``(power state, benchmark, TDP)`` instead of once per phase).
        """
        return phase_point(phase, self._tdp_w)

    def _phase_duration_s(self, phase: WorkloadPhase) -> float:
        """Delegate to the module-level mapping at this simulator's period."""
        return phase_duration(phase, self._trace_period_s)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(
        self,
        trace: WorkloadTrace,
        pdn: PowerDeliveryNetwork,
        pmu: Optional[PowerManagementUnit] = None,
        evaluate: Optional[PhaseEvaluator] = None,
        evaluate_in_mode: Optional[ModeEvaluator] = None,
    ) -> SimulationResult:
        """Simulate ``trace`` on ``pdn``.

        For a :class:`FlexWattsPdn` the Algorithm-1 predictor is consulted for
        every phase, the mode-switch controller enforces the minimum mode
        residency, and every switch adds the flow's latency and energy.  Other
        PDNs are static, so their phases are evaluated directly.

        Phases are *batched by operating point*: because the electrical models
        are pure, every distinct ``(operating point, mode)`` pair is evaluated
        exactly once per run and repeated phases (duty-cycled traces, DVFS
        ladders) are served from a per-run memo.  The optional ``evaluate`` /
        ``evaluate_in_mode`` hooks route those one-per-point evaluations
        through an external cache (:class:`repro.sim.study.SimEngine` wires
        them to a shared :class:`~repro.analysis.pdnspot.PdnSpot`), so
        operating points repeated *across* traces are also computed once;
        the engine fills those caches with one columnar batch per study
        before any replay starts.

        A trace whose phases all resolve to zero duration is rejected: it has
        no simulable time, so every aggregate would silently be zero.
        """
        if pmu is None:
            pmu = PowerManagementUnit(tdp_w=self._tdp_w)
        if obs_trace.tracing_enabled():
            # Satellite bridge: mirror the PMU's telemetry emissions into
            # the trace so per-phase activity shows on the sim timeline.
            obs_trace.attach_pmu_tracing(pmu)
        durations_s = [self._phase_duration_s(phase) for phase in trace.phases]
        if not any(duration > 0.0 for duration in durations_s):
            raise ConfigurationError(
                f"trace {trace.name!r} has no phase with a non-zero duration; "
                "nothing to simulate"
            )
        result = SimulationResult(
            pdn_name=pdn.name, trace_name=trace.name, tdp_w=self._tdp_w
        )
        adaptive = isinstance(pdn, FlexWattsPdn)
        # Per-run memos: the models are pure, so evaluations and mode
        # predictions depend only on the operating point (plus the forced
        # mode), never on when in the trace they happen.
        evaluations: Dict[Tuple[object, ...], PdnEvaluation] = {}
        predictions: Dict[MemoKey, PdnMode] = {}

        def evaluate_point(
            conditions: OperatingConditions, point_key: MemoKey, mode: Optional[PdnMode]
        ) -> PdnEvaluation:
            """One evaluation per distinct (operating point, mode) pair."""
            key = (mode, point_key)
            cached = evaluations.get(key)
            if cached is None:
                if mode is not None:
                    if evaluate_in_mode is not None:
                        cached = evaluate_in_mode(pdn, conditions, mode)
                    else:
                        cached = pdn.evaluate_in_mode(conditions, mode)
                elif evaluate is not None:
                    cached = evaluate(pdn, conditions)
                else:
                    cached = pdn.evaluate(conditions)
                evaluations[key] = cached
            return cached

        def predict_point(conditions: OperatingConditions, point_key: MemoKey) -> PdnMode:
            """One Algorithm-1 prediction per distinct operating point."""
            cached = predictions.get(point_key)
            if cached is None:
                cached = pdn.predict_mode(conditions)
                predictions[point_key] = cached
            return cached

        with obs_trace.span("sim.run", category="sim", trace=trace.name,
                            pdn=pdn.name, tdp_w=self._tdp_w) as run_span:
            for index, phase in enumerate(trace.phases):
                duration_s = durations_s[index]
                if duration_s == 0.0:
                    continue
                _SIM_PHASES.inc()
                conditions, point_key = self._phase_point(phase)
                switched = False
                mode_name: Optional[str] = None
                if adaptive:
                    controller = pdn.switch_controller
                    controller.advance_time(duration_s)
                    desired_mode = predict_point(conditions, point_key)
                    if desired_mode is not controller.mode:
                        if controller.can_switch():
                            # The switch is performed at the phase boundary,
                            # while the compute domains are idle (the flow
                            # itself forces C6).
                            previous_power = evaluate_point(
                                conditions, point_key, controller.mode
                            ).supply_power_w
                            latency_s = controller.switch_to(desired_mode, pmu=pmu)
                            result.mode_switch_count += 1
                            result.mode_switch_time_s += latency_s
                            result.mode_switch_energy_j += previous_power * latency_s
                            switched = True
                            _SIM_MODE_SWITCHES.inc()
                            obs_trace.instant(
                                "sim.mode_switch", category="sim",
                                phase=index, mode=desired_mode.value,
                                latency_s=latency_s,
                            )
                        else:
                            # The minimum-residency guard vetoed a wanted
                            # switch: the thrashing case the paper's flow
                            # is designed to suppress.
                            _SIM_RESIDENCY_GUARD_HITS.inc()
                            obs_trace.instant(
                                "sim.residency_guard_hit", category="sim",
                                phase=index, desired=desired_mode.value,
                            )
                    evaluation = evaluate_point(conditions, point_key, controller.mode)
                    mode_name = controller.mode.value
                else:
                    evaluation = evaluate_point(conditions, point_key, None)
                pmu.advance_time(duration_s)
                pmu.enter_power_state(phase.power_state)
                if pmu.has_telemetry_listeners:
                    pmu.emit_telemetry(
                        RuntimeInputEstimator.estimate_from_conditions(conditions)
                    )
                result.phase_records.append(
                    PhaseRecord(
                        phase_index=index,
                        power_state=phase.power_state.value,
                        workload_type=(
                            phase.benchmark.workload_type.value
                            if phase.benchmark is not None
                            else WorkloadType.IDLE.value
                        ),
                        duration_s=duration_s,
                        supply_power_w=evaluation.supply_power_w,
                        energy_j=evaluation.supply_power_w * duration_s,
                        pdn_mode=mode_name,
                        mode_switched=switched,
                    )
                )
            run_span.set("phases", len(result.phase_records))
            run_span.set("mode_switches", result.mode_switch_count)
        return result

    def compare(
        self,
        trace: WorkloadTrace,
        pdns: Sequence[PowerDeliveryNetwork],
    ) -> Dict[str, SimulationResult]:
        """Simulate ``trace`` on several PDNs and return the results by name."""
        return {pdn.name: self.run(trace, pdn) for pdn in pdns}
