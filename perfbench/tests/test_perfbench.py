"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import hostref
import measure
import run
import traced
import workloads


# --------------------------------------------------------------------------- #
# The ten-samples-beyond percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("q, enough", [(0.5, 20), (0.75, 40), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    values = [float(v) for v in range(enough)]
    measure.percentile(values, q)
    with pytest.raises(measure.InsufficientSamples):
        measure.percentile(values[:-1], q)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    shuffled = values[::2] + values[1::2]
    assert measure.percentile(shuffled, 0.9) == 90.0
    assert measure.percentile(shuffled, 0.5) == 50.0
    assert measure.samples_beyond(100, 0.9) == 10


def test_highest_reportable_percentile():
    assert measure.highest_reportable(1000) == 0.99
    assert measure.highest_reportable(100) == 0.9
    assert measure.highest_reportable(99) == 0.75
    assert measure.highest_reportable(20) == 0.5
    assert measure.highest_reportable(19) == 0.0


# --------------------------------------------------------------------------- #
# Host normalisation arithmetic
# --------------------------------------------------------------------------- #
def test_normalize_scales_by_nominal_over_reference():
    assert measure.normalize(100.0, hostref.NOMINAL_MS) == pytest.approx(100.0)
    # A host running the kernel twice as slow halves every timing.
    assert measure.normalize(100.0, 2 * hostref.NOMINAL_MS) == pytest.approx(50.0)
    assert measure.normalize(100.0, hostref.NOMINAL_MS / 2) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        measure.normalize(1.0, 0.0)


def test_drift_cancels_when_op_and_kernel_slow_together():
    fast, slow = measure.OpClass(), measure.OpClass()
    for _ in range(3):
        fast.add(40.0, 8.0, 100)
        slow.add(60.0, 12.0, 100)  # both 1.5x slower
    assert fast.norm_ms == pytest.approx(slow.norm_ms)
    assert fast.raw_ms != slow.raw_ms
    assert fast.units == slow.units == 300


def test_centered_refs_use_kernel_runs_on_both_sides():
    # One kernel run before each of four ops, one after the last.
    refs = [10.0, 30.0, 20.0, 1000.0, 20.0]
    assert measure.centered_refs(refs, 1) == [20.0, 25.0, 510.0, 510.0]
    # Two on each side: one interrupted run no longer moves the median far.
    assert measure.centered_refs(refs, 2) == [20.0, 25.0, 25.0, 20.0]
    assert len(measure.centered_refs(refs)) == len(refs) - 1


def test_ref_tracker_keeps_every_run(monkeypatch):
    timings = iter([9.0, 7.0, 8.0])
    monkeypatch.setattr(hostref, "reference_ms", lambda: next(timings))
    tracker = hostref.RefTracker()
    assert [tracker.sample() for _ in range(3)] == [9.0, 7.0, 8.0]
    assert tracker.median_ms() == 8.0


def test_reference_kernel_takes_measurable_time():
    assert hostref.reference_ms() > 0.5


def test_rate_and_digest():
    assert measure.rate(300, 1.5) == 200.0
    with pytest.raises(ValueError):
        measure.rate(1, 0.0)
    assert measure.digest(["a", "b"]) == measure.digest(["a", "b"])
    assert measure.digest(["a", "b"]) != measure.digest(["b", "a"])


# --------------------------------------------------------------------------- #
# Same seed, same op sequence
# --------------------------------------------------------------------------- #
def test_sweep_sequences_repeat_per_seed():
    assert workloads.cold_specs(7, 50) == workloads.cold_specs(7, 50)
    assert workloads.cold_specs(7, 50) != workloads.cold_specs(8, 50)
    assert workloads.diskwarm_plan(7, 50) == workloads.diskwarm_plan(7, 50)
    assert workloads.diskwarm_plan(7, 50) != workloads.diskwarm_plan(8, 50)


def test_sweep_specs_are_valid_grids():
    for tdps, ars in workloads.cold_specs(3, 20):
        assert len(set(tdps)) == workloads.COLD_TDPS and list(tdps) == sorted(tdps)
        assert all(4.0 <= t <= 50.0 for t in tdps)
        assert all(0.3 <= a <= 1.0 for a in ars)


def test_sim_runs_share_one_mix():
    one, other = workloads.sim_seed_sequence(1, 40), workloads.sim_seed_sequence(2, 40)
    assert one == workloads.sim_seed_sequence(1, 40)
    assert sorted(one) == sorted(other)
    assert set(one) == set(workloads.SIM_SEEDS)


def test_serve_plan_repeats_per_seed_and_new_grids_are_unseen():
    pool, sequence = workloads.serve_plan(5, 300)
    assert (pool, sequence) == workloads.serve_plan(5, 300)
    assert workloads.serve_plan(6, 300) != (pool, sequence)
    hot_tdps = {t for tdps, _ in pool for t in tdps}
    new = [item.spec for item in sequence if item.kind == "new"]
    new_tdps = [t for tdps, _ in new for t in tdps]
    assert len(new_tdps) == len(set(new_tdps))
    assert not hot_tdps & set(new_tdps)
    assert all(item.spec in pool for item in sequence if item.kind == "hot")


def test_serve_new_share_is_a_fifth_for_every_seed():
    for seed in (1, 2):
        _, sequence = workloads.serve_plan(seed, 100)
        assert [item.kind for item in sequence].count("new") == 20


# --------------------------------------------------------------------------- #
# Per-class separation in serve-mixed
# --------------------------------------------------------------------------- #
def test_serve_percentiles_never_mix_classes():
    outcome = workloads.Outcome(primary="hot")
    outcome.setup_norm_s = outcome.setup_raw_s = [1.0]
    outcome.ref.samples = [hostref.NOMINAL_MS]
    outcome.peak_rss_mb = 1.0
    for i in range(200):
        outcome.samples.add("hot", 10.0 + i % 10, hostref.NOMINAL_MS, 150)
    for _ in range(50):
        outcome.samples.add("new", 500.0, hostref.NOMINAL_MS, 270)
    outcome.busy_norm_s = outcome.busy_raw_s = 10.0
    metrics = run.end_to_end(outcome)
    hot = outcome.samples.op("hot").norm_ms
    assert metrics["op_p50_ms"][0] == measure.percentile(hot, 0.5)
    assert metrics["op_p90_ms"][0] == measure.percentile(hot, 0.9) == 18.0
    # Units of both classes count toward throughput.
    assert metrics["units_per_s"][0] == (200 * 150 + 50 * 270) / 10.0
    shown = run.report(outcome)
    assert shown["new_p50_ms"][0] == 500.0
    assert "new_p90_ms" not in shown  # 50 samples cannot support a p90
    assert shown["new_p75_ms"][0] == 500.0


# --------------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------------- #
def test_self_time_is_span_minus_children():
    rec = traced.Recorder()
    with rec.span("op"):
        time.sleep(0.01)
        with rec.span("child"):
            time.sleep(0.02)
            with rec.span("grandchild"):
                time.sleep(0.01)
        with rec.span("child"):
            pass
    spans = {s.name: s for s in rec.spans}
    assert spans["child"].parent == 0 and spans["grandchild"].parent == 1
    self_ms = rec.self_ms()
    op = rec.spans[0]
    children = rec.spans[1].ms + rec.spans[3].ms
    assert self_ms["op"] == [pytest.approx(op.ms - children)]
    assert self_ms["child"][0] == pytest.approx(rec.spans[1].ms - rec.spans[2].ms)
    assert self_ms["grandchild"] == [pytest.approx(rec.spans[2].ms)]
    assert 5.0 < self_ms["op"][0] < 30.0


def test_every_span_has_a_metric():
    assert set(traced.SPAN_METRICS) >= {
        "core.calibration", "analysis.study.expand", "pdn.columnar.kernel",
        "cache.store.get", "cache.store.put", "serve.client.decode",
    }


# --------------------------------------------------------------------------- #
# The printed metric names are the ones BENCHMARK.json declares
# --------------------------------------------------------------------------- #
def test_metric_names_match_benchmark_json():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    outcome = workloads.Outcome()
    outcome.setup_norm_s = [1.0]
    for _ in range(100):
        outcome.samples.add("op", 1.0, hostref.NOMINAL_MS, 1)
    outcome.busy_norm_s = 1.0
    assert set(run.end_to_end(outcome)) == {m["name"] for m in doc["end_to_end"]}
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert {metric for metric, _, _ in traced.SPAN_METRICS.values()} <= per_layer
    assert {f"serve.{name}" for name in workloads.SERVE_COUNTERS} <= per_layer
