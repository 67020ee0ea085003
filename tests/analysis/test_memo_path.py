"""The batch memo path: shared keys, stable addresses, cheap caller copies.

The cache-enabled serial path of :meth:`PdnSpot.evaluate_units` builds every
unit's key once per batch (the conditions part once per conditions object,
as a hash-once :class:`~repro.analysis.executor.MemoKey`) and hands callers
field-level copies of the cached masters.  None of that may be observable:
keys equal the per-unit :meth:`PdnSpot.cache_key` (same on-disk addresses,
same dict slots in any process), results are isolated from caller mutation,
and the hit/miss accounting is exactly the per-unit loop's.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.executor import MemoKey
from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Scenario, Study
from repro.cache import DiskCache, parameters_fingerprint
from repro.obs.metrics import METRICS
from repro.pdn.base import OperatingConditions, conditions_key
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState

SRC = Path(__file__).resolve().parents[2] / "src"

#: Entry addresses of two keys, recorded before keys were built per batch;
#: a change here orphans every existing cache directory.
PINNED_ENTRIES = {
    "gfx-override": "pdnspot/72/"
    "729d4908ce27776323b77cca98ac5955c4ff4efd06bf36da2acf77cad21ffbd0.pkl",
    "c8-idle": "pdnspot/e7/"
    "e743a87e04ef68604c47a9b3e1cbac9d5604bca787baa52de69a9392fbbbfb0c.pkl",
}


def _pinned_units():
    gfx = OperatingConditions.for_active_workload(18.0, 0.56, WorkloadType.GRAPHICS)
    idle = OperatingConditions.for_power_state(4.0, PackageCState.C8)
    return {
        "gfx-override": ("FlexWatts", gfx, (("ivr_tolerance_band_v", 0.01),)),
        "c8-idle": ("IVR", idle, ()),
    }


def _duplicate_study() -> Study:
    """Active and idle scenarios, some repeated, one with overrides."""
    active = Scenario(18.0, application_ratio=0.56,
                      workload_type=WorkloadType.CPU_MULTI_THREAD)
    idle = Scenario(4.0, power_state=PackageCState.C8)
    tuned = Scenario(4.0, application_ratio=0.4,
                     workload_type=WorkloadType.GRAPHICS,
                     overrides=(("ivr_tolerance_band_v", 0.01),))
    return Study("duplicates", (active, idle, active, tuned, idle, tuned, active))


class TestKeys:
    def test_batch_keys_equal_per_unit_keys(self):
        spot = PdnSpot()
        study = _duplicate_study()
        units = [(name, scenario.conditions(), scenario.overrides)
                 for scenario in study.scenarios for name in spot.pdns]
        batch = spot.cache_keys(units)
        single = [spot.cache_key(*unit) for unit in units]
        plain = [(overrides, name, conditions_key(conditions))
                 for name, conditions, overrides in units]
        assert batch == single == plain
        assert ([hash(key) for key in batch] == [hash(key) for key in single]
                == [hash(key) for key in plain])

    def test_conditions_part_is_shared_per_conditions_object(self):
        spot = PdnSpot()
        conditions = OperatingConditions.for_active_workload(
            4.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        keys = spot.cache_keys([(name, conditions, ()) for name in spot.pdns])
        assert all(isinstance(key[2], MemoKey) for key in keys)
        assert len({id(key[2]) for key in keys}) == 1

    def test_memo_key_is_interchangeable_with_its_tuple(self):
        items = (4.0, "IVR", WorkloadType.GRAPHICS)
        key = MemoKey(items)
        assert isinstance(key, tuple)
        assert key == items and hash(key) == hash(items)
        assert {items: "entry"}[key] == "entry"
        assert {key: "entry"}[items] == "entry"

    def test_entry_path_matches_plain_tuple_and_pinned_address(self, tmp_path):
        spot = PdnSpot()
        store = DiskCache(tmp_path, namespace="pdnspot",
                          fingerprint=parameters_fingerprint(spot.parameters))
        for label, unit in _pinned_units().items():
            plain = (unit[2], unit[0], tuple(spot.cache_keys([unit])[0][2]))
            assert type(plain[2]) is tuple
            for key in (spot.cache_key(*unit), spot.cache_keys([unit])[0]):
                path = store.entry_path(key)
                assert path == store.entry_path(plain)
                assert path.relative_to(tmp_path).as_posix() == PINNED_ENTRIES[label]

    def test_pickled_key_finds_its_entry_under_another_hash_seed(self, tmp_path):
        """A cached hash must not survive pickling: string hashes are salted
        per process, so a stale one would miss its dict slot."""
        build = (
            "import pickle, sys\n"
            "from repro.analysis.pdnspot import PdnSpot\n"
            "from repro.pdn.base import OperatingConditions\n"
            "from repro.power.domains import WorkloadType\n"
            "conditions = OperatingConditions.for_active_workload(\n"
            "    18.0, 0.56, WorkloadType.GRAPHICS)\n"
            "key = PdnSpot().cache_keys([('FlexWatts', conditions, ())])[0]\n"
        )
        write = build + "open(sys.argv[1], 'wb').write(pickle.dumps(key))\n"
        read = build + (
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "table = {key: 'entry'}\n"
            "assert hash(loaded) == hash(key) == hash(tuple(loaded)), 'stale hash'\n"
            "assert table[loaded] == 'entry'\n"
            "assert {tuple(loaded): 'entry'}[loaded] == 'entry'\n"
        )
        blob = tmp_path / "key.pickle"
        for seed, script in (("1", write), ("2", read)):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            completed = subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr

    def test_pickle_round_trip_in_process(self):
        key = MemoKey((1.0, "IVR", (2.0,)))
        loaded = pickle.loads(pickle.dumps(key))
        assert type(loaded) is MemoKey
        assert loaded == key and hash(loaded) == hash(key)


class TestCallerIsolation:
    """Default serial columnar path: returned evaluations are caller-owned."""

    def test_mutating_install_and_hit_results_leaves_later_hits_intact(self):
        study = _duplicate_study()
        units = [(name, scenario.conditions(), scenario.overrides)
                 for scenario in study.scenarios for name in ("IVR", "FlexWatts")]
        reference = PdnSpot(enable_cache=False).evaluate_units(units)
        spot = PdnSpot()
        assert spot.columnar_enabled
        installed = spot.evaluate_units(units)  # misses, then in-batch hits
        assert spot.cache_info().hits > 0
        hits = spot.evaluate_units(units)       # all hits
        for evaluation in installed + hits:
            evaluation.breakdown.other_w += 99.0
            evaluation.breakdown.rail_details["injected"] = 1.0
            evaluation.rail_voltages_v.clear()
        later = spot.evaluate_units(units)
        assert later == reference
        for evaluation in later:
            assert "injected" not in evaluation.breakdown.rail_details
            assert evaluation.rail_voltages_v

    def test_copies_are_fresh_objects(self):
        spot = PdnSpot()
        conditions = OperatingConditions.for_active_workload(
            4.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        first, second = spot.evaluate_units([("IVR", conditions, ())] * 2)
        assert first == second
        assert first is not second
        assert first.breakdown is not second.breakdown
        assert first.breakdown.rail_details is not second.breakdown.rail_details
        assert first.rail_voltages_v is not second.rail_voltages_v


class TestAccounting:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_run_counts_like_the_per_unit_loop(self, columnar):
        study = _duplicate_study()
        installs = METRICS.counter("cache.installs")
        misses = METRICS.counter("cache.lookup.misses")

        def account(evaluate_all):
            spot = PdnSpot(columnar=columnar)
            before = (installs.value, misses.value)
            evaluate_all(spot)
            info = spot.cache_info()
            return ((info.hits, info.misses, info.size),
                    (installs.value - before[0], misses.value - before[1]))

        def loop(spot):
            for scenario in study.scenarios:
                conditions = scenario.conditions()
                for name in spot.pdns:
                    spot.evaluate(name, conditions, scenario.overrides)

        batch = account(lambda spot: spot.run(study))
        per_unit = account(loop)
        assert batch == per_unit
        distinct = 3 * len(PdnSpot().pdns)
        assert batch[0] == (len(study) * len(PdnSpot().pdns) - distinct,
                            distinct, distinct)
