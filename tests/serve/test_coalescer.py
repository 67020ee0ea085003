"""Coalescer semantics: single-flight, per-tick batching, canonical order.

The contract under test is the daemon's headline guarantee: concurrent
requests over overlapping grids cost exactly one evaluation per *distinct*
cache key -- keys already in flight are awaited, never recomputed -- and
every caller gets its results back in its own unit order.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter
from typing import List, Optional, Tuple

import pytest

from repro.serve.coalescer import Coalescer


class CountingEngine:
    """A minimal :class:`EvaluationEngine` that counts every real evaluation.

    ``gates[name]`` holds a :class:`threading.Event` an evaluation of that
    PDN name blocks on, so tests can hold a key in flight deterministically.
    """

    def __init__(self):
        self._cache = {}
        self._lock = threading.Lock()
        self.eval_counts = Counter()
        self.gates = {}

    @property
    def cache_enabled(self) -> bool:
        return True

    def cache_keys(self, units) -> List[Tuple[object, ...]]:
        return [tuple(unit) for unit in units]

    def cache_lookup(self, key) -> Optional[object]:
        with self._lock:
            return self._cache.get(key)

    def cache_install(self, key, result):
        with self._lock:
            self._cache[key] = result
            return result

    def evaluate_uncached(self, name, point, overrides):
        gate = self.gates.get(name)
        if gate is not None:
            assert gate.wait(timeout=30.0), "test gate never released"
        with self._lock:
            self.eval_counts[(name, point, overrides)] += 1
        return ("result", name, point, overrides)

    def prime_for_execution(self, units) -> None:
        pass

    def worker_config(self):  # pragma: no cover - no process backend in tests
        raise NotImplementedError


def units_for(name: str, points) -> list:
    return [(name, point, ()) for point in points]


class TestSingleFlight:
    def test_overlapping_concurrent_requests_evaluate_each_key_once(self):
        """Two simultaneous requests over overlapping grids: one evaluation
        per distinct key, both requests see correct results in their order."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            request_a = units_for("A", range(4))       # keys 0..3
            request_b = units_for("A", range(2, 6))    # keys 2..5 (overlap 2,3)
            results_a, results_b = await asyncio.gather(
                coalescer.evaluate(request_a), coalescer.evaluate(request_b)
            )
            await coalescer.drain()
            return coalescer, results_a, results_b

        coalescer, results_a, results_b = asyncio.run(main())
        assert results_a == [("result", "A", point, ()) for point in range(4)]
        assert results_b == [("result", "A", point, ()) for point in range(2, 6)]
        # 6 distinct keys, each evaluated exactly once.
        assert len(engine.eval_counts) == 6
        assert set(engine.eval_counts.values()) == {1}
        # The two overlapping keys attached to in-flight futures.
        assert coalescer.stats.units_requested == 8
        assert coalescer.stats.keys_coalesced == 2
        assert coalescer.stats.keys_dispatched == 6

    def test_same_tick_requests_share_one_dispatch(self):
        """Requests decomposed in the same scheduling tick batch into one
        executor dispatch, not one per request."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await asyncio.gather(
                coalescer.evaluate(units_for("A", range(3))),
                coalescer.evaluate(units_for("B", range(3))),
                coalescer.evaluate(units_for("C", range(3))),
            )
            await coalescer.drain()
            return coalescer

        coalescer = asyncio.run(main())
        assert coalescer.stats.batches_dispatched == 1
        assert coalescer.stats.largest_batch == 9

    def test_slow_inflight_key_is_awaited_not_recomputed(self):
        """A request arriving while a key is mid-evaluation attaches to the
        in-flight future; when the evaluation lands, both requests get the
        same result and the engine ran exactly once."""
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            first = asyncio.ensure_future(coalescer.evaluate(units_for("slow", [0])))
            # Let the first request dispatch and block inside the worker.
            for _ in range(10):
                await asyncio.sleep(0.01)
                if coalescer.in_flight:
                    break
            second = asyncio.ensure_future(coalescer.evaluate(units_for("slow", [0])))
            await asyncio.sleep(0.05)
            assert not first.done() and not second.done()
            engine.gates["slow"].set()
            results = await asyncio.gather(first, second)
            await coalescer.drain()
            return coalescer, results

        coalescer, (first, second) = asyncio.run(main())
        assert first == second == [("result", "slow", 0, ())]
        assert engine.eval_counts[("slow", 0, ())] == 1
        assert coalescer.stats.keys_coalesced == 1
        assert coalescer.stats.keys_dispatched == 1

    def test_completed_keys_are_served_by_the_engine_cache(self):
        """A key evaluated by an earlier batch is re-requested through the
        engine's own cache (no second real evaluation, no tracking here)."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", range(2)))
            await coalescer.drain()
            assert coalescer.in_flight == 0
            return await coalescer.evaluate(units_for("A", range(2)))

        results = asyncio.run(main())
        assert results == [("result", "A", point, ()) for point in range(2)]
        assert set(engine.eval_counts.values()) == {1}


class TestFailurePropagation:
    def test_dispatch_error_reaches_every_awaiting_request(self):
        class ExplodingEngine(CountingEngine):
            def evaluate_uncached(self, name, point, overrides):
                raise ValueError("boom")

        engine = ExplodingEngine()

        async def main():
            coalescer = Coalescer(engine)
            first = asyncio.ensure_future(coalescer.evaluate(units_for("A", [0])))
            second = asyncio.ensure_future(coalescer.evaluate(units_for("A", [0])))
            outcomes = await asyncio.gather(first, second, return_exceptions=True)
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(main())
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)
        # The failed key left the in-flight index: a retry can dispatch anew.
        assert coalescer.in_flight == 0

    def test_abandoning_a_shared_future_does_not_cancel_it(self):
        """A caller timing out (``wait_for`` cancels its await) must not kill
        the shared future other requests still wait on."""
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            survivor = asyncio.ensure_future(
                coalescer.evaluate(units_for("slow", [0]))
            )
            await asyncio.sleep(0.05)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    coalescer.evaluate(units_for("slow", [0])), timeout=0.01
                )
            engine.gates["slow"].set()
            result = await survivor
            await coalescer.drain()
            return result

        result = asyncio.run(main())
        assert result == [("result", "slow", 0, ())]
        assert engine.eval_counts[("slow", 0, ())] == 1


class TestDrain:
    def test_drain_waits_for_dispatched_batches(self):
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            futures = coalescer.scatter(units_for("slow", [0]))
            await asyncio.sleep(0.05)
            engine.gates["slow"].set()
            await coalescer.drain()
            # After drain every scattered future has settled.
            assert all(future.done() for future in futures)
            return futures[0].result()

        assert asyncio.run(main()) == ("result", "slow", 0, ())

    def test_drain_on_idle_coalescer_returns_immediately(self):
        async def main():
            coalescer = Coalescer(CountingEngine())
            await coalescer.drain()
            return coalescer.in_flight

        assert asyncio.run(main()) == 0
