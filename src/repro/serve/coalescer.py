"""Request coalescing over an evaluation engine's cache keys.

The daemon's reason to exist: N concurrent clients sweeping overlapping
grids must cost one evaluation per *distinct* grid point, not one per
request.  A :class:`Coalescer` wraps one
:class:`~repro.analysis.executor.EvaluationEngine` and gives every request
handler the same awaitable surface -- ``await coalescer.evaluate(units)`` --
while guaranteeing:

**Single-flight.**  Each evaluation unit is identified by its engine cache
key.  A key whose evaluation is already in flight (dispatched by any
request) is *awaited*, never re-dispatched: late requests attach to the
first request's future.

**Per-tick batching.**  Keys that are not in flight are appended to a
pending batch; a flush is scheduled with ``loop.call_soon``, so every
request decomposed within the same event-loop scheduling tick lands in
**one** :func:`~repro.analysis.executor.evaluate_units_async` dispatch
(optionally widened by ``batch_window_s``).  The engine's executor backend
then dedupes, shards, and merges results into the shared two-tier cache
exactly as a local batch run would.

**Canonical reassembly.**  ``evaluate`` returns results in the caller's
unit order regardless of which request computed them, so each handler can
rebuild its ResultSet rows exactly as the local engine would.

Previously *completed* keys are not tracked here -- they live in the
engine's own memory/disk cache, which the dispatched batch consults -- so
the coalescer stays a thin in-flight index, not a third cache tier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.executor import (
    EvalResult,
    EvalUnit,
    EvaluationEngine,
    ExecutorLike,
    evaluate_units_async,
)
from repro.obs import trace as obs_trace

#: An engine cache key (opaque: whatever ``engine.cache_keys`` returns).
CacheKey = Tuple[object, ...]


@dataclass
class CoalescerStats:
    """Traffic counters of one :class:`Coalescer` (monotonic, process-local).

    Attributes
    ----------
    units_requested:
        Evaluation units received across every ``evaluate`` call.
    keys_coalesced:
        Units that attached to an already-in-flight key instead of
        dispatching a new evaluation (the single-flight savings).
    keys_dispatched:
        Distinct keys handed to the executor seam.
    batches_dispatched:
        Executor dispatches issued (scheduling ticks that had work).
    largest_batch:
        Size of the largest single dispatch.
    """

    units_requested: int = 0
    keys_coalesced: int = 0
    keys_dispatched: int = 0
    batches_dispatched: int = 0
    largest_batch: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-ready mapping (stable key order)."""
        return {
            "units_requested": self.units_requested,
            "keys_coalesced": self.keys_coalesced,
            "keys_dispatched": self.keys_dispatched,
            "batches_dispatched": self.batches_dispatched,
            "largest_batch": self.largest_batch,
        }


class Coalescer:
    """Single-flight, tick-batched evaluation front of one engine.

    Parameters
    ----------
    engine:
        The evaluation engine requests decompose onto.  Its cache keys
        define unit identity; its two-tier cache serves repeats.
    executor, jobs:
        Backend each dispatched batch runs on (forwarded to
        :func:`~repro.analysis.executor.evaluate_units_async`).
    batch_window_s:
        Extra time a scheduled flush waits before collecting the pending
        batch.  ``0`` (default) flushes on the next event-loop tick --
        requests decomposed in the same tick still share one dispatch;
        a positive window trades first-byte latency for larger batches.
    """

    def __init__(
        self,
        engine: EvaluationEngine,
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
        batch_window_s: float = 0.0,
    ):
        self._engine = engine
        self._executor = executor
        self._jobs = jobs
        self._batch_window_s = batch_window_s
        self._inflight: Dict[CacheKey, "asyncio.Future[EvalResult]"] = {}
        self._pending: List[Tuple[CacheKey, EvalUnit]] = []
        self._flush_scheduled = False
        self._dispatch_tasks: "set[asyncio.Task[None]]" = set()
        self.stats = CoalescerStats()

    @property
    def engine(self) -> EvaluationEngine:
        """The wrapped evaluation engine (shared cache owner)."""
        return self._engine

    @property
    def in_flight(self) -> int:
        """Number of cache keys currently being computed or pending dispatch."""
        return len(self._inflight)

    def scatter(self, units: Sequence[EvalUnit]) -> List["asyncio.Future[EvalResult]"]:
        """Register ``units`` and return one future per unit, in caller order.

        Each unit resolves to exactly one of: the future of an already
        in-flight key (counted as coalesced) or a fresh future backed by a
        slot in the next dispatched batch.  Futures are shared between
        requests -- abandoning one (e.g. on a request timeout) must not
        cancel it; await through :func:`asyncio.shield` or let it settle.
        """
        futures: List["asyncio.Future[EvalResult]"] = []
        loop = asyncio.get_running_loop()
        self.stats.units_requested += len(units)
        for unit, key in zip(units, self._engine.cache_keys(units)):
            future = self._inflight.get(key)
            if future is not None:
                self.stats.keys_coalesced += 1
            else:
                future = loop.create_future()
                self._inflight[key] = future
                self._pending.append((key, unit))
            futures.append(future)
        if self._pending:
            self._schedule_flush(loop)
        return futures

    async def evaluate(self, units: Sequence[EvalUnit]) -> List[EvalResult]:
        """Evaluate ``units`` through the coalescer, in caller order.

        The awaitable convenience over :meth:`scatter`; a failed dispatch
        re-raises its error to every request that awaited one of its keys.
        """
        # shield(): a caller timing out (wait_for cancels) must not cancel
        # the shared future other requests are still awaiting.
        return [
            await asyncio.shield(future) for future in self.scatter(units)
        ]

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Arrange for the pending batch to dispatch on a scheduling tick."""
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        if self._batch_window_s > 0:
            loop.call_later(self._batch_window_s, self._start_flush, loop)
        else:
            loop.call_soon(self._start_flush, loop)

    def _start_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Collect the pending batch and dispatch it as one executor call."""
        self._flush_scheduled = False
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats.keys_dispatched += len(batch)
        self.stats.batches_dispatched += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        task = loop.create_task(self._dispatch(batch))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, batch: List[Tuple[CacheKey, EvalUnit]]) -> None:
        """Evaluate one batch on the seam and settle its in-flight futures."""
        keys = [key for key, _ in batch]
        units = [unit for _, unit in batch]
        try:
            with obs_trace.span("serve.coalescer.flush", category="serve",
                                units=len(units)):
                results = await evaluate_units_async(
                    self._engine, units, executor=self._executor, jobs=self._jobs
                )
        except Exception as error:  # noqa: BLE001 - settled into the futures
            for key in keys:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(error)
        else:
            for key, result in zip(keys, results):
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(result)

    async def drain(self) -> None:
        """Wait until every dispatched batch has settled its futures."""
        while self._dispatch_tasks or self._pending or self._flush_scheduled:
            if self._dispatch_tasks:
                await asyncio.gather(
                    *list(self._dispatch_tasks), return_exceptions=True
                )
            else:
                await asyncio.sleep(0)
