"""The streaming marketplace: an async service facade over ``SlotEngine``.

The paper's marketplace is online — queries arrive continuously and are
matched to sensor announcements slot by slot — but every engine in this
repo so far ran closed batch simulations.  :class:`MarketplaceService`
runs the same :class:`~repro.core.engine.SlotEngine` as a long-running
service:

* clients :meth:`~MarketplaceService.submit` queries **between** ticks;
  submissions pass admission control (bounded queue depth) and either
  get a :class:`Ticket` or a reject-with-reason;
* a slot ticker (fixed ``tick_interval`` or run-to-completion) drains up
  to ``max_admitted_per_tick`` queued queries into the next slot through
  the :class:`AdmissionStream` adapter, steps the engine once — which
  also applies fleet churn through the fleet's differential announce —
  and folds the outcome into :class:`~.metrics.ServiceMetrics`;
* the excess stays queued (backpressure), and a full queue rejects new
  submissions instead of growing without bound;
* a slot whose engine step raises fails alone: its drained queries are
  recorded as failed (:data:`SLOT_FAILED`), the failure is counted by
  error class, and :meth:`~MarketplaceService.serve` keeps ticking.

The contract that keeps the service honest is **scheduling, never
semantics**: every admission is recorded in an :class:`AdmissionTrace`,
and :func:`replay_admission_trace` re-runs the same per-slot query
sequence through an offline batch engine built from the same spec.  The
per-slot allocations must compare equal under
:func:`~repro.experiments.replay.allocation_signature` — the same
canonical query-id relabeling discipline every parity suite uses — which
``tests/test_service_parity.py`` pins across dense/grid kernels and
fused/per-row engines.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.engine import OneShotStream, SlotEngine
from ..core.metrics import SimulationSummary, SlotRecord
from ..queries import Query
from .metrics import ServiceMetrics

__all__ = [
    "REJECT_QUEUE_FULL",
    "REJECT_NOT_ACCEPTING",
    "SLOT_FAILED",
    "Ticket",
    "ServiceConfig",
    "AdmissionStream",
    "RecordedAdmissionStream",
    "AdmittedSlot",
    "FailedSlot",
    "AdmissionTrace",
    "MarketplaceService",
    "service_engine",
    "replay_admission_trace",
]

#: Rejection reasons surfaced on :class:`Ticket` and counted per-reason
#: in :class:`~.metrics.ServiceMetrics`.
REJECT_QUEUE_FULL = "queue_full"
REJECT_NOT_ACCEPTING = "not_accepting"
#: Reason carried by the admitted queries of a slot whose engine step
#: raised (:attr:`AdmissionTrace.failed`).
SLOT_FAILED = "slot_failed"

_ARRIVAL_KEYS = {"profile", "rate", "burst_rate", "period", "burst_length", "seed"}


@dataclass(frozen=True)
class Ticket:
    """Outcome of one submission: admitted to the queue, or rejected.

    ``seq`` is the service-wide arrival sequence number, assigned in
    submission order to *every* arrival (rejected ones included, so the
    recorded seqs index a regenerated arrival schedule even under load
    shedding); ``tick`` is the tick during which the query was
    submitted.  Rejected tickets additionally carry the ``reason``.
    """

    accepted: bool
    tick: int
    seq: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ServiceConfig:
    """Ticker + admission-control parameters of one service.

    Attributes:
        tick_interval: seconds between tick starts; ``0`` runs slots
            back-to-back (run-to-completion ticker).
        max_queue_depth: admission-queue bound — submissions beyond it
            are rejected with :data:`REJECT_QUEUE_FULL` (backpressure
            instead of unbounded growth).
        max_admitted_per_tick: per-tick admission cap; queued queries
            beyond it wait for later ticks.
        arrivals: optional load-generator profile (consumed by
            :class:`~.loadgen.LoadGenerator`, validated here):
            ``{"profile": "poisson"|"bursty", "rate": ..., ...}``.
    """

    tick_interval: float = 0.0
    max_queue_depth: int = 1024
    max_admitted_per_tick: int = 256
    arrivals: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_interval) and self.tick_interval >= 0):
            raise ValueError(
                f"tick_interval must be finite and >= 0, got {self.tick_interval}"
            )
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_admitted_per_tick < 1:
            raise ValueError("max_admitted_per_tick must be >= 1")
        if self.arrivals is not None:
            extra = set(self.arrivals) - _ARRIVAL_KEYS
            if extra:
                raise ValueError(f"unknown arrivals fields: {sorted(extra)}")
            profile = self.arrivals.get("profile", "poisson")
            if profile not in ("poisson", "bursty"):
                raise ValueError(
                    f"unknown arrival profile {profile!r}; "
                    "choose 'poisson' or 'bursty'"
                )

    @classmethod
    def from_payload(cls, payload: dict[str, Any] | None) -> "ServiceConfig":
        """Build (and validate) from a spec's JSON ``service`` block."""
        if payload is None:
            return cls()
        known = {"tick_interval", "max_queue_depth", "max_admitted_per_tick",
                 "arrivals"}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown service fields: {sorted(extra)}")
        kwargs = dict(payload)
        # Coerce JSON scalars so a mistyped spec fails as ValueError here
        # rather than a TypeError deep in a comparison.
        try:
            if "tick_interval" in kwargs:
                kwargs["tick_interval"] = float(kwargs["tick_interval"])
            for key in ("max_queue_depth", "max_admitted_per_tick"):
                if key in kwargs:
                    kwargs[key] = int(kwargs[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad service field value: {exc}") from exc
        if "arrivals" in kwargs and kwargs["arrivals"] is not None:
            kwargs["arrivals"] = dict(kwargs["arrivals"])
        return cls(**kwargs)


# ----------------------------------------------------------------------
# the adapter streams
# ----------------------------------------------------------------------
class AdmissionStream(OneShotStream):
    """The adapter between the admission queue and the slot engine.

    A :class:`~repro.core.engine.OneShotStream` whose "workload" is the
    batch the service loaded for the next tick: :meth:`load` stages the
    admitted queries, ``begin_slot`` drains them into the slot (in FIFO
    admission order — the order the greedy settlement depends on), and
    settlement reuses the one-shot accounting unchanged.  A tick with no
    admissions is a zero-query slot, which every engine phase must (and
    does) settle cleanly.
    """

    def __init__(self) -> None:
        super().__init__(
            workload=self, kind="admitted", record_slot_qualities=False
        )
        self._staged: list[Query] = []

    def load(self, queries: Sequence[Query]) -> None:
        self._staged.extend(queries)

    def generate(self, t: int, rng) -> list[Query]:
        staged, self._staged = self._staged, []
        return staged


class RecordedAdmissionStream(OneShotStream):
    """Replays a recorded per-slot admission sequence through an engine.

    The offline half of the parity contract: slot ``i`` of the batch
    engine emits exactly the queries slot ``i`` of the service admitted,
    in the same order.  Runs past the recording emit nothing.
    """

    def __init__(self, per_slot: Sequence[Sequence[Query]]) -> None:
        super().__init__(
            workload=self, kind="admitted", record_slot_qualities=False
        )
        self._per_slot = [list(queries) for queries in per_slot]
        self._cursor = 0

    def generate(self, t: int, rng) -> list[Query]:
        if self._cursor >= len(self._per_slot):
            return []
        queries = self._per_slot[self._cursor]
        self._cursor += 1
        return list(queries)


# ----------------------------------------------------------------------
# the admission trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmittedSlot:
    """One tick's admissions: slot index, arrival seqs, query objects."""

    t: int
    seqs: tuple[int, ...]
    queries: tuple[Query, ...]


@dataclass(frozen=True)
class FailedSlot:
    """One tick whose engine step raised: its clock, the drained arrival
    seqs (each now carries :data:`SLOT_FAILED`) and the error's class."""

    t: int
    seqs: tuple[int, ...]
    error: str
    reason: str = SLOT_FAILED


@dataclass
class AdmissionTrace:
    """The recorded admission schedule of one service run.

    Enough to replay the run offline two ways: by re-submitting the
    recorded query objects, or — the stronger contract — by regenerating
    the arrival stream from its seed and indexing it with the recorded
    ``seqs`` (:meth:`per_slot_queries` with ``queries_by_seq``).

    ``slots`` holds only the slots that ran; a tick whose engine step
    raised goes to ``failed`` instead, so it is never replayed.  The
    fleet does not advance on a failed step, so the next slot runs the
    same clock and the replayed slots stay aligned with the live ones.
    """

    slots: list[AdmittedSlot] = field(default_factory=list)
    failed: list[FailedSlot] = field(default_factory=list)

    def record(self, t: int, seqs: Sequence[int], queries: Sequence[Query]) -> None:
        self.slots.append(AdmittedSlot(t, tuple(seqs), tuple(queries)))

    def record_failure(self, t: int, seqs: Sequence[int], error: str) -> None:
        self.failed.append(FailedSlot(t, tuple(seqs), error))

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def total_admitted(self) -> int:
        return sum(len(s.seqs) for s in self.slots)

    def per_slot_queries(
        self, queries_by_seq: Sequence[Query] | None = None
    ) -> list[list[Query]]:
        """The per-slot query lists to feed an offline replay engine.

        With ``queries_by_seq`` (an independently regenerated arrival
        stream indexed by arrival sequence number), the recorded seqs
        select from it — fresh query objects with fresh ids, which is
        exactly what the relabeling parity discipline absorbs.  Without
        it, the recorded objects themselves are replayed.
        """
        if queries_by_seq is None:
            return [list(s.queries) for s in self.slots]
        return [[queries_by_seq[seq] for seq in s.seqs] for s in self.slots]


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
def service_engine(spec) -> tuple[SlotEngine, AdmissionStream, list]:
    """Compile a spec into a service-ready engine.

    Reuses the spec's whole compilation path (world, fleet, allocator),
    then swaps the declared one-shot streams for a single :class:`AdmissionStream` — their workloads are
    returned as the arrival templates the load generator draws queries
    from.  Monitoring/event streams own live cross-slot query state the
    admission queue cannot schedule, so specs declaring them are
    rejected here.
    """
    engine = spec.build()
    workloads = []
    for stream in engine.streams:
        if type(stream) is not OneShotStream:
            raise ValueError(
                "the marketplace service admits one-shot queries only; "
                f"drop the {stream.kind!r} stream from the spec"
            )
        workloads.append((stream.kind, stream.workload))
    admission = AdmissionStream()
    engine.streams = [admission]
    return engine, admission, workloads


@dataclass
class _Pending:
    seq: int
    query: Query
    submitted_tick: int


class MarketplaceService:
    """A long-running marketplace over one :class:`SlotEngine`.

    The synchronous core is :meth:`tick_once` (drain admissions → step
    the engine → observe metrics/trace); :meth:`serve` wraps it in an
    asyncio ticker that paces ticks at ``config.tick_interval`` and
    yields to the event loop between them so submitters interleave.
    Parity artifacts are kept as they accrue: :attr:`trace` records
    every admission, :attr:`slot_signatures` every slot's canonical
    allocation signature.  Those two and the per-slot rows of
    :attr:`metrics` are the service's only per-tick growth (they carry
    the replay contract); slot geometry (kernel, grid index, coverage
    rows) lives for one slot and is gone when :meth:`tick_once` returns.
    """

    def __init__(self, engine: SlotEngine, admission: AdmissionStream,
                 config: ServiceConfig | None = None, *,
                 workloads: list | None = None) -> None:
        from ..experiments.replay import allocation_signature

        self.engine = engine
        self.admission = admission
        self.config = config if config is not None else ServiceConfig()
        self.workloads = list(workloads or [])
        self.metrics = ServiceMetrics()
        self.summary = SimulationSummary()
        self.trace = AdmissionTrace()
        self.slot_signatures: list = []
        self._signature = allocation_signature
        self._queue: list[_Pending] = []
        self._next_seq = 0
        self._accepting = True
        self.ticks = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec, **overrides) -> "MarketplaceService":
        """Build from a :class:`~repro.datasets.ScenarioSpec`.

        The spec's ``service`` block provides the config; keyword
        overrides (``tick_interval``, ``max_queue_depth``,
        ``max_admitted_per_tick``) replace individual fields.
        """
        import dataclasses

        config = ServiceConfig.from_payload(getattr(spec, "service", None))
        if overrides:
            config = dataclasses.replace(config, **overrides)
        engine, admission, workloads = service_engine(spec)
        return cls(engine, admission, config, workloads=workloads)

    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """The engine's slot clock (the tick submissions are stamped with)."""
        return self.engine.fleet.clock

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def accepting(self) -> bool:
        return self._accepting

    def submit(self, query: Query) -> Ticket:
        """Admission control: queue the query for a future tick, or reject.

        Queue-full and shutdown rejections return immediately with a
        reason (and are counted per reason) — backpressure is explicit,
        never an unbounded queue.
        """
        # Every arrival consumes a sequence number, rejected or not —
        # ``seq`` is the position in the arrival stream, which is what
        # lets an offline replay index a regenerated schedule even when
        # the live run shed load.
        seq = self._next_seq
        self._next_seq += 1
        if not self._accepting:
            self.metrics.observe_submit(False, REJECT_NOT_ACCEPTING)
            return Ticket(False, self.tick, seq=seq, reason=REJECT_NOT_ACCEPTING)
        if len(self._queue) >= self.config.max_queue_depth:
            self.metrics.observe_submit(False, REJECT_QUEUE_FULL)
            return Ticket(False, self.tick, seq=seq, reason=REJECT_QUEUE_FULL)
        self._queue.append(_Pending(seq, query, self.tick))
        self.metrics.observe_submit(True)
        return Ticket(True, self.tick, seq=seq)

    # ------------------------------------------------------------------
    def tick_once(self) -> SlotRecord:
        """Run one slot: drain admissions, step the engine, observe.

        The per-tick admission cap bounds slot size; everything else
        stays queued.  Fleet churn advances inside the engine step, and
        the slot's
        allocation signature + admission record are appended to the
        parity artifacts.

        If the engine step raises, the drained queries are recorded as
        failed (:meth:`AdmissionTrace.record_failure`, reason
        :data:`SLOT_FAILED`), the failure is counted under the error's
        class, and the exception propagates to the caller.  The service
        stays consistent: nothing of the slot reaches the replayed trace
        or the signatures, and the fleet has not advanced (``advance`` is
        the step's last act), so the next tick re-runs the same clock.
        """
        t = self.tick
        cap = self.config.max_admitted_per_tick
        drained, self._queue = self._queue[:cap], self._queue[cap:]
        rejected_before = self.metrics.rejected_total
        seqs = [p.seq for p in drained]
        queries = [p.query for p in drained]
        self.admission.load(queries)
        self.metrics.observe_admission([t - p.submitted_tick for p in drained])
        try:
            record = self.engine.step(self.summary)
        except Exception as exc:
            error = type(exc).__name__
            self.trace.record_failure(t, seqs, error)
            self.metrics.observe_failure(
                t,
                error,
                admitted=len(drained),
                rejected=self.metrics.rejected_total - rejected_before,
                queue_depth=len(self._queue),
            )
            raise
        self.trace.record(t, seqs, queries)
        self.slot_signatures.append(self._signature(self.engine.last_result))
        self.ticks += 1
        self.metrics.observe_slot(
            t,
            admitted=len(drained),
            rejected=self.metrics.rejected_total - rejected_before,
            queue_depth=len(self._queue),
            record=record,
            timings=self.engine.last_timings,
        )
        return record

    async def serve(self, n_slots: int | None = None) -> None:
        """The asyncio ticker: pace :meth:`tick_once` until done/stopped.

        A fixed ``tick_interval`` sleeps off the remainder of each tick
        (a slow slot just starts the next tick immediately — latency
        shows in the histograms, the ticker never queues ticks); an
        interval of 0 runs slots back-to-back, still yielding to the
        loop between ticks so submitters get scheduled.  A tick that
        raises is counted (:meth:`tick_once` records it) and counts
        towards ``n_slots``; the ticker carries on.
        """
        done = 0
        while self._accepting and (n_slots is None or done < n_slots):
            started = time.perf_counter()
            try:
                self.tick_once()
            except Exception:
                pass  # already recorded as a failed slot by tick_once
            done += 1
            remaining = self.config.tick_interval - (time.perf_counter() - started)
            await asyncio.sleep(remaining if remaining > 0 else 0)

    def stop(self) -> None:
        """Stop accepting: in-flight queue drains on subsequent ticks."""
        self._accepting = False


# ----------------------------------------------------------------------
# the offline half of the parity contract
# ----------------------------------------------------------------------
def replay_admission_trace(
    spec,
    trace: AdmissionTrace,
    queries_by_seq: Sequence[Query] | None = None,
) -> list:
    """Batch-replay a recorded admission trace; return per-slot signatures.

    Builds a fresh engine from the same spec (identical world, fleet
    seed and knobs), feeds it the trace's per-slot query sequence
    through a :class:`RecordedAdmissionStream`, and returns each slot's
    :func:`~repro.experiments.replay.allocation_signature`.  The service
    is a scheduling/transport layer exactly when these compare ``==`` to
    the service's own :attr:`MarketplaceService.slot_signatures`.
    """
    from ..experiments.replay import allocation_signature

    engine = spec.build()
    engine.streams = [
        RecordedAdmissionStream(trace.per_slot_queries(queries_by_seq))
    ]
    summary = SimulationSummary()
    signatures = []
    for _ in range(trace.n_slots):
        engine.step(summary)
        signatures.append(allocation_signature(engine.last_result))
    return signatures
