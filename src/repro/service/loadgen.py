"""Open-loop load generation for the marketplace service.

An open-loop generator submits arrivals on its own clock, independent of
how fast the service settles slots — the regime where admission control
and backpressure actually matter (a closed-loop driver would politely
slow down instead of saturating the queue).

Two arrival profiles cover the curated scenarios:

* :class:`PoissonProfile` — stationary Poisson arrivals at ``rate`` per
  tick;
* :class:`BurstyProfile` — a base Poisson rate with periodic bursts
  (``burst_rate`` for ``burst_length`` ticks every ``period``), the
  metro-rush-hour shape ``examples/specs/metro_burst.json`` declares.

Arrival *queries* are drawn from the spec's declared stream workloads
(:class:`WorkloadArrivals` buffers their batch generators and deals the
queries out one arrival at a time, round-robin across streams), so the
generated demand has exactly the spatial/budget shape of the scenario.

Everything is seeded: :meth:`LoadGenerator.schedule` regenerates the
identical arrival stream from the same config, which is how the parity
suite rebuilds ``queries_by_seq`` for the offline replay without ever
touching the service's recorded objects.
"""

from __future__ import annotations

import abc
import asyncio
import math
from typing import Any, Sequence

import numpy as np

from ..queries import Query
from .marketplace import MarketplaceService

__all__ = [
    "ArrivalProfile",
    "PoissonProfile",
    "BurstyProfile",
    "profile_from_payload",
    "WorkloadArrivals",
    "LoadGenerator",
]


def _require_rate(name: str, rate: float) -> float:
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {rate}")
    return float(rate)


class ArrivalProfile(abc.ABC):
    """Per-tick arrival counts of an open-loop workload."""

    @abc.abstractmethod
    def count(self, tick: int, rng: np.random.Generator) -> int:
        """How many queries arrive during ``tick``."""


class PoissonProfile(ArrivalProfile):
    """Stationary Poisson arrivals: ``count ~ Poisson(rate)`` per tick."""

    def __init__(self, rate: float) -> None:
        self.rate = _require_rate("rate", rate)

    def count(self, tick: int, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.rate))

    def __repr__(self) -> str:
        return f"PoissonProfile(rate={self.rate})"


class BurstyProfile(ArrivalProfile):
    """Periodic bursts over a Poisson base load.

    Ticks ``t`` with ``t % period < burst_length`` draw from
    ``Poisson(burst_rate)``, the rest from ``Poisson(rate)`` — rush-hour
    demand against a quiet background.
    """

    def __init__(
        self,
        rate: float,
        burst_rate: float,
        period: int = 8,
        burst_length: int = 2,
    ) -> None:
        self.rate = _require_rate("rate", rate)
        self.burst_rate = _require_rate("burst_rate", burst_rate)
        if period < 1 or not (0 < burst_length <= period):
            raise ValueError("need period >= 1 and 0 < burst_length <= period")
        self.period = int(period)
        self.burst_length = int(burst_length)

    def count(self, tick: int, rng: np.random.Generator) -> int:
        rate = self.burst_rate if tick % self.period < self.burst_length else self.rate
        return int(rng.poisson(rate))

    def __repr__(self) -> str:
        return (
            f"BurstyProfile(rate={self.rate}, burst_rate={self.burst_rate}, "
            f"period={self.period}, burst_length={self.burst_length})"
        )


def profile_from_payload(payload: dict[str, Any]) -> tuple[ArrivalProfile, int]:
    """An arrival profile + seed from a spec's ``service.arrivals`` block."""
    payload = dict(payload)
    kind = payload.pop("profile", "poisson")
    seed = int(payload.pop("seed", 0))
    if kind == "poisson":
        profile: ArrivalProfile = PoissonProfile(payload.pop("rate", 16.0))
    elif kind == "bursty":
        profile = BurstyProfile(
            rate=payload.pop("rate", 8.0),
            burst_rate=payload.pop("burst_rate", 64.0),
            period=payload.pop("period", 8),
            burst_length=payload.pop("burst_length", 2),
        )
    else:
        raise ValueError(f"unknown arrival profile {kind!r}")
    if payload:
        raise ValueError(f"unknown arrival fields: {sorted(payload)}")
    return profile, seed


class WorkloadArrivals:
    """Deals single queries from batch workload generators.

    The spec's stream workloads emit whole per-slot batches; an arrival
    process needs one query at a time.  This buffers each workload's
    batches and deals arrivals round-robin across streams, refilling a
    stream's buffer (one ``generate`` call, stamped with the current
    tick) whenever its turn comes up empty.  Same rng + same ``take``
    sequence ⇒ the identical query stream, which the replay side relies
    on.
    """

    def __init__(self, workloads: Sequence[tuple[str, Any]]) -> None:
        if not workloads:
            raise ValueError("need at least one arrival workload")
        self._workloads = [workload for _, workload in workloads]
        self._buffers: list[list[Query]] = [[] for _ in self._workloads]
        self._turn = 0

    def take(self, k: int, tick: int, rng: np.random.Generator) -> list[Query]:
        out: list[Query] = []
        dry = 0
        while len(out) < k and dry < len(self._workloads):
            idx = self._turn % len(self._workloads)
            self._turn += 1
            buffer = self._buffers[idx]
            if not buffer:
                buffer.extend(self._workloads[idx].generate(tick, rng))
                if not buffer:  # e.g. n_queries=0 — skip, stop if all dry
                    dry += 1
                    continue
            dry = 0
            out.append(buffer.pop(0))
        return out


class LoadGenerator:
    """Seeded open-loop driver: arrival schedule + service submission.

    Args:
        profile: the per-tick arrival-count process.
        workloads: ``(kind, workload)`` pairs (a service's
            :attr:`~.marketplace.MarketplaceService.workloads`).
        seed: drives both the counts and the query draws (a non-negative
            integer); two generators with equal config produce identical
            schedules.
    """

    def __init__(
        self,
        profile: ArrivalProfile,
        workloads: Sequence[tuple[str, Any]],
        seed: int = 0,
    ) -> None:
        if int(seed) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.profile = profile
        self.workloads = list(workloads)
        self.seed = int(seed)

    @classmethod
    def for_service(
        cls,
        service: MarketplaceService,
        *,
        profile: ArrivalProfile | None = None,
        seed: int | None = None,
    ) -> "LoadGenerator":
        """Build from a service's spec config (``service.arrivals``)."""
        cfg_profile, cfg_seed = (
            profile_from_payload(service.config.arrivals)
            if service.config.arrivals is not None
            else (PoissonProfile(16.0), 0)
        )
        return cls(
            profile if profile is not None else cfg_profile,
            service.workloads,
            seed if seed is not None else cfg_seed,
        )

    # ------------------------------------------------------------------
    def schedule(self, n_ticks: int) -> list[list[Query]]:
        """The deterministic per-tick arrival batches for ``n_ticks``.

        Regenerating with the same config yields bitwise-identical query
        parameters (fresh objects, fresh ids) — the ``queries_by_seq``
        input of :func:`~.marketplace.replay_admission_trace` is this,
        flattened.
        """
        rng = np.random.default_rng(self.seed)
        dealer = WorkloadArrivals(self.workloads)
        return [
            dealer.take(self.profile.count(tick, rng), tick, rng)
            for tick in range(n_ticks)
        ]

    def drive(self, service: MarketplaceService, n_ticks: int) -> None:
        """Synchronous open-loop run: submit each tick's arrivals, tick.

        Arrivals for tick ``i`` are submitted before tick ``i`` runs, so
        the queue sees the full burst and admission control has to act.
        Rejections land in the service metrics; this never blocks on
        them (open loop).
        """
        for batch in self.schedule(n_ticks):
            for query in batch:
                service.submit(query)
            service.tick_once()

    async def drive_async(
        self, service: MarketplaceService, n_ticks: int,
        interval: float | None = None,
    ) -> None:
        """Async submitter for a service already ticking via ``serve()``.

        Submits each tick's batch, then sleeps ``interval`` (default:
        the service's tick interval) — yielding between batches so the
        ticker task interleaves.
        """
        pace = service.config.tick_interval if interval is None else interval
        for batch in self.schedule(n_ticks):
            for query in batch:
                service.submit(query)
            await asyncio.sleep(pace if pace > 0 else 0)
