"""The streaming marketplace service: async slot ticker + admission control.

The long-running facade over :class:`~repro.core.engine.SlotEngine` — see
:mod:`repro.service.marketplace` for the service and the parity contract,
:mod:`repro.service.metrics` for the SLO observability layer, and
:mod:`repro.service.loadgen` for the open-loop arrival generators.
"""

from .loadgen import (
    ArrivalProfile,
    BurstyProfile,
    LoadGenerator,
    PoissonProfile,
    WorkloadArrivals,
    profile_from_payload,
)
from .marketplace import (
    REJECT_NOT_ACCEPTING,
    REJECT_QUEUE_FULL,
    SLOT_FAILED,
    AdmissionStream,
    AdmissionTrace,
    AdmittedSlot,
    FailedSlot,
    MarketplaceService,
    RecordedAdmissionStream,
    ServiceConfig,
    Ticket,
    replay_admission_trace,
    service_engine,
)
from .metrics import (
    LatencyHistogram,
    ServiceMetrics,
    SlotMetrics,
    phase_totals,
    summary_payload,
)

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
    "ArrivalProfile",
    "PoissonProfile",
    "BurstyProfile",
    "profile_from_payload",
    "WorkloadArrivals",
    "LoadGenerator",
    "LatencyHistogram",
    "SlotMetrics",
    "ServiceMetrics",
    "phase_totals",
    "summary_payload",
]
