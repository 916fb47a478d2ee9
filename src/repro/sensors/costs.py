"""Sensor cost models (Section 2.4, eqs. 8, 14, 15).

The price a sensor announces for one measurement is the sum of an *energy*
component and a *privacy* component::

    c_s(E_s, H_s, l_s) = c_e(E_s) + c_p(p_s(H_s, l_s))      (eq. 8)

The paper's experiments use two energy models (Section 4.1):

* **fixed**:  ``c_e(E) = C_s``
* **linear**: ``c_e(E) = C_s * (1 + beta * (1 - E))`` — price climbs as the
  battery drains.

and a windowed privacy-loss model (eq. 14) that penalizes reporting in
consecutive slots, scaled by a discrete privacy sensitivity level (eq. 15).

These scalar models are the slot protocol's executable reference: the
array-backed fleet (:class:`~repro.sensors.state.FleetState`) prices whole
announcement batches with the same formulas vectorized — same per-element
operation order, and the eq.-14 accumulation is exact small-integer float
arithmetic — so batch prices are bit-identical to calling these models
sensor by sensor (pinned by ``tests/test_fleet_batch_parity.py``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

__all__ = [
    "EnergyCostModel",
    "FixedEnergyCost",
    "LinearEnergyCost",
    "PrivacySensitivity",
    "privacy_loss",
    "PrivacyCostModel",
    "total_cost",
]


class EnergyCostModel(Protocol):
    """Maps remaining energy ``E in [0, 1]`` to a price component."""

    def __call__(self, remaining_energy: float) -> float: ...


@dataclass(frozen=True)
class FixedEnergyCost:
    """``c_e(E) = C_s`` — the paper's default (Section 4.1, ``C_s = 10``)."""

    base_price: float = 10.0

    def __post_init__(self) -> None:
        _validate_price(self.base_price)

    def __call__(self, remaining_energy: float) -> float:
        _validate_energy(remaining_energy)
        return self.base_price


@dataclass(frozen=True)
class LinearEnergyCost:
    """``c_e(E) = C_s * (1 + beta * (1 - E))``.

    ``beta`` is the cost-increment factor; the paper's Figure 6/10
    experiments draw it uniformly from ``[0, 4]`` per sensor.
    """

    base_price: float = 10.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        _validate_price(self.base_price)
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")

    def __call__(self, remaining_energy: float) -> float:
        _validate_energy(remaining_energy)
        return self.base_price * (1.0 + self.beta * (1.0 - remaining_energy))


class PrivacySensitivity(enum.Enum):
    """The five privacy sensitivity levels of Section 4.1."""

    ZERO = 0.0
    LOW = 0.25
    MODERATE = 0.5
    HIGH = 0.75
    VERY_HIGH = 1.0

    @classmethod
    def from_value(cls, value: float) -> "PrivacySensitivity":
        """Map a numeric level back to the enum (exact match required)."""
        for level in cls:
            if level.value == value:
                return level
        raise ValueError(f"{value!r} is not a defined privacy sensitivity level")


def privacy_loss(history: Sequence[int], now: int, window: int) -> float:
    """Windowed privacy loss ``p_s(H_s)`` of eq. (14).

    ``history`` holds the time slots at which the sensor previously reported
    a measurement; ``window`` is the privacy window ``w``.  The loss is the
    weighted average of time distances between past reports and ``now``,
    with recent reports weighted more, normalized so that reporting in every
    one of the last ``w`` slots yields a loss of 1::

        p = (w + sum_{t' in H} (w - (now - t'))) / (w * (w + 1) / 2)

    The leading ``w`` term is the weight of the report the sensor is being
    asked to make *now* (distance 0).  Reports older than ``w`` slots have
    fallen out of the window and contribute nothing.
    """
    if window < 1:
        raise ValueError("privacy window must be >= 1")
    weighted = float(window)
    for t_prime in history:
        age = now - t_prime
        if age < 0:
            raise ValueError(f"history contains future report time {t_prime} > now={now}")
        if 0 <= age <= window:
            weighted += window - age
    return weighted / (window * (window + 1) / 2.0)


@dataclass(frozen=True)
class PrivacyCostModel:
    """``c_p = PSL_s * p_s(H_s, l_s) * C_s`` (eq. 15)."""

    sensitivity: PrivacySensitivity = PrivacySensitivity.ZERO
    base_price: float = 10.0
    window: int = 5

    def __post_init__(self) -> None:
        _validate_price(self.base_price)
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def __call__(self, history: Sequence[int], now: int) -> float:
        if self.sensitivity is PrivacySensitivity.ZERO:
            return 0.0
        return self.sensitivity.value * privacy_loss(history, now, self.window) * self.base_price


def total_cost(
    energy_model: EnergyCostModel,
    privacy_model: PrivacyCostModel,
    remaining_energy: float,
    history: Sequence[int],
    now: int,
) -> float:
    """Full announced price ``c_s`` per eq. (8)."""
    return energy_model(remaining_energy) + privacy_model(history, now)


def _validate_energy(remaining_energy: float) -> None:
    if not (0.0 <= remaining_energy <= 1.0):
        raise ValueError(f"remaining energy must be in [0, 1], got {remaining_energy}")


def _validate_price(base_price: float) -> None:
    if not (math.isfinite(base_price) and base_price >= 0):
        raise ValueError(f"base_price must be finite and non-negative, got {base_price}")
