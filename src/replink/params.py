"""Physical link parameters and derived quantities.

Every duration in the package is an exact integer count of picoseconds so
that round times and event ordering are deterministic. The link physics
here takes plain floats, whose ranges ``cli.Scenario`` declares and checks.
The composite transmission probabilities follow the usual decomposition
for heralded two-photon links: an interface factor (emission into the
collected mode times collection efficiency), fiber transmission over half
the span, and the analyzer success, at most one half for linear optics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ConfigurationError",
    "Duration",
    "MemoryBudget",
    "ProtocolKind",
    "ProtocolConfig",
    "validate_probability",
    "link_delay",
    "optical_transmission",
    "link_success_probability",
    "mps_success_probability",
]

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


class ConfigurationError(ValueError):
    """Raised for invalid parameters, presets, or scenario combinations."""


def validate_probability(value, name: str = "probability") -> float:
    x = float(value)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def _whole_ps(ps, name: str, given: str) -> int:
    """``ps`` rounded to whole picoseconds; a configuration error naming the
    quantity ``name`` (``given`` as set) if that count is not finite."""
    try:
        return round(ps)
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ConfigurationError(
            f"{name} must round to a finite number of picoseconds, got {given}"
        ) from None


@dataclass(frozen=True, order=True)
class Duration:
    """Non-negative time span stored as an exact picosecond count.

    Sums and integer multiples are exact; nothing is ever rounded below
    one picosecond.
    """

    ps: int

    def __post_init__(self):
        ps = operator.index(self.ps)
        if ps < 0:
            raise ConfigurationError(f"durations cannot be negative, got {ps} ps")
        object.__setattr__(self, "ps", ps)

    @classmethod
    def from_ns(cls, value) -> "Duration":
        return cls(_whole_ps(value * 1_000, "duration", f"{value!r} ns"))

    @classmethod
    def from_us(cls, value) -> "Duration":
        return cls(_whole_ps(value * 1_000_000, "duration", f"{value!r} us"))

    @classmethod
    def from_ms(cls, value) -> "Duration":
        return cls(_whole_ps(value * 1_000_000_000, "duration", f"{value!r} ms"))

    @property
    def seconds(self) -> float:
        return self.ps / 1e12

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.ps + other.ps)

    def __sub__(self, other: "Duration") -> "Duration":
        return Duration(self.ps - other.ps)

    def __mul__(self, factor) -> "Duration":
        return Duration(self.ps * operator.index(factor))

    __rmul__ = __mul__

    def __floordiv__(self, other: "Duration") -> int:
        return self.ps // other.ps

    def __truediv__(self, other: "Duration") -> float:
        return self.ps / other.ps

    def __bool__(self) -> bool:
        return self.ps != 0


@dataclass(frozen=True)
class MemoryBudget:
    """Memory qubits committed to one link, by role."""

    n_per_side: int = 0
    n_sender: int = 0
    n_receiver: int = 0

    def __post_init__(self):
        for name in ("n_per_side", "n_sender", "n_receiver"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    @classmethod
    def symmetric(cls, n: int) -> "MemoryBudget":
        return cls(n_per_side=n, n_sender=n, n_receiver=n)

    @classmethod
    def sender_receiver(cls, n_sender: int, n_receiver: int) -> "MemoryBudget":
        return cls(
            n_per_side=(n_sender + n_receiver) // 2,
            n_sender=n_sender,
            n_receiver=n_receiver,
        )


class ProtocolKind(str, Enum):
    MITM = "mitm"
    SR = "sr"
    MPS = "mps"


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol selector plus the memory budget it runs with."""

    kind: ProtocolKind
    memory: MemoryBudget
    k_attempts: int | None = None

    def __post_init__(self):
        if self.kind is ProtocolKind.MPS:
            if self.k_attempts is None or self.k_attempts < 1:
                raise ConfigurationError(
                    "midpoint-source configs need k_attempts >= 1 latch attempts per bin"
                )
        elif self.k_attempts is not None:
            raise ConfigurationError(f"k_attempts is only meaningful for mps, not {self.kind.value}")


def link_delay(length_m: float, refractive_index: float) -> Duration:
    """One-way signal delay n*L/c, rounded to the nearest picosecond."""
    seconds = refractive_index * length_m / SPEED_OF_LIGHT_M_PER_S
    given = f"n*L/c = {seconds!r} s (n = {refractive_index!r}, L = {length_m!r} m)"
    return Duration(_whole_ps(seconds * 1e12, "the link delay", given))


def optical_transmission(emission_fraction: float, collection_efficiency: float,
                         length_m: float, attenuation_length_m: float) -> float:
    """Probability a photon survives the interface and half the fiber span:
    emitted into the collected mode, coupled into fiber (frequency
    conversion losses folded in), then transmitted with exp(-L / 2 L_att)."""
    fiber = math.exp(-length_m / (2.0 * attenuation_length_m))
    return emission_fraction * collection_efficiency * fiber


def link_success_probability(p_bsa: float, p_optical: float) -> float:
    """Per-attempt success for the two-sender arrangements: p_bsa * p_optical^2."""
    return p_bsa * p_optical * p_optical


def mps_success_probability(p_bsa: float, p_optical: float) -> float:
    """Midpoint-source side probability: one emitted photon is latched by
    its receiver with probability p_bsa * p_optical."""
    return p_bsa * p_optical
