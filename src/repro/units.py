"""Unit helpers and conversions.

The simulator's clock is in **nanoseconds** (floats). Capacities are in
**bytes**; link speeds in **bytes per nanosecond** (1 B/ns == 8 Gbps).
These helpers keep the arithmetic explicit at call sites.
"""

# Sizes.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# Times, expressed in the simulator's nanosecond unit.
NS = 1.0
US = 1_000.0
MS = 1_000_000.0
S = 1_000_000_000.0

from repro.errors import ConfigError

CACHE_LINE = 64


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert gigabits/second to bytes/nanosecond."""
    return gbps / 8.0


def bytes_per_ns_to_gbps(bpns: float) -> float:
    """Convert bytes/nanosecond to gigabits/second."""
    return bpns * 8.0


def mpps(packets: float, elapsed_ns: float) -> float:
    """Packet rate in millions of packets per second."""
    if elapsed_ns <= 0:
        return 0.0
    return packets / elapsed_ns * 1e3


def gbps(byte_count: float, elapsed_ns: float) -> float:
    """Data rate in gigabits per second."""
    if elapsed_ns <= 0:
        return 0.0
    return byte_count * 8.0 / elapsed_ns


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ConfigError("alignment must be positive")
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ConfigError("alignment must be positive")
    return value // alignment * alignment


def is_aligned(value: int, alignment: int) -> bool:
    """Return True if ``value`` is a multiple of ``alignment``."""
    return alignment > 0 and value % alignment == 0
