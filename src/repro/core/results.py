"""Typed result objects for the data-plane burst API.

The driver methods historically returned bare tuples (``(bufs, ns)``,
``(sent, ns)``, ``(entries, ns)``), which made call sites positional and
easy to mis-unpack. These frozen dataclasses name the fields — every
result carries ``count`` and ``ns``, plus the payload (``bufs`` or
``entries``) where one exists.

Backward compatibility: each class still tuple-unpacks exactly like the
old return value (``sent, ns = driver.tx_burst(...)``) via ``__iter__``.
That path is deprecated and now emits a one-shot
:class:`DeprecationWarning` per result class — once per process, not per
burst, so a hot loop that still unpacks warns exactly once instead of
drowning the run. New code should use the named attributes.

These objects are constructed on every burst call, including the empty
polls that dominate a latency-bound run, so they are kept deliberately
lean: two fields, ``count`` derived lazily, and the payload sequence
stored as passed (drivers hand over a fresh list they never reuse).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Iterator, Sequence, Set, Tuple

from repro.core.buffers import Buffer

#: Result classes that already warned about tuple unpacking (one-shot).
_WARNED_CLASSES: Set[str] = set()


def _warn_tuple_unpack(cls_name: str) -> None:
    """Emit the tuple-unpack DeprecationWarning once per result class."""
    if cls_name in _WARNED_CLASSES:
        return
    _WARNED_CLASSES.add(cls_name)
    warnings.warn(
        f"tuple-unpacking {cls_name} is deprecated; use the named "
        f"attributes instead (e.g. result.count, result.ns)",
        DeprecationWarning,
        stacklevel=3,
    )


def reset_tuple_unpack_warnings() -> None:
    """Re-arm the one-shot unpack warnings (for tests)."""
    _WARNED_CLASSES.clear()


# slots=True makes construction and attribute reads measurably cheaper.
@dataclass(frozen=True, slots=True)
class AllocResult:
    """Outcome of a buffer allocation.

    ``count`` may be smaller than the number of requested sizes: pool
    exhaustion yields a partial allocation (DPDK mempool semantics),
    never an exception.
    """

    bufs: Sequence[Buffer]
    ns: float

    @property
    def count(self) -> int:
        return len(self.bufs)

    def __bool__(self) -> bool:
        return len(self.bufs) > 0

    def __iter__(self) -> Iterator[Any]:
        """Deprecated tuple-unpack compatibility: ``bufs, ns = ...``."""
        _warn_tuple_unpack("AllocResult")
        yield list(self.bufs)
        yield self.ns


@dataclass(frozen=True, slots=True)
class TxResult:
    """Outcome of a TX burst: packets accepted onto the ring."""

    count: int
    ns: float

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self) -> Iterator[Any]:
        """Deprecated tuple-unpack compatibility: ``sent, ns = ...``."""
        _warn_tuple_unpack("TxResult")
        yield self.count
        yield self.ns


@dataclass(frozen=True, slots=True)
class RxResult:
    """Outcome of an RX poll: ``entries`` is (packet, buffer) pairs."""

    entries: Sequence[Tuple[Any, Buffer]]
    ns: float

    @property
    def count(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return len(self.entries) > 0

    def __iter__(self) -> Iterator[Any]:
        """Deprecated tuple-unpack compatibility: ``entries, ns = ...``."""
        _warn_tuple_unpack("RxResult")
        yield list(self.entries)
        yield self.ns
