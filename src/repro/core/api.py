"""Functional data-plane API mirroring the paper's Figure 5.

The C interface::

    int  ccnic_buf_alloc(struct ccnic_pool *pool, struct ccnic_buf **bufs, unsigned count);
    void ccnic_buf_free(struct ccnic_pool *pool, struct ccnic_buf **bufs, unsigned count);
    int  ccnic_tx_burst(int txq_index, struct ccnic_buf **bufs, unsigned count);
    int  ccnic_rx_burst(int rxq_index, struct ccnic_buf **bufs, unsigned count);

maps to these functions. The C ``count`` argument is implied here by
``len(sizes)`` (buf_alloc) or the entry list length (tx_burst), so it is
not a separate parameter. Because this is a simulation, each call also
returns the nanoseconds of host-core time it cost (the ``ns`` field of
the result); simulation processes yield that value.

Semantics match DPDK mempool/ethdev burst APIs: partial success returns
a smaller count — an exhausted pool or a full ring is an expected
outcome, never an exception. (Submitting a malformed buffer, e.g. one
without a payload, is a programming error and does raise.)

Results are typed (:class:`~repro.core.results.AllocResult`,
:class:`~repro.core.results.TxResult`,
:class:`~repro.core.results.RxResult`) and read by attribute.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.coherence.cache import CacheAgent
from repro.core.buffers import Buffer
from repro.core.driver import CcnicDriver
from repro.core.pool import BufferPool
from repro.core.results import AllocResult, RxResult, TxResult
from repro.workloads.packets import Packet


def buf_alloc(
    pool: BufferPool,
    agent: CacheAgent,
    sizes: Sequence[int],
) -> AllocResult:
    """Allocate one buffer per payload size.

    An exhausted pool yields fewer buffers than requested
    (``result.count < len(sizes)``); it never raises.
    """
    bufs, ns = pool.alloc(agent, sizes)
    return AllocResult(bufs, ns)


def buf_free(pool: BufferPool, agent: CacheAgent, bufs: Sequence[Buffer]) -> float:
    """Return buffers to the pool."""
    return pool.free(agent, bufs)


def tx_burst(
    driver: CcnicDriver,
    entries: Sequence[Tuple[Buffer, Packet]],
) -> TxResult:
    """Submit a burst of (buffer, packet) pairs on the driver's TX queue."""
    return driver.tx_burst(entries)


def rx_burst(
    driver: CcnicDriver,
    count: int,
) -> RxResult:
    """Receive up to ``count`` packets from the driver's RX queue."""
    return driver.rx_burst(count)
