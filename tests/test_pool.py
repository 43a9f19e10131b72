"""Shared buffer pool: recycling, subdivision, sharing semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BufferPool, CcnicConfig
from repro.core.buffers import Buffer
from repro.errors import PoolError
from repro.platform import System, icx
from repro.sim.rng import make_rng


def make_pool(**overrides):
    defaults = dict(pool_buffers=32, ring_slots=64)
    defaults.update(overrides)
    config = CcnicConfig(**defaults)
    system = System(icx())
    pool = BufferPool(system, config)
    host = system.new_host_core("host")
    nic = system.new_nic_core("nic")
    return system, pool, host, nic


class TestAllocFree:
    def test_alloc_returns_requested_count(self):
        _sys, pool, host, _nic = make_pool()
        bufs, ns = pool.alloc(host, [4096, 4096])
        assert len(bufs) == 2
        assert ns > 0
        assert all(b.capacity == 4096 for b in bufs)

    def test_free_and_realloc(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        again, _ = pool.alloc(host, [4096])
        assert len(again) == 1

    def test_double_free_rejected(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        with pytest.raises(PoolError):
            pool.free(host, bufs)

    def test_exhaustion_returns_partial(self):
        _sys, pool, host, _nic = make_pool(pool_buffers=4, small_buffers=False)
        bufs, _ = pool.alloc(host, [4096] * 8)
        assert len(bufs) == 4
        assert pool.stats.get("exhausted") >= 1

    def test_bad_size_rejected(self):
        _sys, pool, host, _nic = make_pool()
        with pytest.raises(PoolError):
            pool.alloc(host, [0])

    def test_buffers_are_line_aligned_addresses(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096] * 4)
        for buf in bufs:
            assert buf.addr % 64 == 0


class TestRecycling:
    def test_freed_buffer_comes_back_lifo(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096, 4096])
        pool.free(host, bufs)
        again, _ = pool.alloc(host, [4096])
        assert again[0] is bufs[-1]  # most recently freed first

    def test_stacks_are_per_side(self):
        _sys, pool, host, nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(nic, bufs)  # NIC freed it: goes to the NIC stack
        assert pool.stack_depth(nic) == 1
        assert pool.stack_depth(host) == 0
        got, _ = pool.alloc(nic, [4096])
        assert got[0] is bufs[0]

    def test_stack_fast_path_is_cheaper(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        _again, stack_ns = pool.alloc(host, [4096])
        _fresh, shared_ns = pool.alloc(host, [4096])
        assert stack_ns < shared_ns

    def test_recycling_disabled_goes_to_shared_fifo(self):
        _sys, pool, host, _nic = make_pool(buf_recycling=False, small_buffers=False)
        first, _ = pool.alloc(host, [4096])
        pool.free(host, first)
        nxt, _ = pool.alloc(host, [4096])
        # FIFO: the freed buffer goes to the back, not returned next.
        assert nxt[0] is not first[0]
        assert pool.stack_depth(host) == 0

    def test_stack_overflow_spills_to_shared(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=8, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 16)
        pool.free(host, bufs)
        assert pool.stack_depth(host) == 8
        assert pool.stats.get("shared_free") == 8


class TestSmallBuffers:
    def test_small_request_subdivides(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [64])
        assert bufs[0].small
        assert bufs[0].capacity == 128
        assert pool.stats.get("subdivisions") == 1

    def test_subdivision_yields_32_smalls(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=64)
        bufs, _ = pool.alloc(host, [64] * 32)
        assert len(bufs) == 32
        # One 4KB buffer covers all 32.
        assert pool.stats.get("subdivisions") == 1

    def test_large_request_gets_full_buffer(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [1500])
        assert not bufs[0].small
        assert bufs[0].capacity == 4096

    def test_small_buffers_disabled(self):
        _sys, pool, host, _nic = make_pool(small_buffers=False)
        bufs, _ = pool.alloc(host, [64])
        assert not bufs[0].small
        assert bufs[0].capacity == 4096

    def test_small_addresses_within_parent(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=64)
        bufs, _ = pool.alloc(host, [64] * 4)
        addrs = sorted(b.addr for b in bufs)
        assert pool.region.contains(addrs[0], 128)


class TestFillOrder:
    def test_nonseq_alloc_shuffles(self):
        _sys, pool, host, _nic = make_pool(nonseq_alloc=True, buf_recycling=False,
                                           small_buffers=False, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 8)
        addrs = [b.addr for b in bufs]
        assert addrs != sorted(addrs)

    def test_sequential_fill_when_disabled(self):
        _sys, pool, host, _nic = make_pool(nonseq_alloc=False, buf_recycling=False,
                                           small_buffers=False, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 8)
        addrs = [b.addr for b in bufs]
        assert addrs == sorted(addrs)
        assert addrs[1] - addrs[0] == 4096


class TestBufferHandle:
    def test_payload_bounds(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        buf = bufs[0]
        buf.set_payload(1500)
        assert buf.data_len == 1500
        with pytest.raises(PoolError):
            buf.set_payload(5000)
        with pytest.raises(PoolError):
            buf.set_payload(0)

    def test_segment_chain(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096, 4096])
        head, tail = bufs
        head.set_payload(64)
        tail.set_payload(1000)
        head.chain(tail)
        assert [s.buf_id for s in head.segments()] == [head.buf_id, tail.buf_id]
        assert head.total_len == 1064


class EagerPool(BufferPool):
    """Reference pool: every full buffer built and shuffled at construction."""

    def __init__(self, system, config, seed=0):
        super().__init__(system, config, seed=seed)
        buffers = [
            Buffer(addr=self.region.base + i * config.buf_size, capacity=config.buf_size)
            for i in range(config.pool_buffers)
        ]
        if config.nonseq_alloc:
            make_rng(seed, "pool-fill").shuffle(buffers)
        self._shared.clear()
        self._shared.extend(buffers)


class TestLazyBuild:
    @settings(max_examples=80, deadline=None)
    @given(
        nonseq=st.booleans(),
        recycling=st.booleans(),
        small=st.booleans(),
        pool_buffers=st.integers(min_value=1, max_value=24),
        recycle_stack_max=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ops_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_eager_pool(self, nonseq, recycling, small, pool_buffers,
                                recycle_stack_max, seed, ops_seed):
        """Same addresses in the same order, same costs, same counters."""
        config = CcnicConfig(
            pool_buffers=pool_buffers, ring_slots=64, nonseq_alloc=nonseq,
            buf_recycling=recycling, small_buffers=small,
            recycle_stack_max=recycle_stack_max,
        )
        runs = []
        for cls in (BufferPool, EagerPool):
            system = System(icx())
            pool = cls(system, config, seed=seed)
            agents = [system.new_host_core("host"), system.new_nic_core("nic")]
            ops = random.Random(ops_seed)
            held, trace = [], []
            for _ in range(60):
                agent = ops.choice(agents)
                if held and ops.random() < 0.45:
                    ops.shuffle(held)
                    count = ops.randint(1, len(held))
                    freed, held = held[:count], held[count:]
                    trace.append(("free", [b.addr for b in freed], pool.free(agent, freed)))
                else:
                    sizes = [ops.choice([64, 128, 129, 1500, 4096])
                             for _ in range(ops.randint(1, 12))]
                    bufs, ns = pool.alloc(agent, sizes)
                    held += bufs
                    trace.append(("alloc", [(b.addr, b.small) for b in bufs], ns))
                trace.append(pool.free_full_buffers)
            runs.append((trace, pool.stats.snapshot()))
        assert runs[0] == runs[1]

    def test_builds_only_allocated_buffers(self, monkeypatch):
        from repro.core import pool as pool_module

        built = []

        class CountingBuffer(Buffer):
            def __post_init__(self):
                super().__post_init__()
                if not self.small:
                    built.append(self.addr)

        monkeypatch.setattr(pool_module, "Buffer", CountingBuffer)
        _sys, pool, host, _nic = make_pool(pool_buffers=2048, small_buffers=False)
        assert built == []
        bufs, _ = pool.alloc(host, [4096] * 3)
        assert built == [b.addr for b in bufs]
        assert pool.free_full_buffers == 2045
