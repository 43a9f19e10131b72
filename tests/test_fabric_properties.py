"""Property-based tests: the protocol never violates MESIF invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import CoherenceFabric, CostModel, LineState
from repro.interconnect import Link
from repro.mem import AddressSpace
from repro.sim import Simulator

COST = CostModel(
    l2_hit=5.0,
    local_cache=48.0,
    local_dram=72.0,
    remote_dram=144.0,
    remote_cache_writer_homed=114.0,
    remote_cache_reader_homed=119.0,
    local_invalidate=30.0,
    remote_invalidate=100.0,
)

N_LINES = 16

op_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),     # agent index
    st.integers(min_value=0, max_value=N_LINES - 1),  # line index
    st.sampled_from(["read", "write", "nt", "flush"]),
)


def build():
    sim = Simulator()
    space = AddressSpace()
    link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
    fabric = CoherenceFabric(sim, space, COST, link)
    agents = [
        fabric.new_agent("a0", socket=0, capacity_lines=8),
        fabric.new_agent("a1", socket=0, capacity_lines=8),
        fabric.new_agent("b0", socket=1, capacity_lines=8),
        fabric.new_agent("b1", socket=1, capacity_lines=8),
    ]
    regions = [
        space.allocate("h0", 64 * (N_LINES // 2), home=0),
        space.allocate("h1", 64 * (N_LINES // 2), home=1),
    ]
    def addr_of(i):
        region = regions[i % 2]
        return region.base + (i // 2) * 64
    return fabric, agents, addr_of


@settings(max_examples=120, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=120))
def test_random_operations_preserve_invariants(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "read":
            fabric.read(agent, addr, 64)
        elif op == "write":
            fabric.write(agent, addr, 64)
        elif op == "nt":
            fabric.nt_store(agent, addr, 64)
        else:
            fabric.flush(agent, addr, 64)
    fabric.check_invariants()


@settings(max_examples=80, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=80))
def test_latency_is_always_non_negative(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "read":
            latency = fabric.read(agent, addr, 64)
        elif op == "write":
            latency = fabric.write(agent, addr, 64)
        elif op == "nt":
            latency = fabric.nt_store(agent, addr, 64)
        else:
            latency = fabric.flush(agent, addr, 64)
        assert latency >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_writer_always_ends_modified(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "write":
            fabric.write(agent, addr, 64)
            assert fabric.state_in(agent, addr) is LineState.MODIFIED
            # Nobody else may hold the line at all.
            for other in agents:
                if other is not agent:
                    assert fabric.state_in(other, addr) is None
        elif op == "read":
            fabric.read(agent, addr, 64)
            assert fabric.state_in(agent, addr) is not None
        elif op == "nt":
            fabric.nt_store(agent, addr, 64)
            for anyone in agents:
                assert fabric.state_in(anyone, addr) is None
        else:
            fabric.flush(agent, addr, 64)
            for anyone in agents:
                assert fabric.state_in(anyone, addr) is None


# ----------------------------------------------------------------------
# Fast/reference twin: the plan path must reproduce the reference path
# bit for bit on multi-line accesses, bursts, prefetches and queueing.
# ----------------------------------------------------------------------
TWIN_REGION_LINES = 32
TWIN_REGION_BYTES = 64 * TWIN_REGION_LINES
TWIN_MAX_SIZE = 200

twin_span = st.tuples(
    st.integers(min_value=0, max_value=1),                           # region
    st.integers(min_value=0, max_value=TWIN_REGION_BYTES - TWIN_MAX_SIZE),
    st.integers(min_value=1, max_value=TWIN_MAX_SIZE),               # size
)
twin_agent = st.integers(min_value=0, max_value=3)
# Line-aligned strided spans in one region: prefetch streams, with
# strides up to one past what the prefetcher recognizes.
twin_stream = st.builds(
    lambda region, line, stride, count, size: [
        (region, n * 64, size) for n in range(line, TWIN_REGION_LINES, stride)
    ][:count],
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=TWIN_REGION_LINES - 2),
    st.integers(min_value=1, max_value=CoherenceFabric.MAX_PREFETCH_STRIDE + 1),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=64),
)
twin_op = st.tuples(
    st.one_of(
        # One access call per span.
        st.tuples(
            st.just("access"), twin_agent,
            st.one_of(twin_span.map(lambda span: [span]), twin_stream),
            st.booleans(),
        ),
        st.tuples(
            st.just("burst"), twin_agent,
            st.one_of(st.lists(twin_span, min_size=1, max_size=4), twin_stream),
            st.booleans(),
        ),
        st.tuples(st.just("nt"), twin_agent, twin_span),
        st.tuples(st.just("flush"), twin_agent, twin_span),
    ),
    st.integers(min_value=0, max_value=3000),                        # clock step, ns
)


def build_twin(slowpath):
    """Two sockets, prefetching and plain agents, a slow (contended) link."""
    sim = Simulator(slowpath=slowpath)
    space = AddressSpace()
    link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=1.0)
    fabric = CoherenceFabric(sim, space, COST, link)
    agents = [
        fabric.new_agent("a0", socket=0, capacity_lines=8, prefetch=True),
        fabric.new_agent("a1", socket=0, capacity_lines=8),
        fabric.new_agent("b0", socket=1, capacity_lines=8, prefetch=True),
        fabric.new_agent("b1", socket=1, capacity_lines=8),
    ]
    regions = [
        space.allocate("h0", TWIN_REGION_BYTES, home=0),
        space.allocate("h1", TWIN_REGION_BYTES, home=1),
    ]
    return fabric, agents, regions


def drive_twin(fabric, agents, regions, ops, access_as_burst=False):
    """Apply ``ops``; returns every latency charged, in order."""
    def at(span):
        region, offset, size = span
        return regions[region].base + offset, size

    sim = fabric.sim
    latencies = []
    for (kind, agent_idx, arg, *write), step in ops:
        agent = agents[agent_idx]
        if kind == "access":
            for addr, size in map(at, arg):
                if access_as_burst:
                    latencies.append(fabric.access_burst(agent, [(addr, size)], write[0]))
                else:
                    latencies.append(fabric.access(agent, addr, size, write[0]))
        elif kind == "burst":
            spans = [at(span) for span in arg]
            latencies.append(fabric.access_burst(agent, spans, write[0]))
        elif kind == "nt":
            latencies.append(fabric.nt_store(agent, *at(arg)))
        else:
            latencies.append(fabric.flush(agent, *at(arg)))
        sim.call_at(sim.now + step, lambda: None)
        sim.run()
    return latencies


def twin_state(fabric, agents):
    """Everything the two paths must agree on after a run."""
    return {
        "counters": fabric.snapshot_counters(),
        "agents": [
            (a.hits, a.misses, a.evictions, [(line, a.peek(line)) for line in a.lines()])
            for a in agents
        ],
        "link": [fabric.link.stats[d].snapshot() for d in (0, 1)],
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(twin_op, min_size=1, max_size=60))
def test_fast_path_matches_reference_twin(ops):
    fast = build_twin(slowpath=False)
    slow = build_twin(slowpath=True)
    assert fast[0]._fastpath and not slow[0]._fastpath
    assert drive_twin(*fast, ops) == drive_twin(*slow, ops)
    assert twin_state(*fast[:2]) == twin_state(*slow[:2])
    fast[0].check_invariants()


@settings(max_examples=60, deadline=None)
@given(st.lists(twin_op, min_size=1, max_size=60))
def test_access_equals_one_span_burst(ops):
    plain = build_twin(slowpath=False)
    burst = build_twin(slowpath=False)
    assert drive_twin(*plain, ops) == drive_twin(*burst, ops, access_as_burst=True)
    assert twin_state(*plain[:2]) == twin_state(*burst[:2])
