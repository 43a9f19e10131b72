"""Idle-poll fast-forward against the engine's reference loop.

On the fast loop the loopback app credits its idle iterations (an
empty RX poll that hits the signal line) instead of running them. The
reference loop never fast-forwards, so it is the oracle: every case
runs twice on identically built systems, once with the engine's
reference loop (the fabric stays on its plan path, so the fast-forward
is the only difference) and once on the fast loop, and every piece of
state the skipped iterations could have touched must compare equal.
"""

import json

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface
from repro.cli import main
from repro.core import CcnicConfig
from repro.core.ring import CoherentQueue
from repro.platform.presets import icx, spr
from repro.platform.system import System
from repro.shard import run_sharded, scenario
from repro.shard.runner import _system_snapshot
from repro.workloads.trafficgen import run_loopback


@pytest.fixture(autouse=True)
def _fast_paths_by_default(monkeypatch):
    """Each test picks its loops itself, also when the suite runs under REPRO_SIM_SLOWPATH=1."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)


def _state(setup, result):
    """Everything an idle iteration could change, in comparable form."""
    system = setup.system
    agents = [
        (
            agent.name, agent.hits, agent.misses, agent.evictions,
            list(agent.lines()),
            {base: list(stream) for base, stream in agent.stream_state.items()},
        )
        for agent in system.fabric.agents
    ]
    return {
        "result": (
            result.sent, result.received, result.bytes_received,
            result.window_start_ns, result.window_end_ns,
            result.backpressure_events, result.dropped,
            result._measured, result._measured_bytes,
        ),
        "latency": result.latency.samples(),
        "snapshot": _system_snapshot(system),
        "agents": agents,
        "driver": (setup.driver.rx_ns, setup.driver.tx_ns),
        "now": system.sim.now,
        "events": system.sim.events_executed,
    }


def _run(reference, platform, same_socket=False, pkt_size=64, n_packets=400,
         batch=32, buf_size=4096, **load):
    config = CcnicConfig(ring_slots=1024, recycle_stack_max=1024, buf_size=buf_size)
    setup = build_interface(
        platform(), InterfaceKind.CCNIC, config=config, same_socket=same_socket
    )
    setup.system.sim.slowpath = reference
    polls = []
    rx_ring = setup.driver.pair.rx
    original = rx_ring.poll

    def counted(agent, max_items):
        polls.append(1)
        return original(agent, max_items)

    rx_ring.poll = counted
    result = run_loopback(
        setup.system, setup.driver, pkt_size, n_packets,
        tx_batch=batch, rx_batch=batch, **load,
    )
    assert result.received == n_packets
    return _state(setup, result), len(polls)


CASES = {
    "closed_inflight1": dict(inflight=1),
    "closed_inflight8": dict(inflight=8),
    "closed_inflight64": dict(inflight=64),
    "paced_below_saturation": dict(offered_mpps=4.0),
    "paced_above_saturation": dict(offered_mpps=80.0),
    "poisson_below_saturation": dict(offered_mpps=4.0, arrivals="poisson", seed=3),
    "poisson_above_saturation": dict(offered_mpps=80.0, arrivals="poisson", seed=3),
    "batch1": dict(inflight=8, batch=1),
    "batch4": dict(inflight=8, batch=4),
    "batch32": dict(inflight=32, batch=32),
    "size1500": dict(inflight=8, pkt_size=1500, n_packets=200),
    # The loopback app writes each TX payload into one buffer, so a
    # jumbo frame needs jumbo buffers.
    "size9000": dict(inflight=8, pkt_size=9000, n_packets=100, buf_size=16384),
    "spr": dict(inflight=8, platform=spr),
    "same_socket": dict(inflight=8, same_socket=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_forward_matches_reference_loop(case):
    kwargs = dict(CASES[case])
    platform = kwargs.pop("platform", icx)
    reference, reference_polls = _run(True, platform, **kwargs)
    fast, fast_polls = _run(False, platform, **kwargs)
    for key in reference:
        assert fast[key] == reference[key], key
    assert fast_polls < reference_polls  # it did engage


def _observed_tie(reference, when):
    """A run with an observer event at ``when``, and what it saw there."""
    setup = build_interface(icx(), InterfaceKind.CCNIC)
    sim = setup.system.sim
    sim.slowpath = reference
    agent = setup.driver.agent
    seen = []
    sim.call_at(when, lambda: seen.append((
        sim.events_executed, setup.driver.rx_ns, agent.hits, list(agent.lines()),
    )))
    result = run_loopback(setup.system, setup.driver, 64, 200, inflight=1)
    return seen, _state(setup, result)


def test_event_at_an_idle_iteration_time_runs_before_it():
    """An event tied with a skippable iteration bounds the skip: the
    iteration at that time is dispatched after the event, not credited."""
    setup = build_interface(icx(), InterfaceKind.CCNIC)
    setup.system.sim.slowpath = True
    polls = []
    original = setup.driver.rx_burst

    def recorded(max_packets):
        rx = original(max_packets)
        polls.append((setup.system.sim.now, bool(rx.entries)))
        return rx

    setup.driver.rx_burst = recorded
    run_loopback(setup.system, setup.driver, 64, 200, inflight=1)
    # The fourth poll of the first run of at least eight empty ones.
    streak = 0
    for when, received in polls:
        streak = 0 if received else streak + 1
        if streak == 4:
            tie = when
        if streak == 8:
            break
    assert streak == 8
    assert _observed_tie(False, tie) == _observed_tie(True, tie)


def test_credit_read_hits_equals_repeated_reads():
    """``credit_read_hits(k)`` leaves what ``k`` plain read hits leave."""

    def build():
        system = System(icx(), prefetch_host=True)
        agent = system.new_host_core("h")
        ring = system.alloc_host("ring", 4096)
        other = system.alloc_host("other", 4096)
        fabric = system.fabric
        fabric.read(agent, ring.base, 8)
        fabric.read(agent, ring.base + 64, 8)  # stride 1: prefetches line 2
        fabric.read(agent, other.base, 8)      # another region's stream
        return system, agent, ring.base + 64

    def state(system, agent):
        return (
            agent.hits, agent.misses, list(agent.lines()),
            {base: list(stream) for base, stream in agent.stream_state.items()},
            _system_snapshot(system),
        )

    replayed, agent_r, addr = build()
    ns = replayed.fabric.read_hit_ns(agent_r, addr)
    assert ns == replayed.fabric.cost.l2_hit
    for _ in range(5):
        assert replayed.fabric.read(agent_r, addr, 8) == ns
    credited, agent_c, addr = build()
    assert credited.fabric.read_hit_ns(agent_c, addr) == ns
    assert credited.fabric.credit_read_hits(agent_c, addr, 5) == ns
    assert state(credited, agent_c) == state(replayed, agent_r)


def test_read_hit_ns_refuses_misses_and_broken_streams():
    system = System(icx(), prefetch_host=True)
    agent = system.new_host_core("h")
    ring = system.alloc_host("ring", 4096)
    fabric = system.fabric
    assert fabric.read_hit_ns(agent, ring.base) is None  # not held
    fabric.read(agent, ring.base, 8)
    fabric.read(agent, ring.base + 64, 8)
    # Held, but the stream last touched line 1: a read of line 0 would
    # change the stride, so it is not a plain hit.
    assert fabric.read_hit_ns(agent, ring.base) is None
    assert fabric.read_hit_ns(agent, ring.base + 64) is not None


def _count_rx_polls(monkeypatch):
    counts = {"rx": 0}
    original = CoherentQueue.poll

    def counted(self, agent, max_items):
        if "rx" in self.name:
            counts["rx"] += 1
        return original(self, agent, max_items)

    monkeypatch.setattr(CoherentQueue, "poll", counted)
    return counts


def test_loopback_64b_rx_polls_fall_fivefold_with_same_fingerprint(monkeypatch):
    """A silently disabled fast-forward fails here, not only in a benchmark."""
    counts = _count_rx_polls(monkeypatch)
    fast = run_sharded(scenario("loopback_64b"), workers=1, quick=True)
    fast_polls = counts["rx"]
    counts["rx"] = 0
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    reference = run_sharded(scenario("loopback_64b"), workers=1, quick=True)
    assert fast.fingerprint == reference.fingerprint
    assert fast_polls * 5 <= counts["rx"]


def test_metrics_json_identical_on_both_loops(tmp_path, monkeypatch, capsys):
    """A metrics-only registry keeps the fast-forward on and sees the same run."""
    counts = _count_rx_polls(monkeypatch)
    args = ["loopback", "--packets", "2000", "--inflight", "64"]
    fast_out = tmp_path / "fast.json"
    assert main(args + ["--metrics-out", str(fast_out)]) == 0
    fast_polls = counts["rx"]
    counts["rx"] = 0
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    slow_out = tmp_path / "slow.json"
    assert main(args + ["--metrics-out", str(slow_out)]) == 0
    capsys.readouterr()
    assert fast_out.read_bytes() == slow_out.read_bytes()
    assert json.loads(fast_out.read_text())["metrics"]
    assert fast_polls < counts["rx"]
