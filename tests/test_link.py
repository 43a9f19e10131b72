"""Interconnect link cost model."""

import pytest

from repro.errors import InterconnectError
from repro.faults import FaultInjector, FaultPlan
from repro.interconnect import Link, MessageClass
from repro.sim import Simulator


def make_link(bw=64.0, latency=50.0, header=12):
    sim = Simulator()
    return sim, Link(sim, "test", latency_ns=latency, bandwidth_bytes_per_ns=bw, header_overhead=header)


class TestOneWay:
    def test_basic_cost(self):
        _sim, link = make_link(bw=76.0, latency=50.0, header=12)
        # READ carries a 64B line: wire = 76B at 76B/ns = 1ns ser.
        cost = link.one_way(MessageClass.READ, direction=0)
        assert cost == pytest.approx(50.0 + 1.0)

    def test_control_message_payload_zero(self):
        _sim, link = make_link(bw=12.0, latency=10.0, header=12)
        cost = link.one_way(MessageClass.SNOOP, direction=0)
        assert cost == pytest.approx(10.0 + 1.0)

    def test_explicit_payload(self):
        _sim, link = make_link(bw=100.0, latency=0.0, header=0)
        cost = link.one_way(MessageClass.DMA_WRITE, direction=1, payload_bytes=1000)
        assert cost == pytest.approx(10.0)

    def test_invalid_direction(self):
        _sim, link = make_link()
        with pytest.raises(InterconnectError):
            link.one_way(MessageClass.READ, direction=2)

    def test_stats_accumulate(self):
        _sim, link = make_link()
        link.one_way(MessageClass.READ, direction=0)
        link.one_way(MessageClass.RFO, direction=0)
        assert link.stats[0].messages == 2
        assert link.stats[0].by_class == {"read": 1, "rfo": 1}
        assert link.stats[1].messages == 0


class TestUtilizationQueue:
    def test_no_queueing_when_idle(self):
        _sim, link = make_link(bw=76.0)
        wait = link.occupy(MessageClass.READ, direction=0)
        assert wait == 0.0

    def test_own_stream_never_self_queues(self):
        _sim, link = make_link(bw=76.0)
        waits = [
            link.occupy(MessageClass.READ, direction=0, actor="a")
            for _ in range(50)
        ]
        assert all(w == 0.0 for w in waits)

    def test_competing_actors_wait(self):
        sim, link = make_link(bw=76.0)
        # Two heavy streams from distinct actors in the same window.
        for _ in range(200):
            link.occupy(MessageClass.READ, direction=0, actor="a")
        wait = link.occupy(MessageClass.READ, direction=0, actor="b")
        assert wait > 0.0

    def test_wait_grows_with_competitor_load(self):
        def pressure(n):
            _sim, link = make_link(bw=76.0)
            for _ in range(n):
                link.occupy(MessageClass.READ, direction=0, actor="a")
            return link.occupy(MessageClass.READ, direction=0, actor="b")
        assert pressure(400) > pressure(20)

    def test_rho_settles_after_window(self):
        sim, link = make_link(bw=76.0)
        for _ in range(300):
            link.occupy(MessageClass.READ, direction=0, actor="a")
        sim.now = link.WINDOW_NS + 1.0
        link.occupy(MessageClass.READ, direction=0, actor="a")
        assert link.rho(0) > 0.05

    def test_directions_independent(self):
        _sim, link = make_link(bw=76.0)
        for _ in range(200):
            link.occupy(MessageClass.READ, direction=0, actor="a")
        wait = link.occupy(MessageClass.READ, direction=1, actor="b")
        assert wait == 0.0

    def test_inflate_consumes_more_bandwidth(self):
        _sim, link = make_link(bw=76.0)
        link.occupy(MessageClass.WRITEBACK, direction=0, inflate=2.0)
        assert link.stats[0].wire_bytes == 152
        with pytest.raises(InterconnectError):
            link.occupy(MessageClass.WRITEBACK, direction=0, inflate=0.5)

    def test_charge_queueing_false_still_consumes(self):
        _sim, link = make_link(bw=76.0)
        wait = link.occupy(MessageClass.PREFETCH, direction=0, charge_queueing=False)
        assert wait == 0.0
        assert link.stats[0].wire_bytes > 0


def _link_fault_plan():
    return FaultPlan.from_dict({
        "name": "link-contract",
        "events": [
            {"kind": "link_drop", "probability": 0.15, "extra_ns": 300.0},
            {"kind": "link_duplicate", "probability": 0.15},
            {"kind": "link_degrade", "start_ns": 1000.0, "end_ns": 6000.0,
             "factor": 0.5},
        ],
    })


class TestOccupyPair:
    """A plan charged through occupy_pair books exactly two occupy calls."""

    #: Request/response rows of a demand fetch and of a prefetch (whose
    #: rows consume bandwidth but add no wait).
    ROWS = {
        "demand": ((MessageClass.SNOOP, 0, True), (MessageClass.READ, 1, True)),
        "prefetch": ((MessageClass.SNOOP, 0, False), (MessageClass.PREFETCH, 1, False)),
    }

    def _drive(self, faults):
        sim, link = make_link(bw=20.0)
        twin_sim, twin = make_link(bw=20.0)
        if faults:
            link.faults = FaultInjector(_link_fault_plan(), seed=3)
            twin.faults = FaultInjector(_link_fault_plan(), seed=3)

        def plan(rows):
            (cls0, d0, charge0), (cls1, d1, charge1) = rows
            return (link.plan_occupy(cls0, d0, charge_queueing=charge0)
                    + link.plan_occupy(cls1, d1, charge_queueing=charge1))

        plans = {kind: plan(rows) for kind, rows in self.ROWS.items()}
        got, want = [], []
        # 800 steps of 10 ns span four utilization windows; two actors
        # interleave so each queues behind the other's demand.
        for step in range(800):
            sim.now = twin_sim.now = step * 10.0
            actor = "a" if step % 3 else "b"
            kind = "prefetch" if step % 5 == 0 else "demand"
            got.append(link.occupy_pair(plans[kind], actor, base=7.0))
            total = 7.0
            for cls, direction, charge in self.ROWS[kind]:
                wait = twin.occupy(cls, direction, charge_queueing=charge, actor=actor)
                if charge:
                    total += wait
            want.append(total)
        return link, twin, got, want

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
    def test_matches_two_occupy_calls(self, faults):
        link, twin, got, want = self._drive(faults)
        assert got == want
        assert max(got) > 7.0  # the two actors really contended
        for direction in (0, 1):
            assert link.stats[direction].snapshot() == twin.stats[direction].snapshot()
            assert link.rho(direction) == twin.rho(direction)
        assert link.rho(1) > 0.0
        if faults:
            assert link.faults.injection_log == twin.faults.injection_log
            kinds = {kind for _now, kind in link.faults.injection_log}
            assert {"link_drop", "link_duplicate"} <= kinds
            assert link.faults.counters.snapshot()["degraded_messages"] > 0

    def test_faulted_prefetch_rows_add_nothing(self):
        # occupy returns a fault's extra latency even for an uncharged
        # row; occupy_pair must not add it to the plan's total.
        _sim, link = make_link(bw=20.0)
        link.faults = FaultInjector(FaultPlan.from_dict({
            "name": "always-delay",
            "events": [{"kind": "link_delay", "probability": 1.0, "extra_ns": 50.0}],
        }), seed=1)
        plan = (
            link.plan_occupy(MessageClass.SNOOP, 0, charge_queueing=False)
            + link.plan_occupy(MessageClass.PREFETCH, 1, charge_queueing=False)
        )
        assert link.occupy_pair(plan, "a", base=3.0) == 3.0
        assert link.occupy(
            MessageClass.PREFETCH, 1, charge_queueing=False, actor="a"
        ) == 50.0


class TestUtilities:
    def test_round_trip(self):
        _sim, link = make_link(bw=76.0, latency=50.0)
        cost = link.round_trip(MessageClass.SNOOP, MessageClass.READ, direction=0)
        # snoop: 12/76 ser + 50; read: 76/76 + 50.
        assert cost == pytest.approx(50.0 + 12 / 76 + 50.0 + 1.0)

    def test_utilization(self):
        _sim, link = make_link(bw=76.0)
        link.occupy(MessageClass.READ, direction=0)
        assert link.utilization(0, 10.0) == pytest.approx(0.1)
        assert link.utilization(0, 0.0) == 0.0

    def test_scaled(self):
        _sim, link = make_link(bw=10.0, latency=100.0)
        link.scaled(latency_factor=2.0, bandwidth_factor=0.5)
        assert link.latency_ns == 200.0
        assert link.bandwidth == 5.0
        with pytest.raises(InterconnectError):
            link.scaled(latency_factor=0.0)

    def test_reset_stats(self):
        _sim, link = make_link()
        link.one_way(MessageClass.READ, direction=0)
        link.reset_stats()
        assert link.total_wire_bytes() == 0

    def test_bad_construction(self):
        sim = Simulator()
        with pytest.raises(InterconnectError):
            Link(sim, "bad", latency_ns=-1, bandwidth_bytes_per_ns=1)
        with pytest.raises(InterconnectError):
            Link(sim, "bad", latency_ns=1, bandwidth_bytes_per_ns=0)


class TestMessageClass:
    def test_line_carriers(self):
        assert MessageClass.READ.carries_line
        assert MessageClass.RFO.carries_line
        assert MessageClass.WRITEBACK.carries_line
        assert not MessageClass.SNOOP.carries_line
        assert not MessageClass.ACK.carries_line

    def test_payload_override(self):
        assert MessageClass.DMA_READ.payload_bytes(4096) == 4096
        assert MessageClass.READ.payload_bytes() == 64
        assert MessageClass.SNOOP.payload_bytes() == 0
