"""Tracing utilities."""

import pytest

from repro.platform import System, icx
from repro.sim.trace import TraceEvent, Tracer


class TestTracer:
    def test_record_and_query(self):
        tracer = Tracer(capacity=10)
        tracer.record(5.0, "read", "host", "x")
        tracer.record(15.0, "write", "nic", "y")
        assert len(tracer) == 2
        assert tracer.between(0, 10)[0].category == "read"
        assert tracer.by_category("write")[0].actor == "nic"

    def test_capacity_rolls_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(float(i), "c", "a", str(i))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.events()[0].detail == "2"

    def test_filters(self):
        tracer = Tracer()
        tracer.add_filter(lambda e: e.actor == "host")
        tracer.record(1.0, "read", "host", "kept")
        tracer.record(2.0, "read", "nic", "dropped")
        assert len(tracer) == 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_attach_fabric_records_accesses(self):
        system = System(icx())
        agent = system.new_host_core("h")
        region = system.alloc_host("buf", 256)
        tracer = Tracer()
        with tracer.attach_fabric(system.fabric):
            system.fabric.read(agent, region.base, 64)
            system.fabric.write(agent, region.base + 64, 8)
        assert len(tracer) == 2
        assert tracer.by_category("read")[0].actor == "h"
        assert "buf" in tracer.by_category("write")[0].detail
        # Detached afterwards: no further recording.
        system.fabric.read(agent, region.base, 8)
        assert len(tracer) == 2

    def test_event_str(self):
        event = TraceEvent(when=12.5, category="read", actor="h", detail="d")
        assert "read" in str(event) and "12.5" in str(event)

