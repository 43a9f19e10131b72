"""Counters, histograms and rate meters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Histogram, RateMeter

# Samples with signed zeros and magnitudes from 1e-3 to 1e12; the ops
# below draw from a small pool of them, so duplicates are common.
_MAGNITUDE = st.floats(min_value=1e-3, max_value=1e12)
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, -1e-3, 1e12, -1e12]),
    _MAGNITUDE,
    _MAGNITUDE.map(lambda x: -x),
)

# One op records (True) or extends (False) with ``length`` pool values
# taken from ``start`` with stride ``step``. Lengths up to 300 push the
# histogram past its 256-slot initial buffer.
_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 63),
        st.integers(1, 7),
        st.integers(0, 300),
    ),
    min_size=1,
    max_size=8,
)


def _reference_percentile(ordered, pct):
    """Nearest-rank percentile with interpolation over a sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("reads")
        c.add("reads", 2)
        assert c.get("reads") == 3
        assert c.get("missing") == 0

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add("x", -1)

    def test_snapshot_and_diff(self):
        c = Counter()
        c.add("a", 5)
        snap = c.snapshot()
        c.add("a", 3)
        c.add("b", 1)
        diff = c.diff(snap)
        assert diff["a"] == 3
        assert diff["b"] == 1

    def test_reset(self):
        c = Counter()
        c.add("a")
        c.reset()
        assert c.get("a") == 0
        assert c.names() == []

    def test_names_sorted(self):
        c = Counter()
        c.add("z")
        c.add("a")
        assert c.names() == ["a", "z"]


class TestHistogram:
    def test_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.median)
        assert math.isnan(h.minimum)

    def test_single_sample(self):
        h = Histogram()
        h.record(42.0)
        assert h.median == 42.0
        assert h.percentile(0) == 42.0
        assert h.percentile(100) == 42.0

    def test_median_interpolates(self):
        h = Histogram()
        h.extend([1.0, 2.0, 3.0, 4.0])
        assert h.median == pytest.approx(2.5)

    def test_percentiles_ordered(self):
        h = Histogram()
        h.extend(range(101))
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(99) == pytest.approx(99.0)
        assert h.minimum == 0
        assert h.maximum == 100

    def test_out_of_range_percentile(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_records_after_sort_are_included(self):
        h = Histogram()
        h.extend([10.0, 20.0])
        assert h.median == 15.0
        h.record(30.0)
        assert h.median == 20.0

    def test_summary_keys(self):
        h = Histogram("lat")
        h.extend([1, 2, 3])
        summary = h.summary()
        assert set(summary) == {"count", "mean", "min", "median", "p99", "max"}
        assert summary["count"] == 3


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(_SAMPLE, min_size=1, max_size=64),
    ops=_OPS,
    drawn_pct=st.floats(min_value=0.0, max_value=100.0),
)
def test_histogram_matches_sorted_list_oracle(pool, ops, drawn_pct):
    """Every statistic equals the one computed from a plain list."""
    h = Histogram("oracle")
    recorded = []
    for as_records, start, step, length in ops:
        values = [pool[(start + i * step) % len(pool)] for i in range(length)]
        if as_records:
            for v in values:
                h.record(v)
        else:
            h.extend(iter(values))
        recorded.extend(values)
        assert len(h) == len(recorded)
        if recorded:
            # Interleaved reads must see every sample recorded so far.
            assert h.percentile(50.0) == _reference_percentile(
                sorted(recorded), 50.0
            )
    if not recorded:
        assert h.count == 0 and math.isnan(h.mean)
        return
    ordered = sorted(recorded)
    total = 0.0
    for v in recorded:
        total += v
    assert h.count == len(recorded)
    assert h.mean == total / len(recorded)
    assert h.minimum == ordered[0]
    assert h.maximum == ordered[-1]
    for pct in (0.0, 1.0, 50.0, 99.0, 99.9, 100.0, drawn_pct):
        assert h.percentile(pct) == _reference_percentile(ordered, pct)
    # Recording order, bit for bit (hex keeps the sign of zero).
    assert [v.hex() for v in h.samples()] == [v.hex() for v in recorded]


class TestRateMeter:
    def test_rates(self):
        m = RateMeter()
        m.mark(0.0, byte_count=64)
        m.mark(100.0, byte_count=64)
        # 2 events, 128 bytes over 100ns.
        assert m.events_per_second() == pytest.approx(2 / 100e-9)
        assert m.gbps() == pytest.approx(128 * 8 / 100.0)

    def test_empty_meter(self):
        m = RateMeter()
        assert m.events_per_second() == 0.0
        assert m.gbps() == 0.0
