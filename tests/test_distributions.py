"""Workload distributions: Ads/Geo object sizes and Zipf keys."""

import bisect
import hashlib
import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim.rng import make_rng
from repro.workloads import AdsObjectSizes, GeoObjectSizes, ObjectSizeDistribution, ZipfKeys
from repro.workloads.distributions import SAMPLE_BLOCK


def scalar_sample(cums, sizes, max_size, rng):
    """The one-size-per-call sampler that ``sample_many`` must reproduce."""
    u = rng.random()
    seg = bisect.bisect_left(cums, u)
    if seg >= len(sizes):
        seg = len(sizes) - 1
    low = 16 if seg == 0 else sizes[seg - 1]
    high = sizes[seg]
    if high <= low:
        return min(high, max_size)
    log_low, log_high = math.log(low), math.log(high)
    value = math.exp(log_low + (log_high - log_low) * rng.random())
    return max(1, min(int(value), max_size))


ADS = [(0.61, 100), (0.85, 512), (0.96, 2048), (1.00, 9600)]
GEO = [(0.13, 100), (0.45, 512), (0.80, 2048), (0.95, 4096), (1.00, 9600)]


@st.composite
def breakpoint_sets(draw):
    """Ads, Geo, or a random valid set: cums non-decreasing to 1, sizes rising from 16."""
    choice = draw(st.sampled_from(["ads", "geo", "random"]))
    if choice == "ads":
        return ADS, 9600
    if choice == "geo":
        return GEO, 9600
    max_size = draw(st.integers(min_value=17, max_value=20000))
    sizes = sorted(draw(st.sets(
        st.integers(min_value=17, max_value=max_size), min_size=1, max_size=6
    )))
    cums = sorted(draw(st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=len(sizes) - 1,
        max_size=len(sizes) - 1,
    )))
    return list(zip(cums + [1.0], sizes)), max_size


class TestObjectSizes:
    def test_ads_small_object_fraction(self):
        """Paper: 61% of Ads objects are under 100B."""
        dist = AdsObjectSizes()
        frac = dist.fraction_below(100, make_rng(1, "ads"))
        assert 0.55 <= frac <= 0.67

    def test_geo_small_object_fraction(self):
        """Paper: 13% of Geo objects are under 100B."""
        dist = GeoObjectSizes()
        frac = dist.fraction_below(100, make_rng(1, "geo"))
        assert 0.09 <= frac <= 0.18

    def test_sizes_capped_at_mtu(self):
        rng = make_rng(2, "cap")
        for dist in (AdsObjectSizes(), GeoObjectSizes()):
            sizes = [dist.sample(rng) for _ in range(5000)]
            assert max(sizes) <= 9600
            assert min(sizes) >= 1

    def test_geo_skews_larger_than_ads(self):
        rng_a = make_rng(3, "a")
        rng_g = make_rng(3, "g")
        ads = sum(AdsObjectSizes().sample(rng_a) for _ in range(5000))
        geo = sum(GeoObjectSizes().sample(rng_g) for _ in range(5000))
        assert geo > ads

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [], 9600)
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [(0.5, 100)], 9600)  # cum != 1
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [(1.5, 100)], 9600)

    @pytest.mark.parametrize(
        "breakpoints",
        [
            [(0.5, 512), (1.0, 512)],     # repeated bound
            [(0.5, 512), (1.0, 100)],     # decreasing bound
            [(1.0, 16)],                  # first bound not above 16
            [(0.5, 8), (1.0, 100)],       # first bound below 16
            [(1.0, 9601)],                # above max_size
        ],
    )
    def test_bounds_must_strictly_increase_from_16(self, breakpoints):
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", breakpoints, 9600)


class TestSampleMany:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=breakpoint_sets(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=10_000),
    )
    @example(shape=(GEO, 9600), seed=11, n=SAMPLE_BLOCK - 1)
    @example(shape=(ADS, 9600), seed=11, n=SAMPLE_BLOCK)
    @example(shape=(GEO, 9600), seed=12, n=2 * SAMPLE_BLOCK + 1)
    def test_equals_scalar_draws(self, shape, seed, n):
        """Same sizes, same generator state, same next draw as n scalar samples."""
        breakpoints, max_size = shape
        dist = ObjectSizeDistribution("p", breakpoints, max_size)
        bulk_rng, scalar_rng = random.Random(seed), random.Random(seed)
        cums = [cum for cum, _size in breakpoints]
        sizes = [size for _cum, size in breakpoints]
        expected = [scalar_sample(cums, sizes, max_size, scalar_rng) for _ in range(n)]
        assert dist.sample_many(bulk_rng, n) == expected
        assert bulk_rng.getstate() == scalar_rng.getstate()
        assert bulk_rng.random() == scalar_rng.random()

    def test_sample_is_one_bulk_draw(self):
        dist = AdsObjectSizes()
        one, many = make_rng(12, "one"), make_rng(12, "one")
        assert [dist.sample(one) for _ in range(50)] == dist.sample_many(many, 50)
        assert one.getstate() == many.getstate()


class TestZipf:
    def test_skew(self):
        """With coefficient 0.75, the hottest keys dominate."""
        keys = ZipfKeys(1000, 0.75)
        assert keys.hottest_fraction(10) > 10 / 1000 * 3

    def test_samples_in_range(self):
        keys = ZipfKeys(100, 0.75)
        rng = make_rng(4, "zipf")
        samples = [keys.sample(rng) for _ in range(2000)]
        assert all(0 <= s < 100 for s in samples)

    def test_low_keys_more_popular(self):
        keys = ZipfKeys(100, 0.75)
        rng = make_rng(5, "zipf2")
        samples = [keys.sample(rng) for _ in range(20000)]
        first_decile = sum(1 for s in samples if s < 10)
        last_decile = sum(1 for s in samples if s >= 90)
        assert first_decile > 3 * last_decile

    def test_uniform_when_coefficient_zero(self):
        keys = ZipfKeys(10, 0.0)
        assert keys.hottest_fraction(1) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfKeys(0)
        with pytest.raises(WorkloadError):
            ZipfKeys(10, -1.0)

    def test_same_shape_shares_one_table(self):
        assert ZipfKeys(1000, 0.75)._cumulative is ZipfKeys(1000, 0.75)._cumulative

    def test_table_equals_reference_loop(self):
        """The cached table is the normalise-by-running-sum loop, value for value."""
        n, c = 1000, 0.75
        weights = [1.0 / (k ** c) for k in range(1, n + 1)]
        total = 0.0
        for w in weights:
            total += w
        cumulative = []
        running = 0.0
        for w in weights:
            running += w / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        assert list(ZipfKeys(n, c)._cumulative) == cumulative

    @pytest.mark.parametrize(
        "n_keys, digest",
        [
            (4096, "b63590fd3e557938cf4d3dd708994b3b91ad2be27ed06b748a906df2722488da"),
            (32768, "cfbf385eda50f2a9f94d61a269c86607954bec5d6622709fe4c7cf2d3e782a7a"),
        ],
    )
    def test_table_pinned_across_python_versions(self, n_keys, digest):
        """The registered KV shard shapes draw the same keys on every Python.

        Digests of the little-endian float64 table, as built by the
        plain-``sum`` normalisation on Python 3.11; 3.12's compensated
        ``sum`` would change them.
        """
        table = ZipfKeys(n_keys, 0.75)._cumulative
        packed = struct.pack(f"<{n_keys}d", *table)
        assert hashlib.sha256(packed).hexdigest() == digest

    def test_hottest_fraction_bounds(self):
        keys = ZipfKeys(10, 0.75)
        assert keys.hottest_fraction(0) == 0.0
        assert keys.hottest_fraction(10) == pytest.approx(1.0)
        assert keys.hottest_fraction(100) == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = [AdsObjectSizes().sample(make_rng(9, "x")) for _ in range(10)]
        b = [AdsObjectSizes().sample(make_rng(9, "x")) for _ in range(10)]
        assert a == b

    def test_labels_give_independent_streams(self):
        rng1 = make_rng(9, "one")
        rng2 = make_rng(9, "two")
        assert [rng1.random() for _ in range(5)] != [rng2.random() for _ in range(5)]
