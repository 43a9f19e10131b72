"""Tests for the sharded-run layer: specs, partition, merge, determinism."""

import json
import random

import pytest

from repro.errors import ConfigError
from repro.obs import merge_snapshots
from repro.shard import (
    ScenarioSpec,
    execute_spec,
    fingerprint,
    lookahead_ns,
    merge_results,
    register_scenario,
    run_shard,
    run_sharded,
    scenario,
    scenario_names,
    unregister_scenario,
)
from repro.sim.rng import derive_seed


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for name in ("loopback_64b", "kv_zipf", "faults_canned", "kv_zipf_1m"):
            assert name in names

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigError):
            scenario("nope")

    def test_register_duplicate_raises(self):
        with pytest.raises(ConfigError):
            register_scenario(ScenarioSpec(name="loopback_64b"))

    def test_register_and_unregister_custom(self):
        spec = ScenarioSpec(name="custom_test_scn", n_packets=100, shards=2)
        try:
            register_scenario(spec)
            assert scenario("custom_test_scn") is spec
            # replace=True overwrites without raising.
            register_scenario(spec.replace(n_packets=200), replace=True)
            assert scenario("custom_test_scn").n_packets == 200
        finally:
            unregister_scenario("custom_test_scn")
        assert "custom_test_scn" not in scenario_names()


# ----------------------------------------------------------------------
# Spec validation and serialization
# ----------------------------------------------------------------------
class TestSpec:
    def test_doc_round_trip(self):
        spec = scenario("kv_zipf")
        doc = spec.to_doc()
        json.dumps(doc)  # JSON-safe
        assert ScenarioSpec.from_doc(doc) == spec

    def test_round_trip_all_shards(self):
        for name in scenario_names():
            for shard in scenario(name).shard_specs():
                assert ScenarioSpec.from_doc(shard.to_doc()) == shard

    def test_from_doc_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ScenarioSpec.from_doc({"name": "x", "wat": 1})

    @pytest.mark.parametrize("changes", [
        {"workload": "quantum"},
        {"platform": "haswell"},
        {"interface": "rdma"},
        {"shards": 0},
        {"workload": "loopback", "n_packets": 2, "shards": 4},
        {"workload": "kv", "distribution": "uniform"},
        {"workload": "kv", "n_keys": 2, "shards": 4},
    ])
    def test_validate_rejects(self, changes):
        base = dict(name="bad", n_packets=100, n_ops=100)
        base.update(changes)
        with pytest.raises(ConfigError):
            ScenarioSpec(**base).validate()

    def test_quick_count(self):
        spec = ScenarioSpec(name="q", n_packets=1000, n_packets_quick=50)
        assert spec.count(quick=False) == 1000
        assert spec.count(quick=True) == 50
        # Without a quick size the full count is used.
        assert ScenarioSpec(name="q2", n_packets=70).count(quick=True) == 70


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_counts_split_exactly(self):
        spec = ScenarioSpec(name="p", n_packets=1003, n_packets_quick=101, shards=8)
        shards = spec.shard_specs()
        assert len(shards) == 8
        assert sum(s.n_packets for s in shards) == 1003
        assert sum(s.n_packets_quick for s in shards) == 101
        # Remainder lands on the lowest indices.
        sizes = [s.n_packets for s in shards]
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_identity(self):
        spec = ScenarioSpec(name="one", shards=1)
        assert spec.shard_specs() == [spec]

    def test_kv_key_ranges_disjoint_and_cover(self):
        spec = scenario("kv_zipf_1m")
        shards = spec.shard_specs()
        assert len(shards) == spec.shards == 32
        spans = sorted((s.key_base, s.key_base + s.n_keys) for s in shards)
        assert spans[0][0] == 0
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(spans, spans[1:]):
            assert hi_a == lo_b  # contiguous, no overlap
        assert spans[-1][1] == spec.n_keys == 1 << 20
        assert spec.total_flows >= 1_000_000

    def test_per_shard_seeds_are_derived_and_distinct(self):
        spec = scenario("loopback_64b")
        shards = spec.shard_specs()
        seeds = [s.seed for s in shards]
        assert len(set(seeds)) == len(seeds)
        assert seeds[3] == derive_seed(spec.seed, spec.shard_label(3))
        # Derivation is stable: a second partition yields the same family.
        assert [s.seed for s in spec.shard_specs()] == seeds

    def test_offered_rate_splits(self):
        spec = ScenarioSpec(name="r", n_packets=800, offered_mpps=40.0, shards=4)
        assert all(s.offered_mpps == 10.0 for s in spec.shard_specs())

    def test_children_are_unsharded(self):
        for child in scenario("faults_canned").shard_specs():
            assert child.shards == 1
            assert child.fault_plan == "canned"


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _fake_result(index, received, latency, events=10, now=100.0):
    return {
        "index": index,
        "snapshot": {
            "received": received,
            "dropped": 0,
            "mpps": received / 100.0,
            "median_ns": 1.0,
            "p99_ns": 2.0,
            "counters": {"s1.read": float(index + 1)},
            "events": events,
            "now": now,
            "link": [{"messages": 5, "payload": 64, "wire": 80, "busy": 7.0,
                      "by_class": {"data": 3.0}, "wire_by_class": {"data": 60.0}}],
        },
        "latency_ns": latency,
        "extra": {"packets": float(received)},
        "metrics": None,
    }


class TestMerge:
    def test_order_independent_fingerprint(self):
        results = [
            _fake_result(0, 10, [1.0, 2.0], now=100.0),
            _fake_result(1, 20, [3.0], now=90.0),
            _fake_result(2, 30, [0.5, 9.0], now=110.0),
        ]
        doc_a = merge_results(results, "t", 50.0)
        shuffled = list(results)
        random.Random(3).shuffle(shuffled)
        doc_b = merge_results(shuffled, "t", 50.0)
        assert doc_a == doc_b
        assert fingerprint(doc_a) == fingerprint(doc_b)

    def test_merge_semantics(self):
        doc = merge_results(
            [_fake_result(0, 10, [4.0], now=90.0),
             _fake_result(1, 20, [2.0], now=110.0)],
            "t", 50.0,
        )
        merged = doc["merged"]
        assert merged["received"] == 30           # sums
        assert merged["now"] == 110.0             # concurrent virtual time
        assert merged["counters"] == {"s1.read": 3.0}
        assert merged["link"][0]["messages"] == 10
        assert merged["link"][0]["by_class"] == {"data": 6.0}
        # Quantiles are recomputed from the pooled samples, not averaged.
        assert merged["median_ns"] == 3.0
        assert merged["latency_count"] == 2
        assert doc["n_shards"] == 2
        assert doc["lookahead_ns"] == 50.0

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConfigError):
            merge_results(
                [_fake_result(0, 1, []), _fake_result(0, 2, [])], "t", 1.0
            )

    def test_missing_index_rejected(self):
        with pytest.raises(ConfigError):
            merge_results(
                [_fake_result(0, 1, []), _fake_result(2, 2, [])], "t", 1.0
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            merge_results([], "t", 1.0)


class TestMetricSnapshotMerge:
    def test_suffix_semantics(self):
        a = {"drv": {"lat.min": 1.0, "lat.max": 5.0, "lat.mean": 2.0,
                     "lat.count": 2.0, "tx": 10.0}}
        b = {"drv": {"lat.min": 0.5, "lat.max": 9.0, "lat.mean": 4.0,
                     "lat.count": 6.0, "tx": 30.0}}
        merged = merge_snapshots([a, b])["drv"]
        assert merged["lat.min"] == 0.5
        assert merged["lat.max"] == 9.0
        assert merged["lat.count"] == 8.0
        assert merged["tx"] == 40.0
        # Count-weighted mean: (2*2 + 4*6) / 8.
        assert merged["lat.mean"] == pytest.approx(3.5)

    def test_disjoint_components_union(self):
        merged = merge_snapshots([{"a": {"x": 1.0}}, {"b": {"y": 2.0}}])
        assert merged == {"a": {"x": 1.0}, "b": {"y": 2.0}}


# ----------------------------------------------------------------------
# End-to-end determinism: worker count must not change the fingerprint
# ----------------------------------------------------------------------
class TestShardedDeterminism:
    @pytest.mark.parametrize("name", ["loopback_64b", "kv_zipf", "faults_canned"])
    def test_workers_do_not_change_fingerprint(self, name):
        sequential = run_sharded(name, workers=1, quick=True)
        parallel = run_sharded(name, workers=2, quick=True)
        assert sequential.fingerprint == parallel.fingerprint
        assert sequential.doc == parallel.doc
        assert sequential.n_shards == parallel.n_shards
        # Phase split: the shard event loops are part of the sequential wall.
        assert 0 < sequential.loop_s < sequential.wall_s

    def test_four_workers_loopback(self):
        base = run_sharded("loopback_64b", workers=1, quick=True)
        wide = run_sharded("loopback_64b", workers=4, quick=True)
        assert base.fingerprint == wide.fingerprint
        assert wide.workers == 4

    def test_all_offered_packets_complete(self):
        run = run_sharded("loopback_64b", workers=2, quick=True)
        assert run.extra["packets"] == 4000.0
        assert run.doc["merged"]["received"] == 4000

    def test_shard_result_is_json_safe(self):
        spec = scenario("loopback_64b").shard_specs()[0]
        result = run_shard(0, spec.to_doc(), quick=True)
        json.dumps(result)  # crosses process/serialization boundaries intact

    def test_execute_spec_matches_run_shard(self):
        spec = scenario("kv_zipf").shard_specs()[2]
        direct = execute_spec(spec, quick=True)
        via_doc = run_shard(2, spec.to_doc(), quick=True)
        assert direct["snapshot"] == via_doc["snapshot"]

    def test_metrics_merge_across_workers(self):
        one = run_sharded("kv_zipf", workers=1, quick=True, with_metrics=True)
        two = run_sharded("kv_zipf", workers=2, quick=True, with_metrics=True)
        assert one.metrics == two.metrics
        assert "fabric" in one.metrics

    def test_lookahead_is_link_latency(self):
        from repro.platform import icx

        assert lookahead_ns(scenario("loopback_64b")) == icx().upi_latency_ns
        pcie = ScenarioSpec(name="p", interface="cx6", n_packets=100)
        assert lookahead_ns(pcie) == icx().nic("cx6").pcie_one_way_ns


# ----------------------------------------------------------------------
# perf harness integration
# ----------------------------------------------------------------------
class TestPerfSharded:
    def test_run_scenario_workers_fingerprint_stable(self):
        from repro.analysis import perf

        one = perf.run_scenario("loopback_64b", quick=True, workers=1)
        two = perf.run_scenario("loopback_64b", quick=True, workers=2)
        assert one.fingerprint == two.fingerprint
        assert two.workers == 2 and two.n_shards == 8
        row = one.to_doc()
        assert 0 < row["loop_s"] <= row["wall_s"]

    def test_run_suite_sharded_compare(self):
        from repro.analysis import perf

        doc = perf.run_suite(
            ["loopback_64b"], quick=True, compare=("loopback_64b",), shards=2
        )
        entry = doc["scenarios"]["loopback_64b"]
        assert doc["shards"] == 2
        assert entry["deterministic"] is True
        assert entry["single_process"]["fingerprint"] == entry["fingerprint"]
        assert perf.check_regression(doc, {"scenarios": {}}) == []

    def test_check_regression_uses_sharded_floor(self):
        from repro.analysis import perf

        doc = {
            "shards": 2,
            "scenarios": {"loopback_64b": {"events_per_sec": 500.0}},
        }
        baseline = {
            "scenarios": {
                "loopback_64b": {
                    "events_per_sec": 26000.0,
                    "sharded": {"events_per_sec": 600.0},
                }
            }
        }
        # 500 clears the sharded floor (600 * 0.7) but not the default.
        assert perf.check_regression(doc, baseline) == []
        doc["shards"] = 1
        assert len(perf.check_regression(doc, baseline)) == 1

    def test_check_regression_reports_parallel_divergence(self):
        from repro.analysis import perf

        doc = {
            "shards": 2,
            "scenarios": {
                "loopback_64b": {
                    "events_per_sec": 1e9,
                    "fingerprint": "aaaa",
                    "deterministic": False,
                    "single_process": {"fingerprint": "bbbb"},
                }
            },
        }
        failures = perf.check_regression(doc, {"scenarios": {}})
        assert len(failures) == 1
        assert "parallel and single-process" in failures[0]
        assert "aaaa" in failures[0] and "bbbb" in failures[0]
