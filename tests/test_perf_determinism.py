"""Fast path vs. REPRO_SIM_SLOWPATH=1: bit-identical metric snapshots.

The perf harness's scenarios double as the determinism regression
suite: every engine/fabric/link/telemetry fast path must reproduce the
reference implementation's metrics exactly — same packet counts, same
latency percentiles, same coherence-transaction counters, same
per-direction link statistics, same event count and final simulated
time. A single diverging float fails the fingerprint comparison.

Code shared by both paths (the link's booking routine, the router) is
invisible to that comparison, so golden fingerprints pin every
registered scenario, and a densely faulted run on both paths, to fixed
values.
"""

import json

import pytest

import repro.topology  # noqa: F401  (registers the rack/mesh scenarios)
from repro.analysis import perf
from repro.shard import run_sharded, scenario, scenario_names
from repro.sim import Simulator
from repro.sim.rng import make_rng

#: Merged fingerprint of every registered scenario at quick size, run
#: with ``run_sharded(workers=1)``. These pin the whole cost model —
#: fabric transitions, the link's windowed M/D/1/fair-share waits, the
#: router's per-hop charges and the fault draws — to fixed values, so a
#: change that alters any simulated figure fails here even when every
#: code path agrees with every other.
GOLDEN_QUICK = {
    "loopback_64b": "4e79a99caa56fd54",
    "kv_zipf": "0bc4c4029e8d538f",
    "faults_canned": "1cccc4a00694fb80",
    "kv_zipf_1m": "edf78a46cfafda2c",
    "kv_rack_zipf": "4de5d63b2f698add",
    "mesh_2x2_loopback": "27423c4b8171f0c1",
}


def test_golden_covers_every_registered_scenario():
    assert set(GOLDEN_QUICK) == set(scenario_names())


@pytest.mark.parametrize("scenario", sorted(GOLDEN_QUICK))
def test_quick_fingerprint_matches_golden(scenario):
    run = run_sharded(scenario, workers=1, quick=True)
    assert run.fingerprint == GOLDEN_QUICK[scenario]


#: Every link and snoop fault kind, active from the start so that even
#: quick runs draw each of them many times. (The canned plan's windows
#: open late: a quick ``faults_canned`` run draws only link delays.)
DENSE_FAULTS = {
    "name": "dense",
    "events": [
        {"kind": "link_drop", "probability": 0.05, "extra_ns": 300.0},
        {"kind": "link_duplicate", "probability": 0.05},
        {"kind": "link_delay", "probability": 0.05, "extra_ns": 100.0},
        {"kind": "link_degrade", "start_ns": 5000.0, "end_ns": 90000.0, "factor": 0.5},
        {"kind": "snoop_nack", "probability": 0.05, "extra_ns": 90.0},
        {"kind": "snoop_delay", "probability": 0.05, "extra_ns": 50.0},
    ],
}

#: Quick-size fingerprints under :data:`DENSE_FAULTS` with
#: ``fault_seed=5``: the fabric's faulted transitions, and (mesh) the
#: router's faulted hops.
GOLDEN_DENSE_FAULTS = {
    "loopback_64b": "4f62632f8b2b9a95",
    "mesh_2x2_loopback": "23b7980be53dd302",
}


@pytest.mark.parametrize("slowpath", [False, True], ids=["fast", "slow"])
@pytest.mark.parametrize("scenario_name", sorted(GOLDEN_DENSE_FAULTS))
def test_dense_faults_match_golden_on_both_paths(
    scenario_name, slowpath, tmp_path, monkeypatch
):
    plan = tmp_path / "dense.json"
    plan.write_text(json.dumps(DENSE_FAULTS))
    if slowpath:
        monkeypatch.setenv(perf.SLOWPATH_ENV, "1")
    else:
        monkeypatch.delenv(perf.SLOWPATH_ENV, raising=False)
    spec = scenario(scenario_name).replace(fault_plan=str(plan), fault_seed=5)
    run = run_sharded(spec, workers=1, quick=True)
    assert run.fingerprint == GOLDEN_DENSE_FAULTS[scenario_name]
    assert set(run.doc["merged"]["faults"]) >= {
        "degraded_messages", "injected_link_drop", "injected_link_duplicate",
        "injected_link_delay", "injected_snoop_nack", "injected_snoop_delay",
    }


@pytest.mark.parametrize(
    "scenario",
    ["loopback_64b", "kv_zipf", "faults_canned", "kv_rack_zipf", "mesh_2x2_loopback"],
)
def test_fast_and_slow_paths_fingerprint_identically(scenario):
    fast = perf.run_scenario(scenario, quick=True)
    slow = perf.run_scenario(scenario, quick=True, slowpath=True)
    assert fast.events == slow.events
    assert fast.sim_ns == slow.sim_ns
    assert fast.fingerprint == slow.fingerprint


def test_scenario_fingerprint_stable_across_repeats():
    one = perf.run_scenario("loopback_64b", quick=True)
    two = perf.run_scenario("loopback_64b", quick=True)
    assert one.fingerprint == two.fingerprint
    assert one.events == two.events


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        perf.run_scenario("nope")


def _firing_order(slowpath, n_events):
    """Event order of a randomized callback storm (seeded)."""
    sim = Simulator(slowpath=slowpath)
    rng = make_rng(11, "calqueue-storm")
    order = []
    for i in range(n_events):
        when = rng.random() * 1e6
        sim.call_at(when, lambda i=i: order.append((sim.now, i)))
    sim.run()
    return order


def test_large_pending_set_matches_reference_order():
    """With thousands of events pending, the fast loop's firing order
    must match the reference loop exactly, including seq tie-breaks."""
    n = 4608
    fast = _firing_order(slowpath=False, n_events=n)
    slow = _firing_order(slowpath=True, n_events=n)
    assert fast == slow
