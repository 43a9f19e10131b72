"""Tests of the benchmark's tracing and checks.

Run from the repository root::

    python3 -m pytest simbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from simbench.measure import (
    PROBE_ITERATIONS,
    REFERENCE_RATE,
    Rep,
    end_to_end_metrics,
    run_traced,
    run_untraced,
)
from simbench.tracer import LAYER_MODULES, SpanLog, Tracer, _TracedGenerator
from simbench.workloads import WORKLOADS, registered_spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_reproduce_fingerprint_and_counts(name):
    workload = WORKLOADS[name]
    spec = registered_spec(workload)
    untraced = run_untraced(spec)
    assert untraced.fingerprint == workload.fingerprint
    assert untraced.ops == spec.count()

    tracer = Tracer()
    first = run_traced(spec, tracer)
    assert set(tracer.log.shard) == set(range(spec.shards + 1))
    second = run_traced(spec, tracer)
    for rep in (first, second):
        assert rep.fingerprint == workload.fingerprint
    counts = {k: v for k, v in first.layers.items() if k.endswith("_per_op")}
    assert counts == {k: second.layers[k] for k in counts}
    assert tracer.saved() == []


def test_host_times_scale_to_reference_speed():
    # Shard 0 ran at half the reference speed, shard 1 at full speed.
    probe = PROBE_ITERATIONS / REFERENCE_RATE
    shards = [(1.0, 0.8, 0.5), (2.0, 1.5, 1.0)]
    outside, merge = 0.4, 0.1
    rep = Rep(
        traced=False,
        wall_s=3.0 + 2 * probe + probe + outside,
        ops=100,
        fingerprint="",
        sim={},
        shards=shards,
        merge_s=merge,
    )
    assert rep.probe_s == pytest.approx(3 * probe)
    scaled = rep.scaled()
    # Outside time scales by the median speed, (0.5 + 1.0) / 2.
    assert scaled["wall_s"] == pytest.approx(0.5 + 2.0 + outside * 0.75)
    assert scaled["loop_s"] == pytest.approx(0.4 + 1.5)
    assert scaled["setup_s"] == pytest.approx(
        scaled["wall_s"] - scaled["loop_s"] - merge * 0.75
    )
    metrics = end_to_end_metrics([rep])
    assert metrics["host_us_per_op"] == pytest.approx(1.9 * 1e6 / 100)
    assert metrics["ops_per_s"] == pytest.approx(100 / scaled["wall_s"])


def test_restore_puts_back_every_original():
    import repro.core.ring as ring
    import repro.shard.runner as runner

    poll = vars(ring.CoherentQueue)["poll"]
    run_shard = runner.run_shard
    tracer = Tracer()
    with tracer:
        saved = tracer.saved()
        assert vars(ring.CoherentQueue)["poll"] is not poll
        assert runner.run_shard is not run_shard
    modules = {mod for _layer, mod in LAYER_MODULES}
    assert modules <= {getattr(owner, "__module__", getattr(owner, "__name__", None))
                       for owner, _name, _orig in saved}
    for owner, name, original in saved:
        assert vars(owner)[name] is original
    assert vars(ring.CoherentQueue)["poll"] is poll
    assert runner.run_shard is run_shard


def test_generator_proxy_times_resumes_and_forwards_throw_and_close():
    events = []

    def body():
        try:
            while True:
                try:
                    yield 1.0
                except KeyError:
                    events.append("thrown")
        finally:
            events.append("closed")

    log = SpanLog()
    proxy = _TracedGenerator(body(), 7, log)
    assert proxy.send(None) == 1.0
    assert next(proxy) == 1.0
    assert proxy.throw(KeyError()) == 1.0
    proxy.close()
    assert events == ["thrown", "closed"]
    assert list(log.boundary) == [7, 7, 7]
    assert list(log.parent) == [-1, -1, -1]
    assert all(end >= start for start, end in zip(log.start, log.end))


def test_run_fails_without_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "kv_rack_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
