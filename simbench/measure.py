"""One benchmark repetition, and the metrics computed from it.

A repetition is one ``run_sharded(spec, workers=1)`` call: every shard
of the scenario runs in this process, one after another, and the shard
results are merged. An untraced repetition gives the end-to-end
numbers; a traced one gives the per-layer numbers from its spans.

Host speed
----------
On a shared machine the host's speed drifts by up to 2x for seconds
to minutes at a time, while ``time.process_time`` stays equal to wall
time: other tenants slow the CPU without descheduling the process. An
untraced repetition therefore probes the host's speed just before each
shard with a fixed pure-Python loop that uses no simulator code
(:func:`probe_s`), and the end-to-end host times scale each shard's
time to :data:`REFERENCE_RATE`, the probe rate of the uncontended host
the benchmark was written on. The raw times are kept in the run record.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from simbench.patch import Patches
from simbench.tracer import Tracer

#: Iterations of one host-speed probe: 10-20 ms on a 2-CPU container.
PROBE_ITERATIONS = 50_000
#: Probe rate (iterations/s) of the uncontended 2-CPU container the
#: benchmark was written on; host times are reported at this speed.
REFERENCE_RATE = 6.0e6


def probe_s() -> float:
    """Host seconds for a fixed pure-Python loop that uses no simulator code.

    The simulator is not involved, so a change to it cannot move its
    own yardstick.
    """
    table: Dict[int, int] = {}
    items: List[int] = []
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        items.append(i * 3 // 7)
    return time.perf_counter() - start


class PhaseTimer:
    """Untraced timing of each shard, its event loop, and the merge.

    Wraps the shard runner's ``run_shard`` (probing the host's speed
    just before each shard), ``Simulator.run`` and the
    ``merge_results``/``fingerprint`` calls: two calls per shard and two
    per repetition, so the repetition itself pays next to nothing.
    """

    def __init__(self) -> None:
        #: ``(wall_s, loop_s, speed)`` of every shard run so far, in run
        #: order; ``speed`` is the probe rate over :data:`REFERENCE_RATE`.
        self.shards: List[Tuple[float, float, float]] = []
        self.merge_s = 0.0
        self._loop_s = 0.0
        self._patches = Patches()

    def install(self) -> None:
        engine = importlib.import_module("repro.sim.engine")
        merge = importlib.import_module("repro.shard.merge")
        runner = importlib.import_module("repro.shard.runner")
        clock = time.perf_counter

        def adds_time_to(field):
            def wrap(fn):
                @functools.wraps(fn)
                def timed(*args, **kwargs):
                    start = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        setattr(self, field, getattr(self, field) + clock() - start)

                return timed

            return wrap

        def shard_timed(fn):
            @functools.wraps(fn)
            def run_shard(*args, **kwargs):
                speed = PROBE_ITERATIONS / probe_s() / REFERENCE_RATE
                self._loop_s = 0.0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.shards.append((clock() - start, self._loop_s, speed))

            return run_shard

        self._patches.method(engine.Simulator, "run", adds_time_to("_loop_s"))
        self._patches.function(runner.run_shard, shard_timed(runner.run_shard))
        for fn in (merge.merge_results, merge.fingerprint):
            self._patches.function(fn, adds_time_to("merge_s")(fn))

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "PhaseTimer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class Rep:
    """What one repetition measured and produced."""

    traced: bool
    wall_s: float
    ops: int
    fingerprint: str
    sim: Dict[str, float]
    #: ``(wall_s, loop_s, speed)`` per shard, in shard order (untraced only).
    shards: List[Tuple[float, float, float]] = field(default_factory=list)
    merge_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def probe_s(self) -> float:
        """Host seconds spent probing the host's speed (not part of the run)."""
        return sum(PROBE_ITERATIONS / REFERENCE_RATE / speed for _w, _l, speed in self.shards)

    def scaled(self) -> Dict[str, float]:
        """Wall, loop and setup seconds, each shard's scaled to the reference speed.

        Time outside the shards (partition, merge, GC) is scaled by the
        repetition's median shard speed.
        """
        typical = statistics.median(speed for _w, _l, speed in self.shards)
        shard_wall = sum(wall for wall, _l, _s in self.shards)
        outside = self.wall_s - self.probe_s - shard_wall
        wall = sum(w * speed for w, _l, speed in self.shards) + outside * typical
        loop = sum(loop * speed for _w, loop, speed in self.shards)
        return {"wall_s": wall, "loop_s": loop, "setup_s": wall - loop - self.merge_s * typical}


def completed_ops(merged: Dict) -> int:
    """Simulated ops the run resolved: packets (received or dropped) or KV requests."""
    if "ops" in merged:
        return int(merged["ops"])
    return int(merged["received"]) + int(merged["dropped"])


def sim_metrics(merged: Dict) -> Dict[str, float]:
    """The modelled NIC's throughput and latency, in simulated time."""
    return {
        "sim_mops": float(merged["mops"] if "mops" in merged else merged["mpps"]),
        "sim_p50_ns": float(merged["median_ns"]),
        "sim_p99_ns": float(merged["p99_ns"]),
    }


def _run(spec):
    from repro.shard import run_sharded

    gc.collect()
    start = time.perf_counter()
    run = run_sharded(spec, workers=1)
    return run, time.perf_counter() - start


def run_untraced(spec) -> Rep:
    """One repetition with only the shard, loop and merge timers attached."""
    with PhaseTimer() as timer:
        run, wall = _run(spec)
    merged = run.doc["merged"]
    return Rep(
        traced=False,
        wall_s=wall,
        ops=completed_ops(merged),
        fingerprint=run.fingerprint,
        sim=sim_metrics(merged),
        shards=timer.shards,
        merge_s=timer.merge_s,
    )


def run_traced(spec, tracer: Tracer) -> Rep:
    """One repetition with every layer boundary traced.

    ``tracer.log`` keeps this repetition's spans after it returns; the
    wrappers are removed before it returns.
    """
    log = tracer.log
    log.clear()
    with tracer:
        root = log.open(0)
        try:
            run, wall = _run(spec)
        finally:
            log.close(root)
    merged = run.doc["merged"]
    ops = completed_ops(merged)
    return Rep(
        traced=True,
        wall_s=wall,
        ops=ops,
        fingerprint=run.fingerprint,
        sim=sim_metrics(merged),
        layers=layer_metrics(tracer, run.doc, ops),
    )


def _column(values, dtype) -> np.ndarray:
    # Copy, so the array.array can be cleared later (a live view would pin it).
    return np.frombuffer(values, dtype=dtype).copy()


def layer_metrics(tracer: Tracer, doc: Dict, ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Self time is a span's duration minus its children's durations. A
    layer's *calls* are its entry spans: spans whose parent belongs to
    another layer, so a public function calling another public function
    of the same layer counts once. Shares are of the root span, which
    covers the whole repetition.
    """
    log = tracer.log
    boundaries = tracer.boundaries
    bid = _column(log.boundary, np.uint16).astype(np.intp)
    start = _column(log.start, np.int64)
    end = _column(log.end, np.int64)
    parent = _column(log.parent, np.int32).astype(np.intp)
    n = len(bid)
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

    layers = sorted({b.layer for b in boundaries})
    layer_index = {name: i for i, name in enumerate(layers)}
    span_layer = np.array([layer_index[b.layer] for b in boundaries], dtype=np.intp)[bid]
    parent_layer = np.where(nested, span_layer[np.maximum(parent, 0)], -1)
    entry = span_layer != parent_layer
    self_by = dict(zip(layers, np.bincount(span_layer, weights=self_ns, minlength=len(layers))))
    entries_by = dict(zip(layers, np.bincount(span_layer[entry], minlength=len(layers))))
    calls_by_name = dict(
        zip((b.name for b in boundaries), np.bincount(bid, minlength=len(boundaries)))
    )
    ids = {b.name: i for i, b in enumerate(boundaries)}
    total_ns = dur[0]

    def share(layer: str) -> float:
        return float(self_by.get(layer, 0.0) / total_ns)

    def per_op(count) -> float:
        return float(count) / ops

    def frac_empty(name: str) -> float:
        calls = calls_by_name.get(name, 0)
        return log.empty.get(ids.get(name), 0) / calls if calls else 0.0

    def outermost_s(names) -> float:
        """Inclusive seconds of spans of ``names`` not nested in another of them."""
        member = np.isin(bid, [ids[name] for name in names])
        parent_member = np.where(nested, member[np.maximum(parent, 0)], False)
        return float(dur[member & ~parent_member].sum() / 1e9)

    merged = doc["merged"]
    counters = merged["counters"]
    read_rfo = sum(
        value for key, value in counters.items() if key.endswith((".read", ".rfo"))
    )
    busy = capacity = 0.0
    for shard in doc["shards"].values():
        busy += sum(row["busy"] for row in shard["link"])
        capacity += shard["now"] * len(shard["link"])

    return {
        "engine.events_per_op": per_op(merged["events"]),
        "engine.self_share": share("engine"),
        "fabric.calls_per_op": per_op(entries_by["fabric"]),
        "fabric.ns_per_call": float(self_by["fabric"] / entries_by["fabric"]),
        "fabric.self_share": share("fabric"),
        "fabric.read_rfo_per_op": per_op(read_rfo),
        "link.calls_per_op": per_op(entries_by["link"]),
        "link.self_share": share("link"),
        "link.wire_bytes_per_op": per_op(sum(row["wire"] for row in merged["link"])),
        "link.busy_frac": busy / capacity,
        "ring.polls_per_op": per_op(calls_by_name["CoherentQueue.poll"]),
        "ring.empty_poll_frac": frac_empty("CoherentQueue.poll"),
        "ring.self_share": share("ring"),
        "driver.calls_per_op": per_op(entries_by["driver"]),
        "driver.empty_rx_frac": frac_empty("CcnicDriver.rx_burst"),
        "driver.self_share": share("driver"),
        "agent.resumes_per_op": per_op(calls_by_name["NicQueueAgent.run"]),
        "agent.self_share": share("agent"),
        "pool.calls_per_op": per_op(entries_by["pool"]),
        "pool.self_share": share("pool"),
        "trafficgen.self_share": share("trafficgen"),
        "kvstore.init_s": outermost_s(["KvServerApp.__init__"]),
        "kvstore.self_share": share("kvstore"),
        "distributions.samples_per_op": per_op(entries_by["distributions"]),
        "distributions.self_s": float(self_by["distributions"] / 1e9),
        "router.charges_per_op": per_op(calls_by_name["Router.charge"]),
        "router.self_share": share("router"),
        "stats.calls_per_op": per_op(entries_by["stats"]),
        "stats.self_share": share("stats"),
        "shard.merge_s": outermost_s(
            ["merge_results", "fingerprint", "merge_metrics", "merge_timelines"]
        ),
        "shard.build_s": outermost_s(["ShardPlan.for_spec", "ScenarioSpec.from_doc"]),
    }


def save_spans(tracer: Tracer, path) -> None:
    """Write the spans of the last traced repetition as a NumPy ``.npz``."""
    log = tracer.log
    np.savez(
        path,
        boundary=_column(log.boundary, np.uint16),
        start_ns=_column(log.start, np.int64),
        end_ns=_column(log.end, np.int64),
        parent=_column(log.parent, np.int32),
        shard=_column(log.shard, np.uint16),
        names=np.array([f"{b.layer}:{b.name}" for b in tracer.boundaries]),
    )


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(reps: List[Rep]) -> Dict[str, float]:
    """End-to-end host metrics: medians over untraced repetitions, at reference speed."""
    ops = reps[0].ops
    scaled = [rep.scaled() for rep in reps]
    return {
        "ops_per_s": median([ops / s["wall_s"] for s in scaled]),
        "setup_s": median([s["setup_s"] for s in scaled]),
        "host_us_per_op": median([s["loop_s"] for s in scaled]) * 1e6 / ops,
    }
