"""Span tracing of the simulator's layers, installed from outside.

:class:`Tracer` wraps every public function of the modules in
:data:`LAYER_MODULES` (methods of the classes defined there, and
module-level functions), plus the few non-public boundaries in
:data:`EXTRA_BOUNDARIES`. Each call records one span: boundary id,
start, end, parent span and shard id, in flat typed arrays kept in
memory until the benchmark writes them out.

Process generators (``LoopbackApp.run``, ``NicQueueAgent.run``,
``KvServerApp.client``/``server``) are wrapped in a proxy that records
one span per resume, so the time a process spends between two yields
counts toward its own layer and not toward the engine that resumed it.

Wrappers are installed on classes before any system is built: hot loops
hoist bound methods (``tx_poll = self.pair.tx.poll``), so a wrapper
installed after construction would be missed.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from simbench.patch import Patches

#: Layer name and the module whose public classes and functions form
#: that layer's boundary.
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("engine", "repro.sim.engine"),
    ("fabric", "repro.coherence.fabric"),
    ("link", "repro.interconnect.link"),
    ("ring", "repro.core.ring"),
    ("driver", "repro.core.driver"),
    ("agent", "repro.core.agent"),
    ("pool", "repro.core.pool"),
    ("trafficgen", "repro.workloads.trafficgen"),
    ("distributions", "repro.workloads.distributions"),
    ("kvstore", "repro.apps.kvstore"),
    ("router", "repro.topology.net"),
    ("stats", "repro.sim.stats"),
    ("shard", "repro.shard.merge"),
)

#: Boundaries outside the public surface: ``(layer, module, class, attribute)``.
#: ``KvServerApp.__init__`` builds the key/size tables (the KV setup
#: cost); ``ShardPlan.for_spec`` and ``ScenarioSpec.from_doc`` build the
#: shard partition and rebuild each shard's spec.
EXTRA_BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("kvstore", "repro.apps.kvstore", "KvServerApp", "__init__"),
    ("shard", "repro.shard.runner", "ShardPlan", "for_spec"),
    ("shard", "repro.shard.spec", "ScenarioSpec", "from_doc"),
)

#: Boundaries whose result can be empty, with the test for emptiness:
#: a ring poll that found no work item, an RX burst that found no packet.
EMPTY_RESULT: Dict[str, Callable[[object], bool]] = {
    "CoherentQueue.poll": lambda result: not result[0],
    "CcnicDriver.rx_burst": lambda result: not result.entries,
}

#: Pseudo-layer of the root span: host time outside every wrapped layer.
ROOT_LAYER = "other"


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: its layer and qualified name."""

    layer: str
    name: str


class SpanLog:
    """The spans of one traced run, one row per span in flat arrays.

    ``parent`` is the row index of the enclosing span (-1 at the top);
    ``shard`` is 1 + the shard index while a shard runs, 0 outside.
    """

    def __init__(self) -> None:
        self.boundary = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.shard = array("H")
        self.current = -1
        self.shard_id = 0
        self.empty: Dict[int, int] = {}

    def clear(self) -> None:
        """Drop every span; the arrays (and bound appends) stay alive."""
        for column in (self.boundary, self.start, self.end, self.parent, self.shard):
            del column[:]
        self.current = -1
        self.shard_id = 0
        self.empty.clear()

    def open(self, bid: int) -> int:
        """Start a span of boundary ``bid`` under the current one."""
        idx = len(self.end)
        self.boundary.append(bid)
        self.parent.append(self.current)
        self.shard.append(self.shard_id)
        self.end.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and make its parent current again."""
        self.end[idx] = time.perf_counter_ns()
        self.current = self.parent[idx]


class _TracedGenerator:
    """Generator proxy: one span per resume; ``throw``/``close`` forwarded."""

    __slots__ = ("_gen", "_bid", "_log")

    def __init__(self, gen, bid: int, log: SpanLog) -> None:
        self._gen = gen
        self._bid = bid
        self._log = log

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        log = self._log
        idx = log.open(self._bid)
        try:
            return self._gen.send(value)
        finally:
            log.close(idx)

    def throw(self, *args):
        log = self._log
        idx = log.open(self._bid)
        try:
            return self._gen.throw(*args)
        finally:
            log.close(idx)

    def close(self) -> None:
        self._gen.close()


def _span_wrapper(fn: Callable, bid: int, log: SpanLog, is_empty=None) -> Callable:
    """Wrap ``fn`` so that every call records one span of ``bid``."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def start_process(*args, **kwargs):
            return _TracedGenerator(fn(*args, **kwargs), bid, log)

        return start_process

    # Hot path: bind every array method once, outside the call.
    boundary_append = log.boundary.append
    start_append = log.start.append
    end_append = log.end.append
    parent_append = log.parent.append
    shard_append = log.shard.append
    ends = log.end
    clock = time.perf_counter_ns

    if is_empty is None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            parent = log.current
            boundary_append(bid)
            parent_append(parent)
            shard_append(log.shard_id)
            end_append(0)
            log.current = idx
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                log.current = parent

        return traced

    empty = log.empty

    @functools.wraps(fn)
    def traced_counting_empty(*args, **kwargs):
        idx = len(ends)
        parent = log.current
        boundary_append(bid)
        parent_append(parent)
        shard_append(log.shard_id)
        end_append(0)
        log.current = idx
        start_append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            log.current = parent
        if is_empty(result):
            empty[bid] = empty.get(bid, 0) + 1
        return result

    return traced_counting_empty


def public_functions(module) -> List[Tuple[Optional[type], str]]:
    """``(class or None, name)`` of every public function ``module`` defines."""
    found: List[Tuple[Optional[type], str]] = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((None, name))
        elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    found.append((obj, attr))
    return found


class Tracer:
    """Install span wrappers on the simulator's layers; undo with :meth:`restore`.

    Boundary 0 is the root span (:data:`ROOT_LAYER`) that the caller
    opens around one run with ``log.open(0)``.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.boundaries: List[Boundary] = [Boundary(ROOT_LAYER, "run")]
        self._patches = Patches()

    def saved(self) -> List[Tuple[object, str, object]]:
        """``(owner, name, original)`` of every wrapper in force."""
        return self._patches.saved()

    def install(self) -> None:
        self.boundaries = self.boundaries[:1]
        for layer, mod_name in LAYER_MODULES:
            module = importlib.import_module(mod_name)
            for cls, name in public_functions(module):
                self._wrap(layer, module, cls, name)
        for layer, mod_name, cls_name, name in EXTRA_BOUNDARIES:
            module = importlib.import_module(mod_name)
            self._wrap(layer, module, getattr(module, cls_name), name)
        self._install_shard_ids()

    def _wrap(self, layer: str, module, cls: Optional[type], name: str) -> None:
        qualname = name if cls is None else f"{cls.__name__}.{name}"
        bid = len(self.boundaries)
        self.boundaries.append(Boundary(layer, qualname))
        is_empty = EMPTY_RESULT.get(qualname)

        def make(fn):
            return _span_wrapper(fn, bid, self.log, is_empty)

        if cls is None:
            fn = vars(module)[name]
            self._patches.function(fn, make(fn))
        else:
            self._patches.method(cls, name, make)

    def _install_shard_ids(self) -> None:
        """Tag spans with the shard that ``run_shard`` is executing."""
        runner = importlib.import_module("repro.shard.runner")
        run_shard = runner.run_shard
        log = self.log

        @functools.wraps(run_shard)
        def run_shard_tagged(index, *args, **kwargs):
            log.shard_id = index + 1
            try:
                return run_shard(index, *args, **kwargs)
            finally:
                log.shard_id = 0

        self._patches.function(run_shard, run_shard_tagged)

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
