"""A small discrete-event simulation engine.

The engine advances a virtual nanosecond clock and interleaves *processes*.
A process is a Python generator that yields the number of nanoseconds it
wants to sleep before its next step::

    def poller(sim):
        while True:
            work_ns = do_poll()
            yield work_ns

    sim = Simulator()
    sim.spawn(poller(sim), name="poller")
    sim.run(until=10_000)

Yielding ``0`` (or any non-negative float) reschedules the process after
that much virtual time; other processes scheduled earlier run first. A
negative or NaN delay raises :class:`~repro.errors.SimulationError`, so
the clock never runs backwards.
Processes end by returning. The engine is deterministic: ties in time are
broken by spawn order, then scheduling order.

Pending events live in one binary heap keyed on ``(when, seq)``. Two
execution loops pop it and produce bit-identical schedules:

* The default fast loop drains same-timestamp cohorts in one pass, reuses
  one mutable event record per process step instead of allocating a
  fresh one, and dispatches a rescheduled step directly when it is
  strictly earlier than every queued event (the dominant
  single-runnable-process case).
* Setting ``REPRO_SIM_SLOWPATH=1`` in the environment (or passing
  ``slowpath=True``) selects the straightforward pop-one-event loop. It
  carries the :attr:`Simulator.chooser` hook for the schedule explorer
  and is the reference the determinism tests compare the fast loop
  against.

``events_executed`` counts an event as executed the moment it is taken
off the queue, *before* its handler runs. If a process step raises, the
failing event is therefore included in the count, ``now`` holds its
timestamp, and ``stop_when`` is not consulted for it — the exception
propagates out of :meth:`Simulator.run` with the simulator in that
consistent state.

**Fast-forward.** On the fast loop a process may replace a run of
steps that it knows would each do the same thing (an idle poll loop)
by one yield of :meth:`Simulator.resume_at`: it is resumed at the
absolute time the skipped steps would have reached, and the skipped
steps are *credited* to ``events_executed`` as if each had been
dispatched. :meth:`Simulator.fast_forward_horizon` tells the process
how far it may skip: no other event can run before that time, so the
skipped steps would have seen nothing change but the clock.
``stop_when`` is consulted after dispatched events only, never for a
credited step. The reference loop has no fast-forward: there
:meth:`~Simulator.fast_forward_horizon` answers ``None`` and every
step is dispatched.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.instrument import Instrumented

#: Type of the generators the engine runs.
ProcessBody = Generator[float, None, None]

#: Event-record kind codes. Records are mutable lists
#: ``[when, seq, kind, payload]``; ``seq`` is unique per simulator so
#: record comparison never reaches the payload.
_STEP = 0
_CALL = 1


def slowpath_requested() -> bool:
    """True when ``REPRO_SIM_SLOWPATH=1`` asks for the reference loop."""
    return os.environ.get("REPRO_SIM_SLOWPATH", "") == "1"


class Delay(float):
    """Explicit wrapper for a yielded delay; plain floats work too."""


class Resume:
    """A yielded absolute resume time plus credited steps.

    Made by :meth:`Simulator.resume_at`; only the fast loop accepts it.
    """

    __slots__ = ("when", "credit")

    def __init__(self, when: float, credit: int) -> None:
        self.when = when
        self.credit = credit

    def __repr__(self) -> str:
        return f"Resume(when={self.when!r}, credit={self.credit})"


class Process:
    """Handle to a spawned process.

    Attributes:
        name: Human-readable label, used in error messages.
        done: True once the generator has returned or was stopped.
        pid: Per-simulator id (spawn order, starting at 1), assigned by
            :meth:`Simulator.spawn`. There is deliberately no global
            fallback counter: pids are a per-simulator namespace, and a
            shared class-level counter would leak spawn history between
            simulators living in one interpreter.
        footprint: Optional frozenset of opaque tokens naming the state
            this process touches. Two same-timestamp steps whose
            footprints are disjoint commute, which lets the cohort
            explorer (:mod:`repro.check.explore`) prune redundant
            dispatch orders. ``None`` (the default) means "unknown" and
            is never treated as disjoint from anything.
    """

    __slots__ = ("body", "name", "done", "pid", "footprint")

    def __init__(
        self,
        body: ProcessBody,
        name: str,
        pid: Optional[int] = None,
        footprint: Optional[frozenset] = None,
    ):
        if not hasattr(body, "send"):
            raise SimulationError(
                f"process {name!r} must be a generator, got {type(body).__name__}"
            )
        if pid is None:
            raise SimulationError(
                f"process {name!r} constructed without a pid; create processes "
                "through Simulator.spawn(), which assigns per-simulator ids"
            )
        self.body = body
        self.name = name
        self.done = False
        self.pid = pid
        self.footprint = None if footprint is None else frozenset(footprint)

    def stop(self) -> None:
        """Prevent any further steps of this process."""
        self.done = True
        self.body.close()

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} pid={self.pid} {state}>"


class Simulator(Instrumented):
    """Event loop owning the virtual clock.

    The clock starts at 0.0 ns and only moves forward. All model objects
    that need the current time should hold a reference to the simulator
    and read :attr:`now`.

    Args:
        slowpath: Force the reference event loop. ``None`` (default)
            consults the ``REPRO_SIM_SLOWPATH`` environment variable at
            construction, so fast and reference simulators can coexist
            in one interpreter.
    """

    #: Optional :class:`repro.obs.timeline.TimelineSampler`; when
    #: attached, window rolls piggyback on clock advances. Never
    #: scheduled as an event, so ``events_executed``/``now`` — and run
    #: fingerprints — are identical with or without it.
    timeline = None

    #: Optional cohort-dispatch chooser ``(when, records) -> index``,
    #: used by :mod:`repro.check.explore` to permute intra-cohort
    #: dispatch order. Class-level ``None`` so unexplored runs pay one
    #: attribute load in :meth:`run`; attaching forces the reference
    #: loop (the fast loop's cohort draining assumes seq order). The
    #: ``records`` argument is the seq-ordered list of every pending
    #: ``[when, seq, kind, payload]`` record tied at ``when``; returning
    #: ``0`` everywhere reproduces the canonical schedule exactly.
    chooser = None

    def __init__(self, slowpath: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._held: Optional[list] = None
        self._seq = 0
        self._processes: list[Process] = []
        self._done_count = 0
        self._pid_counter = 0
        self.events_executed = 0
        # The current fast-loop run's ``until`` (inf when unbounded)
        # while fast-forward is available; None otherwise.
        self._ff_until: Optional[float] = None
        if slowpath is None:
            slowpath = slowpath_requested()
        self.slowpath = bool(slowpath)

    def _obs_component(self) -> str:
        return "sim"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "now_ns", fn=lambda: self.now)
        registry.gauge(
            self.obs_name, "events_executed", fn=lambda: float(self.events_executed)
        )
        registry.gauge(self.obs_name, "pending_events", fn=lambda: float(self.pending))
        # Non-mutating by contract: alive_processes() compacts the
        # process table, and a metrics read must never perturb the
        # simulator's compaction bookkeeping.
        registry.gauge(
            self.obs_name,
            "alive_processes",
            fn=lambda: float(sum(1 for p in self._processes if not p.done)),
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def spawn(
        self,
        body: ProcessBody,
        name: str = "proc",
        delay: float = 0.0,
        footprint: Optional[frozenset] = None,
    ) -> Process:
        """Register a generator as a process; first step runs after ``delay``.

        ``footprint`` optionally names the state the process touches
        (see :class:`Process`); it only matters to the cohort explorer.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid spawn delay: {delay!r}")
        self._pid_counter += 1
        proc = Process(body, name, pid=self._pid_counter, footprint=footprint)
        self._processes.append(proc)
        self._schedule(self.now + delay, _STEP, proc)
        return proc

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute virtual time ``when``."""
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule at {when!r}: must be >= now ({self.now})"
            )
        self._schedule(when, _CALL, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback ``delay`` ns from now."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay!r}")
        self._schedule(self.now + delay, _CALL, fn)

    def _schedule(self, when: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, [when, self._seq, kind, payload])

    # ------------------------------------------------------------------
    # Fast-forward
    # ------------------------------------------------------------------
    def fast_forward_horizon(self) -> Optional[float]:
        """Time before which no event but the caller's next step can run.

        Called from inside a process step: the earliest queued event or
        the run's ``until``, whichever is sooner. ``None`` when the run
        may not fast-forward: the reference loop, a :attr:`chooser`, a
        :attr:`timeline` or a ``max_events`` bound.
        """
        until = self._ff_until
        if until is None or self.timeline is not None or self.chooser is not None:
            return None
        heap = self._heap
        if heap and heap[0][0] < until:
            return heap[0][0]
        return until

    def resume_at(self, when: float, credit: int) -> Resume:
        """What a process yields to resume at absolute time ``when``.

        ``credit`` steps are added to ``events_executed``: the steps the
        process skipped instead of yielding them one delay at a time.
        The caller owes exactness: every credited step must fall before
        :meth:`fast_forward_horizon`, and ``when`` must be the time the
        repeated ``t = t + delay`` of those steps reaches, not
        ``now + credit * delay`` (which rounds differently).
        """
        if self._ff_until is None:
            raise SimulationError("fast-forward needs the fast loop without max_events")
        if not when >= self.now:
            raise SimulationError(
                f"cannot resume at {when!r}: must be >= now ({self.now})"
            )
        if not isinstance(credit, int) or credit < 0:
            raise SimulationError(f"invalid fast-forward credit {credit!r}")
        return Resume(when, credit)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a bound is hit.

        Args:
            until: Stop once the clock would pass this absolute time.
            max_events: Stop after this many events (safety valve).
                Disables fast-forward.
            stop_when: Checked after every dispatched event; True stops
                the run. Steps credited by a fast-forward are not
                dispatched and do not consult it.

        Returns:
            The virtual time at which the run stopped.

        ``events_executed`` is incremented when an event is dequeued,
        before its handler runs: if the handler raises, the failing
        event is counted, ``now`` is its timestamp, and ``stop_when``
        is not called for it. It also counts the steps a process
        credits through :meth:`resume_at`.
        """
        if self.slowpath or self.chooser is not None:
            return self._run_slow(until, max_events, stop_when)
        return self._run_fast(until, max_events, stop_when)

    def _run_slow(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> float:
        """Reference loop: one heappop + one handler call per event.

        With a :attr:`chooser` attached, every set of timestamp-tied
        records becomes a *choice point*: the tied records are popped in
        seq order, the chooser picks which one dispatches now, and the
        rest are requeued (seq keys unchanged, so relative order among
        the survivors is preserved). A chooser that always returns 0
        reproduces this loop's canonical schedule event-for-event.
        """
        executed = 0
        heap = self._heap
        while heap:
            rec = heap[0]
            when = rec[0]
            if until is not None and when > until:
                self.now = until
                break
            chooser = self.chooser
            if chooser is not None:
                tied = []
                while heap and heap[0][0] == when:
                    tied.append(heapq.heappop(heap))
                if len(tied) > 1:
                    index = chooser(when, tied)
                    if not isinstance(index, int) or not 0 <= index < len(tied):
                        raise SimulationError(
                            f"chooser returned invalid cohort index {index!r} "
                            f"for {len(tied)} tied records at t={when}"
                        )
                    rec = tied.pop(index)
                    for other in tied:
                        heapq.heappush(heap, other)
                else:
                    rec = tied[0]
            else:
                heapq.heappop(heap)
            self.now = when
            tl = self.timeline
            if tl is not None and when >= tl.next_ns:
                tl.roll(when)
            self.events_executed += 1
            executed += 1
            if rec[2] == _STEP:
                self._step(rec[3])
            else:
                rec[3]()
            if stop_when is not None and stop_when():
                break
            if max_events is not None and executed >= max_events:
                break
        return self.now

    def _run_fast(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> float:
        """Fast loop: cohort draining, record reuse, direct dispatch.

        Produces the exact event order of :meth:`_run_slow`:

        * Same-timestamp records drain as one *cohort* per outer
          iteration: the clock is written once and ``until`` compared
          once per cohort instead of per event. Both are exact — every
          member shares the timestamp those checks saw. Dispatch stays
          seq-ordered because members are taken off the queue one at a
          time, so an event a handler schedules *at the cohort's
          timestamp* joins the live cohort at its seq position.
        * ``stop_when`` is still consulted after every event: it may
          have side effects (it is allowed to schedule), so a
          per-cohort check would diverge from the reference loop.
        * A record is only held for direct dispatch when it is
          *strictly* earlier than every queued event, so seq
          tie-breaking is preserved, and any event a ``stop_when``
          callback schedules ahead of the held record demotes it back
          onto the heap.
        * A yielded :class:`Resume` reschedules the step at its absolute
          time and credits its skipped steps (see :meth:`resume_at`).
        """
        if max_events is None:
            self._ff_until = math.inf if until is None else until
        executed = 0
        events = self.events_executed
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        rec: Optional[list] = None
        try:
            while True:
                if rec is None:
                    if not heap:
                        break
                    rec = heappop(heap)
                when = rec[0]
                if until is not None and when > until:
                    heappush(heap, rec)
                    rec = None
                    self.now = until
                    break
                self.now = when
                tl = self.timeline
                if tl is not None and when >= tl.next_ns:
                    tl.roll(when)
                # ---- cohort at `when`: dispatch rec and every queued
                # same-timestamp successor without re-checking `until`
                # or rewriting the clock.
                while True:
                    events += 1
                    self.events_executed = events
                    executed += 1
                    cur = rec
                    rec = None
                    if cur[2] == _STEP:
                        proc = cur[3]
                        if proc.done:
                            self._note_done()
                        else:
                            try:
                                delay = proc.body.send(None)
                            except StopIteration:
                                proc.done = True
                                self._note_done()
                            else:
                                try:
                                    invalid = not delay >= 0
                                except TypeError:
                                    invalid = True
                                if not invalid:
                                    nxt = when + delay
                                elif type(delay) is Resume:
                                    nxt = delay.when
                                    events += delay.credit
                                    self.events_executed = events
                                else:
                                    proc.done = True
                                    self._note_done()
                                    raise SimulationError(
                                        f"process {proc.name!r} yielded invalid "
                                        f"delay {delay!r}"
                                    )
                                self._seq += 1
                                cur[0] = nxt
                                cur[1] = self._seq
                                if heap and nxt >= heap[0][0]:
                                    heappush(heap, cur)
                                else:
                                    rec = cur
                    else:
                        cur[3]()
                    if stop_when is not None:
                        self._held = rec
                        stopped = stop_when()
                        self._held = None
                        if stopped:
                            return self.now
                        if rec is not None and heap and heap[0] < rec:
                            heappush(heap, rec)
                            rec = None
                    if max_events is not None and executed >= max_events:
                        return self.now
                    if rec is None:
                        # Pull the next record; a non-tie is carried to
                        # the outer loop as the next cohort's head (no
                        # extra peek or requeue on the common path).
                        if not heap:
                            break
                        rec = heappop(heap)
                    if rec[0] != when:
                        break
            return self.now
        finally:
            self._held = None
            self._ff_until = None
            if rec is not None:
                heappush(heap, rec)

    def _step(self, proc: Process) -> None:
        if proc.done:
            self._note_done()
            return
        try:
            delay = next(proc.body)
        except StopIteration:
            proc.done = True
            self._note_done()
            return
        try:
            invalid = not delay >= 0
        except TypeError:
            invalid = True
        if invalid:
            proc.done = True
            self._note_done()
            raise SimulationError(
                f"process {proc.name!r} yielded invalid delay {delay!r}"
            )
        self._schedule(self.now + delay, _STEP, proc)

    def _note_done(self) -> None:
        """Account one finished process; compact the table when mostly dead."""
        self._done_count += 1
        if self._done_count >= 64 and self._done_count * 2 >= len(self._processes):
            self._processes = [p for p in self._processes if not p.done]
            self._done_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events currently queued (including any held record)."""
        n = len(self._heap)
        if self._held is not None:
            n += 1
        return n

    def alive_processes(self) -> Iterable[Process]:
        """Processes that have not finished (compacts the table)."""
        alive = [p for p in self._processes if not p.done]
        self._processes = list(alive)
        self._done_count = 0
        return alive

    def __repr__(self) -> str:
        return f"<Simulator now={self.now:.1f}ns pending={self.pending}>"
