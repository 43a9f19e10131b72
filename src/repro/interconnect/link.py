"""Generic point-to-point link cost model.

A :class:`Link` charges three costs per message:

* **propagation latency** — fixed one-way wire + protocol-stack delay;
* **serialization** — ``(payload + header_overhead) / bandwidth``;
* **queueing** — congestion-induced waiting, modelled from measured
  utilization: each direction tracks the serialization demand offered
  over a short trailing window and charges an M/D/1-style wait
  ``ser * rho / (1 - rho)`` based on the previous window's utilization.
  This is stable under the out-of-order local timestamps that burst
  accesses generate (a backlog-horizon model is not) and produces
  natural saturation behaviour: as offered load approaches line rate,
  waits grow without bound and throttle the offering actors.

The same class models UPI (both directions symmetric, high bandwidth)
and a PCIe lane group. Utilization statistics feed the analysis layer's
bandwidth-share model for multi-core scaling.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import InterconnectError
from repro.interconnect.messages import MessageClass
from repro.sim.engine import Simulator


class LinkStats:
    """Aggregate per-direction traffic counters.

    The four scalar counters live in the mutable list :attr:`agg`
    (``[messages, payload_bytes, wire_bytes, busy_ns]``) so
    :meth:`Link._book` can bump them with plain list stores; the named
    attributes stay available as read-only properties for snapshot-time
    consumers.
    """

    __slots__ = ("agg", "_per_class")

    def __init__(self) -> None:
        self.agg: list = [0, 0, 0, 0.0]
        # One [count, wire_bytes] cell per message class: senders
        # resolve the cell once (class_cell) and bump both counters
        # through it on the per-message hot path.
        self._per_class: Dict[str, list] = {}

    @property
    def messages(self) -> int:
        return self.agg[0]

    @property
    def payload_bytes(self) -> int:
        return self.agg[1]

    @property
    def wire_bytes(self) -> int:
        return self.agg[2]

    @property
    def busy_ns(self) -> float:
        return self.agg[3]

    @property
    def by_class(self) -> Dict[str, int]:
        """Per-class message counts (snapshot view)."""
        return {k: v[0] for k, v in self._per_class.items()}

    @property
    def wire_by_class(self) -> Dict[str, int]:
        """Per-class wire bytes (snapshot view)."""
        return {k: v[1] for k, v in self._per_class.items()}

    def class_cell(self, cls: MessageClass) -> list:
        """Get-or-create the mutable ``[count, wire_bytes]`` cell of a class."""
        entry = self._per_class.get(cls.value)
        if entry is None:
            self._per_class[cls.value] = entry = [0, 0]
        return entry

    def snapshot(self) -> Dict:
        """The canonical dict form of one direction's counters.

        Every consumer of per-direction stats — shard snapshots, the
        topology per-edge export — uses this shape, so the keys are part
        of the merged-document fingerprint contract:
        ``messages``/``payload``/``wire``/``busy`` merge as sums and the
        two ``*_class`` maps merge key-wise (see
        :func:`repro.shard.merge._merge_link`).
        """
        return {
            "messages": self.agg[0],
            "payload": self.agg[1],
            "wire": self.agg[2],
            "busy": self.agg[3],
            "by_class": self.by_class,
            "wire_by_class": self.wire_by_class,
        }

    def to_doc(self) -> Dict:
        """Alias of :meth:`snapshot` (JSON-safe plain dict)."""
        return self.snapshot()


class Link:
    """A full-duplex link between two endpoints (sockets or host/device).

    Args:
        sim: Simulator providing the clock used for queueing decisions.
        name: Diagnostic label ("upi", "pcie-e810", ...).
        latency_ns: One-way propagation latency per message.
        bandwidth_bytes_per_ns: Per-direction serialization rate.
        header_overhead: Protocol header bytes added to each message's
            wire size (UPI flit headers, PCIe TLP headers).
    """

    #: Optional :class:`repro.faults.FaultInjector`. Class-level None so
    #: fault-free runs carry zero extra per-message cost or state.
    faults = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_ns: float,
        bandwidth_bytes_per_ns: float,
        header_overhead: int = 12,
    ) -> None:
        if latency_ns < 0:
            raise InterconnectError(f"link {name!r}: negative latency")
        if bandwidth_bytes_per_ns <= 0:
            raise InterconnectError(f"link {name!r}: bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.latency_ns = latency_ns
        self.bandwidth = bandwidth_bytes_per_ns
        self.header_overhead = header_overhead
        # Utilization-window state per direction: serialization demand
        # accumulated in the current wall-time window, split by actor so
        # an actor is never queued behind its own (self-paced) demand.
        self._win_busy = [0.0, 0.0]
        self._win_by: list = [{}, {}]
        self._win_start = [0.0, 0.0]
        self._rho = [0.0, 0.0]
        self._rho_by: list = [{}, {}]
        self.stats = (LinkStats(), LinkStats())
        #: Invoked (no args) by :meth:`scaled` so callers holding
        #: precomputed wire/serialization figures can invalidate them.
        self.on_scaled: Optional[Callable[[], None]] = None

    #: Utilization-measurement window, ns.
    WINDOW_NS = 2000.0
    #: Utilization cap: keeps the M/D/1 wait finite at saturation.
    RHO_CAP = 0.97

    # ------------------------------------------------------------------
    def one_way(
        self,
        cls: MessageClass,
        direction: int,
        payload_bytes: Optional[int] = None,
        charge_queueing: bool = True,
        actor: str = "anon",
    ) -> float:
        """Send one message; return the delay until it is delivered.

        Args:
            cls: Message class (sets default payload size).
            direction: 0 or 1; which half of the duplex pair carries it.
            payload_bytes: Override payload size (MMIO/DMA bodies).
            charge_queueing: When False the message still consumes
                bandwidth but the caller is not delayed by queueing
                (used for prefetches and speculative reads that are not
                on the requester's critical path).

        Returns:
            Nanoseconds from "now" until delivery at the far end.
        """
        row = self.plan_occupy(cls, direction, payload_bytes, charge_queueing)
        return self._book(*row, actor, self.latency_ns)

    def occupy(
        self,
        cls: MessageClass,
        direction: int,
        payload_bytes: Optional[int] = None,
        inflate: float = 1.0,
        charge_queueing: bool = True,
        actor: str = "anon",
    ) -> float:
        """Consume bandwidth for one message; return only the queueing delay.

        Used by the coherence fabric, whose zero-load latencies already
        include propagation and serialization: the fabric adds just the
        congestion-induced wait returned here. ``inflate`` scales the
        wire size to model inefficient encodings (non-temporal
        partial-line streams). ``actor`` names the issuing agent for the
        per-actor utilization accounting.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        if inflate < 1.0:
            raise InterconnectError(f"inflate must be >= 1.0, got {inflate}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = int((payload + self.header_overhead) * inflate)
        stats = self.stats[direction]
        return self._book(
            direction, payload, wire, wire / self.bandwidth, charge_queueing,
            stats.agg, stats.class_cell(cls), actor,
        )

    def _book(
        self, d: int, payload: int, wire: int, ser: float, charge: bool,
        agg: list, cell: list, actor: str, lat: Optional[float] = None,
    ) -> float:
        """Book one message on direction ``d``: the link's only charging code.

        Every sender ends here — :meth:`occupy`, :meth:`one_way`, both
        rows of :meth:`occupy_pair` and each hop of
        :meth:`repro.topology.net.Router.charge` — with the message's
        resolved ``payload``/``wire``/``ser`` figures and the live
        :class:`LinkStats` cells ``agg`` and ``cell`` of its direction
        and class. In order, it:

        * draws the message's link fault when an injector is attached:
          an active degrade window scales ``ser``, and a drop or
          duplicate books one wasted copy first. Coherent links never
          surface loss to the protocol layer — a dropped flit is
          retransmitted by the link layer — so a drop costs extra
          latency plus a second copy on the wire, and a duplicate burns
          the bandwidth without delaying the original. The wasted copy
          is counted with zero payload bytes;
        * rolls the utilization window on simulator time and adds the
          message's serialization demand to ``actor``'s share;
        * bumps the statistics cells;
        * when ``charge`` is set, computes the queueing wait.

        The wait is the smaller of two congestion regimes, both driven
        by the utilization that *other* actors offer (an actor's own
        stream is already paced by the latency charged to it, so it
        never queues behind itself):

        * M/D/1 residual wait ``ser * rho / (1 - rho)`` — right for a
          light actor slipping messages between heavy streams;
        * proportional fair share — right at saturation, where each
          heavy stream gets capacity * (its demand / total demand) and
          the M/D/1 pole would overshoot.

        Returns ``wait + disrupt`` when ``lat`` is None (the
        :meth:`occupy` contract) and the delivery delay
        ``wait + ser + lat + disrupt`` otherwise (:meth:`one_way`),
        where ``disrupt`` is the fault's extra latency and ``wait`` is
        0.0 for rows with ``charge`` False.
        """
        t = self.sim.now
        fault = None
        faults = self.faults
        if faults is not None:
            ser *= faults.link_ser_scale(self.name, t)
            fault = faults.link_decide(self.name, t)
        win_busy = self._win_busy
        win_by = self._win_by
        win_start = self._win_start
        rho_settled = self._rho
        window = self.WINDOW_NS
        elapsed = t - win_start[d]
        if elapsed >= window:
            cap = self.RHO_CAP
            rho_settled[d] = min(cap, win_busy[d] / elapsed)
            self._rho_by[d] = {
                a: min(cap, busy / elapsed)
                for a, busy in win_by[d].items()
            }
            win_start[d] = t
            win_busy[d] = 0.0
            win_by[d] = {}
        by = win_by[d]
        if fault is not None and (fault.retransmit or fault.duplicate):
            # The wasted copy: demand and stats, but no payload bytes.
            win_busy[d] += ser
            by[actor] = by.get(actor, 0.0) + ser
            agg[0] += 1
            agg[2] += wire
            agg[3] += ser
            cell[0] += 1
            cell[1] += wire
        busy = win_busy[d] + ser
        win_busy[d] = busy
        try:
            mine = by[actor] + ser
        except KeyError:
            mine = ser
        by[actor] = mine
        agg[0] += 1
        agg[1] += payload
        agg[2] += wire
        agg[3] += ser
        cell[0] += 1
        cell[1] += wire
        wait = 0.0
        if charge:
            try:
                settled_others = rho_settled[d] - self._rho_by[d][actor]
            except KeyError:
                settled_others = rho_settled[d]
            # Sole actor in the live window with nothing settled from
            # others: live_others is exactly 0.0 and the clipped
            # settled share is 0.0, so the wait is 0.0 — skip its
            # arithmetic entirely (the dominant uncontended case).
            if busy != mine or settled_others > 0.0:
                if settled_others < 0.0:
                    settled_others = 0.0
                live_elapsed = t - win_start[d] + ser
                live_floor = window / 4
                if live_elapsed < live_floor:
                    live_elapsed = live_floor
                live_others = (busy - mine) / live_elapsed
                rho_others = settled_others if settled_others >= live_others else live_others
                cap = self.RHO_CAP
                if rho_others > cap:
                    rho_others = cap
                if rho_others > 0.0:
                    mm1 = ser * rho_others / (1.0 - rho_others)
                    own = mine if mine >= ser else ser
                    settled_total = rho_settled[d]
                    live_total = busy / live_elapsed
                    rho_total = settled_total if settled_total >= live_total else live_total
                    if rho_total > 1.0:
                        rho_total = 1.0
                    over = busy / own - 1.0
                    if over < 0.0:
                        over = 0.0
                    fair = ser * over * rho_total * rho_total
                    wait = mm1 if mm1 <= fair else fair
        if fault is None:
            if lat is None:
                return wait
            return wait + ser + lat
        disrupt = fault.extra_ns + ser if fault.retransmit else fault.extra_ns
        if lat is None:
            return wait + disrupt
        return wait + ser + lat + disrupt

    def occupy_pair(self, plan: tuple, actor: str, base: float = 0.0) -> float:
        """Charge a flattened two-message plan; return ``base`` + waits.

        The coherence fabric's memoized transition plans always pair one
        request message with one response on the opposite half of the
        duplex link, so the whole plan is two :meth:`plan_occupy` rows
        concatenated into one flat 14-field tuple that unpacks in one
        step. Each row is booked by :meth:`_book` exactly as
        :meth:`occupy` books it — fault draws included, in row order —
        so the result is bit-identical to two :meth:`occupy` calls;
        only the per-call validation and payload resolution are
        batched away. Rows with ``charge_queueing`` False still consume
        window demand but add nothing (not even a fault's extra
        latency) to the returned total.
        """
        (d0, payload0, wire0, ser0, charge0, agg0, cell0,
         d1, payload1, wire1, ser1, charge1, agg1, cell1) = plan
        wait = self._book(d0, payload0, wire0, ser0, charge0, agg0, cell0, actor)
        if charge0:
            base += wait
        wait = self._book(d1, payload1, wire1, ser1, charge1, agg1, cell1, actor)
        if charge1:
            base += wait
        return base

    def plan_occupy(
        self,
        cls: MessageClass,
        direction: int,
        payload_bytes: Optional[int] = None,
        charge_queueing: bool = True,
    ) -> tuple:
        """Build a memoized charge row for :meth:`occupy_pair`.

        Returns the flat 7-field tuple ``(direction, payload, wire, ser,
        charge_queueing, agg, class_cell)``: the message's wire figures
        resolved against the current bandwidth and header configuration,
        plus the live statistics cells of the direction's
        :class:`LinkStats`. Building a row creates the class's
        statistics cell, so a holder builds it when the message is first
        sent, keeping per-class key order identical to per-message
        sends. The row embeds state that :meth:`scaled` and
        :meth:`reset_stats` replace, so holders must rebuild it when
        :attr:`on_scaled` fires. An attached fault injector needs no
        invalidation: :meth:`_book` consults :attr:`faults` per message.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = payload + self.header_overhead
        stats = self.stats[direction]
        return (direction, payload, wire, wire / self.bandwidth, charge_queueing,
                stats.agg, stats.class_cell(cls))

    def plan_one_way(self, cls: MessageClass, direction: int,
                     payload_bytes: Optional[int] = None) -> tuple:
        """Build a memoized per-hop charge row for :meth:`one_way`.

        Returns ``(link, latency)`` followed by the :meth:`plan_occupy`
        row, so a caller (see :meth:`repro.topology.net.Router.charge`)
        can book the hop with :meth:`_book` and get :meth:`one_way`'s
        delivery delay. Same invalidation contract as
        :meth:`plan_occupy`.
        """
        return (self, self.latency_ns) + self.plan_occupy(cls, direction, payload_bytes)

    def round_trip(
        self,
        request: MessageClass,
        response: MessageClass,
        direction: int,
        request_bytes: Optional[int] = None,
        response_bytes: Optional[int] = None,
    ) -> float:
        """Request out on ``direction``, response back on the other half."""
        out = self.one_way(request, direction, request_bytes)
        back = self.one_way(response, 1 - direction, response_bytes)
        return out + back

    # ------------------------------------------------------------------
    def utilization(self, direction: int, window_ns: float) -> float:
        """Fraction of ``window_ns`` this direction spent serializing."""
        if window_ns <= 0:
            return 0.0
        return min(1.0, self.stats[direction].busy_ns / window_ns)

    def total_wire_bytes(self) -> int:
        """Wire bytes in both directions combined."""
        return self.stats[0].wire_bytes + self.stats[1].wire_bytes

    def reset_stats(self) -> None:
        """Clear traffic statistics and the utilization-window state.

        Resetting the window state matters for reused links: a settled
        rho estimate or partially filled demand window from the previous
        experiment would otherwise leak queueing delay (and the per-class
        byte counters would double-count) into the next one.
        """
        self.stats = (LinkStats(), LinkStats())
        now = self.sim.now
        self._win_busy = [0.0, 0.0]
        self._win_by = [{}, {}]
        self._win_start = [now, now]
        self._rho = [0.0, 0.0]
        self._rho_by = [{}, {}]
        # Cached occupy_pair plans embed the replaced stats cells.
        if self.on_scaled is not None:
            self.on_scaled()

    def rho(self, direction: int) -> float:
        """Most recently settled utilization estimate for a direction."""
        return self._rho[direction]

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> None:
        """Rescale link performance in place (Fig 21 sensitivity knob)."""
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise InterconnectError("scale factors must be positive")
        self.latency_ns *= latency_factor
        self.bandwidth *= bandwidth_factor
        if self.on_scaled is not None:
            self.on_scaled()

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} lat={self.latency_ns:.1f}ns "
            f"bw={self.bandwidth * 8:.0f}Gbps>"
        )
