"""The observability event bus.

Components never import this module on their hot paths: each carries an
``obs`` attribute that defaults to ``None``, and every publish site is
guarded by ``if self.obs is not None`` — one attribute load and one branch
when observability is off, which is what keeps the golden quick-suite
metrics bitwise identical and the wall clock within noise of an
un-instrumented run.

With a bus attached (:meth:`EventBus.attach`), events are normalized into
flat tuples (cheap to append, trivially serializable) and optionally fed
to a :class:`~repro.obs.timeline.Timeline` sampler.  The bus records
*simulated* time exclusively: every timestamp is a core/DRAM cycle, never
wall clock.

Event streams recorded when ``trace=True``:

``dram_events``
    ``(channel, kind, cycle, flat_bank, row)`` — every ACT/PRE/RD/WR, via
    the memory controller's ``command_observers`` hook (the same hook the
    JEDEC auditor uses, now generalized to carry any observer).
``core_spans`` / ``core_misses``
    ``(core, name, start, end)`` head-of-line ROB-blocked windows and
    ``(core, cycle)`` DRAM-bound demand misses.
``llc_misses`` / ``mshr_marks``
    ``(cycle,)`` LLC demand misses and ``(name, cycle, occupancy,
    capacity)`` MSHR allocation high-water marks.
``starvations``
    ``(channel, cycle)`` FR-FCFS age-cap overrides (a starving request
    forced ahead of row hits).
``dx_spans`` / ``tile_phases`` / ``rt_fills``
    ``(unit, name, start, end)`` DX100 instruction spans; ``(tile, phase,
    start, end, lines)`` tile lifecycle phases (fill, drain, response,
    writeback, stream-in, stream-out, alu); ``(cycle, entries, lines)``
    Row Table occupancy at each drain.
``link_marks``
    ``(cycle, inflight, wait)`` far-memory link return-path deliveries:
    the delivery cycle, the read-return ring occupancy at grant time, and
    the cycles the response waited for the link (queueing, not
    propagation).
"""

from __future__ import annotations


class _SchedulerProbe:
    """Adapter giving a per-channel scheduler a channel-stamped publish
    point (the scheduler itself does not know which channel it serves)."""

    __slots__ = ("bus", "channel")

    def __init__(self, bus: "EventBus", channel: int) -> None:
        self.bus = bus
        self.channel = channel

    def starvation(self, cycle: int) -> None:
        """Publish one age-cap override at ``cycle``."""
        self.bus.starvation(self.channel, cycle)


class EventBus:
    """Collects time-stamped events from every simulated component.

    ``trace=True`` records full event streams for Chrome-trace export;
    ``sample_every=N`` (N > 0) additionally builds and drives a
    :class:`~repro.obs.timeline.Timeline`.  Either works without the
    other; a bus with both off is legal but pointless.

    Attach with :meth:`attach` *after* the system is fully built — it
    hooks the DRAM controllers' ``command_observers``, wraps each
    channel's scheduler with a :class:`_SchedulerProbe`, and installs
    itself as the ``obs`` attribute of the hierarchy, MSHR files, cores,
    and the DX100 accelerator/indirect unit.
    """

    def __init__(self, trace: bool = True, sample_every: int = 0) -> None:
        self.trace = bool(trace)
        self.sample_every = int(sample_every)
        self.timeline = None
        if self.sample_every > 0:
            from repro.obs.timeline import Timeline
            self.timeline = Timeline(self.sample_every)
        self.dram_events: list[tuple] = []
        self.core_spans: list[tuple] = []
        self.core_misses: list[tuple] = []
        self.llc_misses: list[tuple] = []
        self.mshr_marks: list[tuple] = []
        self.starvations: list[tuple] = []
        self.dx_spans: list[tuple] = []
        self.tile_phases: list[tuple] = []
        self.rt_fills: list[tuple] = []
        self.link_marks: list[tuple] = []

    # ------------------------------------------------------------ attachment

    def attach(self, system) -> None:
        """Wire this bus into every component of a built ``SimSystem``."""
        for ctrl in system.dram.controllers:
            ctrl.command_observers.append(self.dram_command)
            scheduler = ctrl.scheduler
            if hasattr(scheduler, "obs"):
                scheduler.obs = _SchedulerProbe(self, ctrl.channel)
        if self.timeline is not None:
            self.timeline.watch(system)
        if system.dram.remote is not None:
            system.dram.remote.obs = self
        hierarchy = system.hierarchy
        hierarchy.obs = self
        for mshr in (*hierarchy.l1_mshr, *hierarchy.l2_mshr,
                     hierarchy.llc_mshr):
            mshr.obs = self
        for core in system.multicore.cores:
            core.obs = self
        for dx in system.dx100s:
            dx.obs = self
            dx.indirect.obs = self

    # -------------------------------------------------------------- publish

    def dram_command(self, kind: str, cycle: int, flat_bank: tuple,
                     row: int) -> None:
        """One DRAM command (the ``command_observers`` callback shape)."""
        channel = flat_bank[0]
        if self.trace:
            self.dram_events.append((channel, kind, cycle, flat_bank, row))
        if self.timeline is not None:
            self.timeline.on_dram(channel, kind, cycle, flat_bank, row)

    def starvation(self, channel: int, cycle: int) -> None:
        """FR-FCFS age-cap override on ``channel`` at ``cycle``."""
        if self.trace:
            self.starvations.append((channel, cycle))

    def core_span(self, core: int, name: str, start: float,
                  end: float) -> None:
        """A per-core blocked window (e.g. ``rob-blocked``)."""
        if self.trace:
            self.core_spans.append((core, name, float(start), float(end)))

    def core_miss(self, core: int, cycle: int) -> None:
        """A demand access from ``core`` that went all the way to DRAM."""
        if self.trace:
            self.core_misses.append((core, cycle))

    def llc_miss(self, cycle: int) -> None:
        """One shared-LLC demand miss."""
        if self.trace:
            self.llc_misses.append((cycle,))

    def mshr_occupancy(self, name: str, cycle: int, occupancy: int,
                       capacity: int) -> None:
        """MSHR occupancy after an allocation (``name`` is the file)."""
        if self.trace:
            self.mshr_marks.append((name, cycle, occupancy, capacity))
        if self.timeline is not None:
            self.timeline.on_mshr(name, cycle, occupancy, capacity)

    def dx_span(self, unit: str, name: str, start: int, end: int) -> None:
        """One DX100 instruction occupying ``unit`` for [start, end)."""
        if self.trace:
            self.dx_spans.append((unit, name, start, end))

    def tile_phase(self, tile: int, phase: str, start: int, end: int,
                   lines: int = 0) -> None:
        """One tile lifecycle phase span (``lines`` = requests/elements)."""
        if self.trace:
            self.tile_phases.append((tile, phase, start, end, lines))
        if self.timeline is not None and phase == "drain":
            self.timeline.on_drain(tile, start, end, lines)

    def rt_fill(self, cycle: int, entries: int, lines: int) -> None:
        """Row Table occupancy (BCAM ``entries``) at a drain issuing
        ``lines`` unique-line requests."""
        if self.trace:
            self.rt_fills.append((cycle, entries, lines))
        if self.timeline is not None:
            self.timeline.on_rt_fill(cycle, entries, lines)

    def link_transfer(self, cycle: int, inflight: int, wait: int) -> None:
        """One far-memory link return delivery at ``cycle`` (``inflight``
        = read-return ring occupancy at grant, ``wait`` = cycles queued
        for the link beyond the far-side DRAM finish)."""
        if self.trace:
            self.link_marks.append((cycle, inflight, wait))
        if self.timeline is not None:
            self.timeline.on_link(cycle, inflight, wait)

    # -------------------------------------------------------------- summary

    def event_count(self) -> int:
        """Total recorded trace events across all streams."""
        return (len(self.dram_events) + len(self.core_spans)
                + len(self.core_misses) + len(self.llc_misses)
                + len(self.mshr_marks) + len(self.starvations)
                + len(self.dx_spans) + len(self.tile_phases)
                + len(self.rt_fills) + len(self.link_marks))

    def summary(self) -> dict:
        """JSON-serializable digest for ``RunResult.extra``.

        Keys are ``obs_``/``timeline_``-prefixed so they can never collide
        with the deterministic metric counters the golden harness pins.
        """
        out: dict = {}
        if self.trace:
            out["obs_trace_events"] = self.event_count()
            out["obs_starvations"] = len(self.starvations)
            if self.link_marks:
                out["obs_link_transfers"] = len(self.link_marks)
        if self.timeline is not None:
            out.update(self.timeline.summary())
        return out
