"""Time-resolved observability for the simulated system (``repro.obs``).

The perf benchmark's probe tracer answers "where does the *simulator*
spend wall clock"; this package answers "what is the *simulated system*
doing over simulated time" — the view the paper uses to explain DX100
mechanistically (row-buffer hits collapsing when a tile drains, banks
idling under inter-core interference, request buffers filling and
draining).

Three pieces, all off by default and near-zero-overhead when off:

* :class:`~repro.obs.events.EventBus` — a lightweight publish point every
  component carries as an ``obs`` attribute (``None`` unless attached).
  The DRAM controllers publish their command streams through the existing
  ``command_observers`` hook; the FR-FCFS scheduler publishes age-cap
  (starvation) overrides; the cache hierarchy publishes LLC misses and
  MSHR occupancy marks; cores publish head-of-line ROB-blocked windows;
  the DX100 accelerator publishes instruction spans and tile lifecycle
  phases (fill -> drain -> response -> writeback).
* :class:`~repro.obs.timeline.Timeline` — a periodic sampler fed by the
  bus that snapshots per-channel row-buffer hit rate, bandwidth
  utilization, request-buffer occupancy, and open banks every N cycles,
  plus MSHR occupancy and Row/Word-table fill, into a compact time
  series with an ASCII renderer.
* :mod:`~repro.obs.trace` — Chrome trace-event JSON export (loadable in
  Perfetto): one process per DRAM channel with a track per bank showing
  row-open spans, per-core tracks, DX100 tile-phase spans, and counter
  tracks from the sampled timeline.  :mod:`~repro.obs.validate` checks an
  emitted file is well-formed (``timeline --trace`` runs it).

Wired as ``python -m repro timeline <B> --trace out.json`` (the ASCII
timeline, plus the Chrome trace when ``--trace`` is given) and ``python
-m repro run --sample-every N``, which carries summary timeline stats in
``RunResult.extra`` via ``SweepTask(sample_every=N)``.
"""

from repro.obs.events import EventBus
from repro.obs.timeline import Timeline

__all__ = ["EventBus", "Timeline"]
