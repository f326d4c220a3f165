"""Request scheduling policies for the scalar memory controller.

FR-FCFS (first-ready, first-come-first-served) prefers requests that hit the
currently open row of their bank — the industry-standard policy the paper's
baseline uses (Table 3) — falling back to the oldest request.  FCFS is
provided as an ablation baseline.

Each policy is one linear scan over the request buffer: stateless apart
from the starvation probe, and the readable specification of the pick
order.  Ties on equal arrival go to the earlier buffer insertion (the
first minimum the scan meets).  The production engine
(:class:`~repro.dram.batched.BatchedController`) keeps its buffer sorted
in that order and scans it only when its row-hit counts say a hit is
buffered; ``tests/dram/test_engine_differential.py`` checks the two agree
command for command.
"""

from __future__ import annotations

from repro.common.types import DRAMCoord, DRAMRequest
from repro.dram.bank import BankState

#: FR-FCFS starvation bound: once the oldest buffered request has waited
#: more than this many cycles it is serviced regardless of row state.
AGE_CAP = 2000


class FCFS:
    """Strict arrival-order scheduling."""

    def pick(self, buffer: list[tuple[DRAMRequest, DRAMCoord]],
             banks: dict[tuple, BankState], last_was_write: bool = False,
             now: int = 0) -> int:
        """Return the buffer index of the oldest request."""
        best = 0
        for i, (req, _) in enumerate(buffer):
            if req.arrival < buffer[best][0].arrival:
                best = i
        return best


class FRFCFS:
    """First-ready FCFS with read/write grouping.

    Preference order: oldest row-buffer hit *matching the bus's current
    transfer direction*, then oldest row-buffer hit, then the oldest
    request.  Direction grouping models the write-buffering every modern
    controller performs to avoid paying the bus-turnaround penalty on
    each alternation.  A starvation cap ages requests: once the oldest
    buffered request has waited :data:`AGE_CAP` cycles it is serviced
    regardless of row state (real FR-FCFS implementations bound reordering
    the same way).
    """

    def __init__(self) -> None:
        # Observability probe (:class:`repro.obs.events._SchedulerProbe`):
        # stamped with this scheduler's channel when an EventBus attaches;
        # publishes age-cap (starvation) overrides.  None when off.
        self.obs = None

    def pick(self, buffer: list[tuple[DRAMRequest, DRAMCoord]],
             banks: dict[tuple, BankState], last_was_write: bool = False,
             now: int = 0) -> int:
        """Return the buffer index of the next request to service."""
        best_dir_hit = -1
        best_dir_arrival = 0
        best_hit = -1
        best_hit_arrival = 0
        best_any = 0
        best_any_arrival = buffer[0][0].arrival
        for i, (req, coord) in enumerate(buffer):
            if req.arrival < best_any_arrival:
                best_any = i
                best_any_arrival = req.arrival
            bank = banks.get(coord.flat_bank)
            if bank is not None and bank.is_hit(coord.row):
                if best_hit < 0 or req.arrival < best_hit_arrival:
                    best_hit = i
                    best_hit_arrival = req.arrival
                if req.is_write == last_was_write and (
                        best_dir_hit < 0 or req.arrival < best_dir_arrival):
                    best_dir_hit = i
                    best_dir_arrival = req.arrival
        if now - best_any_arrival > AGE_CAP:
            if self.obs is not None:
                self.obs.starvation(now)
            return best_any
        if best_dir_hit >= 0:
            return best_dir_hit
        return best_hit if best_hit >= 0 else best_any


#: The policy names ``DRAMConfig.scheduler`` accepts.
SCHEDULERS: dict[str, type[FRFCFS | FCFS]] = {"frfcfs": FRFCFS,
                                               "fcfs": FCFS}


def make_scheduler(name: str) -> FRFCFS | FCFS:
    """Build a scheduler by policy name (``frfcfs`` or ``fcfs``;
    ``DRAMConfig`` checks the name at construction)."""
    return SCHEDULERS[name]()
