"""Per-tenant Row Table and request-buffer partitioning.

Isolation here is *structural*: each tenant owns a private
:class:`~repro.dx100.row_table.RowTable`, so no BCAM entry can ever mix
two tenants' words.  What the tenants share is the physical capacity —
``rows_per_slice`` BCAM entry units per bank slice — which this module
budgets with a hard quota plus a work-conserving borrow rule:

* an insert within the tenant's quota is always granted while physical
  capacity remains (the *reservation* guarantee: nobody can steal capacity
  a tenant is entitled to);
* an insert beyond quota is granted only when ``borrow=True`` and the
  slice retains enough headroom to honor every other tenant's unused
  reservation.

Both clauses collapse into one slice invariant, which
:func:`check_partition` verifies and the hypothesis suite attacks:

    sum over tenants of max(units_t, quota_t)  <=  rows_per_slice

The same max-of-use-and-quota rule governs the request-buffer credits in
:class:`BufferLedger`, which paces each tenant's in-flight lines at the
serving frontend.
"""

from __future__ import annotations

from repro.common.types import DRAMCoord
from repro.dx100.row_table import PendingLine, RowTable
from repro.serve.admission import QoSViolation


class PartitionedRowTable:
    """Per-tenant Row Tables under one shared physical slice budget."""

    def __init__(self, quotas: dict[int, int], rows_per_slice: int = 64,
                 cols_per_row: int = 8, borrow: bool = True) -> None:
        if not quotas:
            raise ValueError("need at least one tenant quota")
        for tenant, quota in quotas.items():
            if quota <= 0:
                raise ValueError(f"tenant {tenant}: quota must be positive")
        if sum(quotas.values()) > rows_per_slice:
            raise ValueError(
                f"quotas sum to {sum(quotas.values())} > physical "
                f"rows_per_slice {rows_per_slice}; reservations would be "
                f"unhonorable")
        self.rows_per_slice = rows_per_slice
        self.cols_per_row = cols_per_row
        self.borrow = borrow
        self.quotas = dict(quotas)
        self.tables: dict[int, RowTable] = {
            tenant: RowTable(rows_per_slice, cols_per_row)
            for tenant in quotas
        }
        # Refusal accounting, per tenant: physical-full vs quota-bound.
        self.refused_physical: dict[int, int] = {t: 0 for t in quotas}
        self.refused_quota: dict[int, int] = {t: 0 for t in quotas}
        self.borrowed_inserts: dict[int, int] = {t: 0 for t in quotas}

    def table(self, tenant: int) -> RowTable:
        return self.tables[tenant]

    def slice_total(self, flat_bank: tuple[int, int, int, int]) -> int:
        """Physical BCAM entry units used across all tenants on one slice."""
        return sum(t.slice_units(flat_bank) for t in self.tables.values())

    def try_insert(self, tenant: int, coord: DRAMCoord, line_addr: int,
                   iteration: int, h_bit_fn) -> tuple[bool, int | None]:
        """Insert one word for ``tenant``; refuse on quota or capacity.

        Returns ``(accepted, previous_tail)`` like
        :meth:`RowTable.insert`; a refusal means the caller must drain
        this tenant's table (quota-bound) or the slice (physical-bound)
        before retrying.
        """
        table = self.tables[tenant]
        cost = table.insert_cost(coord, line_addr)
        if cost:
            flat_bank = coord.flat_bank
            used = table.slice_units(flat_bank)
            total = self.slice_total(flat_bank)
            if total + cost > self.rows_per_slice:
                self.refused_physical[tenant] += 1
                return False, None
            quota = self.quotas[tenant]
            if used + cost > quota:
                if not self.borrow:
                    self.refused_quota[tenant] += 1
                    return False, None
                reserved_others = sum(
                    max(0, self.quotas[other]
                        - self.tables[other].slice_units(flat_bank))
                    for other in self.quotas if other != tenant
                )
                if total + cost + reserved_others > self.rows_per_slice:
                    self.refused_quota[tenant] += 1
                    return False, None
                self.borrowed_inserts[tenant] += 1
        return table.insert(coord, line_addr, iteration, h_bit_fn)

    def drain(self, tenant: int) -> list[PendingLine]:
        """Drain one tenant's table in its interleaved issue order."""
        return self.tables[tenant].drain()


def check_partition(part: PartitionedRowTable) -> None:
    """Verify the slice invariant and structural tenant isolation.

    Raises :class:`QoSViolation` when any slice exceeds physical capacity,
    when a tenant holds more than its quota without borrow headroom (the
    ``sum max(use, quota) <= physical`` inequality), or when one cache
    line is tracked by two tenants at once (an entry "mixing" tenants).
    """
    slices: set[tuple[int, int, int, int]] = set()
    owner: dict[int, int] = {}
    for tenant, table in part.tables.items():
        for flat_bank, _row, line_addr, _words in table.entries():
            slices.add(flat_bank)
            prev = owner.get(line_addr)
            if prev is not None and prev != tenant:
                raise QoSViolation(
                    f"line {line_addr:#x} tracked by tenants {prev} "
                    f"and {tenant}: entry mixes tenants")
            owner[line_addr] = tenant
    for flat_bank in slices:
        budget = 0
        total = 0
        for tenant, table in part.tables.items():
            used = table.slice_units(flat_bank)
            total += used
            budget += max(used, part.quotas[tenant])
        if total > part.rows_per_slice:
            raise QoSViolation(
                f"slice {flat_bank}: {total} entry units exceed physical "
                f"capacity {part.rows_per_slice}")
        if budget > part.rows_per_slice:
            over = {
                t: table.slice_units(flat_bank)
                for t, table in part.tables.items()
                if table.slice_units(flat_bank) > part.quotas[t]
            }
            raise QoSViolation(
                f"slice {flat_bank}: over-quota use {over} leaves "
                f"unhonorable reservations (sum max(use, quota) = "
                f"{budget} > {part.rows_per_slice})")


class BufferLedger:
    """Per-tenant in-flight line credits at the serving frontend.

    A frontend-level pacing mechanism, not a second cycle-accurate request
    buffer: the DRAM model's per-channel buffers stay authoritative for
    timing, while the ledger bounds how many lines a tenant may have
    outstanding, with the same hard-quota + work-conserving-borrow rule as
    the Row Table partition.
    """

    def __init__(self, quotas: dict[int, int], capacity: int,
                 borrow: bool = True) -> None:
        if sum(quotas.values()) > capacity:
            raise ValueError("buffer quotas exceed physical capacity")
        self.quotas = dict(quotas)
        self.capacity = capacity
        self.borrow = borrow
        self.inflight: dict[int, int] = {t: 0 for t in quotas}
        self.peak: dict[int, int] = {t: 0 for t in quotas}

    def try_acquire(self, tenant: int, lines: int = 1) -> bool:
        """Reserve ``lines`` credits for ``tenant`` if the rule allows."""
        used = self.inflight[tenant]
        budget = sum(
            max(self.inflight[t], self.quotas[t])
            for t in self.quotas if t != tenant
        )
        if used + lines > self.quotas[tenant]:
            if not self.borrow:
                return False
            if budget + used + lines > self.capacity:
                return False
        elif budget + max(used + lines, self.quotas[tenant]) > self.capacity:
            return False
        self.inflight[tenant] = used + lines
        if self.inflight[tenant] > self.peak[tenant]:
            self.peak[tenant] = self.inflight[tenant]
        return True

    def release(self, tenant: int, lines: int = 1) -> None:
        self.inflight[tenant] -= lines

    def check(self) -> None:
        """Credits never negative; ``sum max(use, quota)`` within capacity."""
        for tenant, used in self.inflight.items():
            if used < 0:
                raise QoSViolation(
                    f"tenant {tenant}: negative in-flight credit {used}")
        budget = sum(max(self.inflight[t], self.quotas[t])
                     for t in self.quotas)
        if budget > self.capacity:
            raise QoSViolation(
                f"in-flight budget {budget} exceeds buffer capacity "
                f"{self.capacity} (inflight={self.inflight})")
