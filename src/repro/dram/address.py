"""Physical-address to DRAM-coordinate mapping.

The mapper slices a physical address (above the 64B line offset) into
channel / bank-group / column / bank / rank / row fields.  The default field
order, from least-significant bit upward, is::

    offset(6) | channel | bankgroup | column | bank | rank | row

so that consecutive cache lines alternate channels first and bank groups
second — the interleaving a stream needs to reach peak bandwidth (Section
2.1) — while lines within one (channel, bank group) stay in the same row.
The order is configurable so experiments (and property tests) can explore
other layouts.
"""

from __future__ import annotations

from repro.common.config import DRAMConfig
from repro.common.types import DRAMCoord

DEFAULT_ORDER = ("channel", "bankgroup", "column", "bank", "rank", "row")


class AddressMapper:
    """Bijective mapping between physical line addresses and DRAM coords."""

    def __init__(self, config: DRAMConfig,
                 order: tuple[str, ...] = DEFAULT_ORDER) -> None:
        widths = {
            "channel": _log2(config.channels),
            "rank": _log2(config.ranks),
            "bankgroup": _log2(config.bankgroups),
            "bank": _log2(config.banks_per_group),
            "row": _log2(config.rows),
            "column": _log2(config.columns),
        }
        if set(order) != set(widths):
            raise ValueError(f"order must name each field once, got {order}")
        self.config = config
        self.order = order
        self.offset_bits = _log2(config.line_bytes)
        self._fields: list[tuple[str, int, int]] = []  # (name, shift, width)
        shift = self.offset_bits
        for name in order:
            self._fields.append((name, shift, widths[name]))
            shift += widths[name]
        self.total_bits = shift
        plan = {name: (fshift, (1 << width) - 1)
                for name, fshift, width in self._fields}
        #: The decode plan on byte addresses: shift, mask, shift, mask, ...
        #: for channel, rank, bankgroup, bank, row and column, in
        #: DRAMCoord argument order.  ``DRAMSystem.access`` decodes from it
        #: inline.
        self.decode = tuple(
            v for name in ("channel", "rank", "bankgroup", "bank", "row",
                           "column")
            for v in plan[name])

    def map(self, addr: int) -> DRAMCoord:
        """Decode a physical byte address into DRAM coordinates."""
        cs, cm, ks, km, gs, gm, bs, bm, rs, rm, ls, lm = self.decode
        return DRAMCoord((addr >> cs) & cm, (addr >> ks) & km,
                         (addr >> gs) & gm, (addr >> bs) & bm,
                         (addr >> rs) & rm, (addr >> ls) & lm)

    def unmap(self, coord: DRAMCoord) -> int:
        """Reconstruct the (line-aligned) physical address of a coordinate."""
        values = {
            "channel": coord.channel,
            "rank": coord.rank,
            "bankgroup": coord.bankgroup,
            "bank": coord.bank,
            "row": coord.row,
            "column": coord.column,
        }
        addr = 0
        for name, shift, width in self._fields:
            value = values[name]
            if value >= (1 << width):
                raise ValueError(f"{name}={value} exceeds {width} bits")
            addr |= value << shift
        return addr

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.config.line_bytes - 1)

    def map_arrays(self, addrs) -> dict[str, "np.ndarray"]:
        """Vectorized :meth:`map` for NumPy address arrays.

        Returns a dict of field-name -> array, plus ``"flat_bank"`` (a single
        integer key combining channel/rank/bankgroup/bank, in ascending
        interleave priority) and ``"line"`` (line-aligned addresses).  Used
        by the DX100 indirect unit to decode a whole tile at once.
        """
        import numpy as np

        addrs = np.asarray(addrs, dtype=np.int64)
        out: dict[str, np.ndarray] = {}
        for name, shift, width in self._fields:
            out[name] = (addrs >> shift) & ((1 << width) - 1)
        cfg = self.config
        out["flat_bank"] = (
            ((out["rank"] * cfg.bankgroups + out["bankgroup"])
             * cfg.banks_per_group + out["bank"]) * cfg.channels
            + out["channel"]
        )
        out["line"] = addrs & ~np.int64(cfg.line_bytes - 1)
        return out

    def compose(self, channel: int = 0, rank: int = 0, bankgroup: int = 0,
                bank: int = 0, row: int = 0, column: int = 0,
                offset: int = 0) -> int:
        """Build an address from explicit coordinates (test/workload helper)."""
        coord = DRAMCoord(channel=channel, rank=rank, bankgroup=bankgroup,
                          bank=bank, row=row, column=column)
        return self.unmap(coord) | offset


def _log2(n: int) -> int:
    # ``DRAMConfig`` checks at construction that ``n`` is a power of two.
    return n.bit_length() - 1
