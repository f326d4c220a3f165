"""System configuration tree (the paper's Table 3).

All timing is expressed in CPU cycles at 3.2 GHz (one cycle = 0.3125 ns).
DDR4-3200's tCK of 625 ps is therefore exactly 2 CPU cycles, which keeps the
DRAM timing integral without a separate clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

CPU_GHZ = 3.2
CYCLE_NS = 1.0 / CPU_GHZ
CACHE_LINE = 64


def ns_to_cycles(ns: float) -> int:
    """Convert nanoseconds to (rounded) CPU cycles at 3.2 GHz."""
    return round(ns * CPU_GHZ)


def _require_positive(config, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first of ``names`` below 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{type(config).__name__}.{name} must be >= 1, "
                             f"got {value}")


def _require_choice(config, name: str, choices: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``config.name`` is one of ``choices``."""
    value = getattr(config, name)
    if value not in choices:
        raise ValueError(f"{type(config).__name__}.{name} is {value!r}; "
                         f"expected one of {', '.join(choices)}")


@dataclass(frozen=True)
class CoreConfig:
    """An out-of-order core modelled after Skylake (Table 3)."""

    width: int = 8
    rob_size: int = 224
    lq_size: int = 72
    sq_size: int = 56
    iq_size: int = 50
    # Atomic RMWs serialize per core: the next atomic issues only after the
    # previous one completes plus this fence/store-buffer-drain cost.
    # Calibrated so cached atomics run ~4-5x slower than plain RMWs (the
    # Free Atomics measurement the paper cites), while atomics that miss to
    # DRAM serialize on the full memory latency.
    atomic_fence_cycles: int = 4

    def __post_init__(self) -> None:
        _require_positive(self, ("width", "rob_size", "lq_size", "sq_size",
                                 "iq_size"))


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    mshrs: int
    line_bytes: int = CACHE_LINE
    prefetcher: bool = False
    prefetch_degree: int = 2

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )


@dataclass(frozen=True)
class DDR4Timing:
    """JEDEC DDR4-3200 timing constraints, in CPU cycles (Table 3 values).

    tCK = 625 ps = 2 CPU cycles.  tCCD_S/L = 2.5/5.0 ns, tRP = tRCD =
    12.5 ns, tRTP = 7.5 ns, tRAS = 32.5 ns, per the paper; the remaining
    parameters use standard DDR4-3200AA values.
    """

    tCK: int = 2
    tRP: int = ns_to_cycles(12.5)     # 40
    tRCD: int = ns_to_cycles(12.5)    # 40
    tCCD_S: int = ns_to_cycles(2.5)   # 8
    tCCD_L: int = ns_to_cycles(5.0)   # 16
    tRTP: int = ns_to_cycles(7.5)     # 24
    tRAS: int = ns_to_cycles(32.5)    # 104
    tCL: int = ns_to_cycles(13.75)    # 44  (CL22)
    tCWL: int = ns_to_cycles(10.0)    # 32  (CWL16)
    tWR: int = ns_to_cycles(15.0)     # 48
    tRRD_S: int = ns_to_cycles(2.5)   # 8
    tRRD_L: int = ns_to_cycles(5.0)   # 16
    tFAW: int = ns_to_cycles(25.0)    # 80
    tBL: int = 8                      # BL8 burst = 4 tCK = 8 CPU cycles
    # Refresh: one all-bank REF per rank every tREFI, blocking the rank for
    # tRFC.  JEDEC DDR4-3200 (8 Gb devices): tREFI = 7.8 us, tRFC = 350 ns.
    tREFI: int = ns_to_cycles(7800.0)  # 24960
    tRFC: int = ns_to_cycles(350.0)    # 1120

    @property
    def tRC(self) -> int:
        return self.tRAS + self.tRP


@dataclass(frozen=True)
class RemoteLinkConfig:
    """A far-memory (CXL/RDMA-style) link in front of part of the pool.

    Disabled by default: every address is local DDR and nothing in either
    DRAM engine changes.  When ``enabled``, addresses selected by
    ``placement`` live in a far pool reached through a serial link that
    adds one-way ``latency`` each direction, serializes 64B payloads at
    ``gbps``, and allows at most ``queue_depth`` line transfers in flight
    on the return path (a read-return buffer).  The far pool itself reuses
    the local DRAM timing model — the link is purely additive, which keeps
    the scalar oracle and the batched engine bitwise identical (they share
    one link state object and service requests in the same order).

    ``placement`` selects which lines are far:

    * ``"all"`` — the whole pool is far (the headline ``cxl`` preset);
    * ``"range"`` — far iff ``addr >= far_base`` (per-array placement:
      workloads allocate arrays contiguously from the heap base);
    * ``"hash"`` — a deterministic per-line hash sends ``far_fraction``
      of lines far (interleaved local/far, no layout knowledge needed).
    """

    enabled: bool = False
    latency: int = 400        # one-way propagation, CPU cycles (~125 ns)
    gbps: float = 32.0        # per-direction payload bandwidth (GB/s)
    queue_depth: int = 64     # in-flight line transfers on the return path
    congestion: bool = False  # occupancy-proportional extra queueing delay
    placement: str = "all"    # all | range | hash
    far_base: int = 0         # placement="range": far iff addr >= far_base
    far_fraction: float = 1.0  # placement="hash": fraction of lines far

    def __post_init__(self) -> None:
        _require_positive(self, ("queue_depth",))
        _require_choice(self, "placement", ("all", "range", "hash"))
        if self.latency < 0:
            raise ValueError(f"RemoteLinkConfig.latency must be >= 0, got "
                             f"{self.latency}")
        if not self.gbps > 0:
            raise ValueError(f"RemoteLinkConfig.gbps must be positive, got "
                             f"{self.gbps}")
        if not 0.0 <= self.far_fraction <= 1.0:
            raise ValueError(f"RemoteLinkConfig.far_fraction must be in "
                             f"[0, 1], got {self.far_fraction}")


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM organization (Table 3: 2 channels of DDR4-3200, 51.2 GB/s)."""

    channels: int = 2
    ranks: int = 1
    bankgroups: int = 4
    banks_per_group: int = 4
    rows: int = 1 << 16
    columns: int = 128            # cache lines per row (8 KiB row)
    line_bytes: int = CACHE_LINE
    request_buffer: int = 32      # per channel (Table 3)
    scheduler: str = "frfcfs"     # or "fcfs"
    page_policy: str = "open"     # or "closed" (auto-precharge)
    audit: bool = False           # attach a JEDEC CommandAuditor per channel
    refresh: bool = True          # per-rank all-bank REF every tREFI
    #: Inner simulation engine: ``"batched"`` (structure-of-arrays request
    #: buffer, dense bank-state arrays, whole-batch decode — the production
    #: engine) or ``"scalar"`` (the per-request object-dispatch oracle the
    #: differential tests compare against).  Both produce bitwise-identical
    #: command streams and metrics.
    engine: str = "batched"
    timing: DDR4Timing = field(default_factory=DDR4Timing)
    #: Far-memory tier: when ``remote.enabled``, addresses selected by its
    #: placement rule pay link latency/serialization on top of the (shared)
    #: DRAM timing model.  Off by default — a disabled link is bitwise
    #: invisible to both engines.
    remote: RemoteLinkConfig = field(default_factory=RemoteLinkConfig)

    @property
    def banks_total(self) -> int:
        return self.channels * self.ranks * self.bankgroups * self.banks_per_group

    @property
    def row_bytes(self) -> int:
        return self.columns * self.line_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.banks_total * self.rows * self.row_bytes

    @property
    def peak_bw_gbps(self) -> float:
        """Peak bandwidth in GB/s: one 64B burst per tBL per channel."""
        per_channel = self.line_bytes / (self.timing.tBL * CYCLE_NS)
        return per_channel * self.channels

    def __post_init__(self) -> None:
        _require_positive(self, ("request_buffer",))
        _require_choice(self, "scheduler", ("frfcfs", "fcfs"))
        _require_choice(self, "page_policy", ("open", "closed"))
        _require_choice(self, "engine", ("batched", "scalar"))


def ddr5_6400() -> "DRAMConfig":
    """An approximate DDR5-6400 configuration (sensitivity studies).

    Modelled as four independent 32-bit subchannels (two DIMM channels),
    eight bank groups, BL16 bursts delivering a 64B line in 2.5 ns per
    subchannel — 102.4 GB/s peak.  Timings use typical DDR5-6400 values
    converted to 3.2 GHz CPU cycles (tCK = 1 cycle exactly).
    """
    timing = DDR4Timing(
        tCK=1,
        tRP=ns_to_cycles(16.0),
        tRCD=ns_to_cycles(16.0),
        tCCD_S=8,                  # 8 tCK
        tCCD_L=ns_to_cycles(5.0),
        tRTP=ns_to_cycles(7.5),
        tRAS=ns_to_cycles(32.0),
        tCL=ns_to_cycles(16.0),
        tCWL=ns_to_cycles(14.0),
        tWR=ns_to_cycles(30.0),
        tRRD_S=8,
        tRRD_L=ns_to_cycles(5.0),
        tFAW=ns_to_cycles(13.333),
        tBL=8,                     # BL16 on a 32-bit subchannel
        # DDR5 halves the refresh interval and shortens the recovery:
        # tREFI1 = 3.9 us, tRFC1 = 295 ns (16 Gb devices).
        tREFI=ns_to_cycles(3900.0),
        tRFC=ns_to_cycles(295.0),
    )
    return DRAMConfig(channels=4, bankgroups=8, banks_per_group=4,
                      timing=timing)


def cxl_remote(latency: int = 400, gbps: float = 32.0,
               queue_depth: int = 64) -> "DRAMConfig":
    """A DDR4 pool entirely behind a CXL-style expander link.

    The defaults model a CXL 2.0 x8 port: ~125 ns one-way propagation
    (400 CPU cycles), 32 GB/s per direction, and a 64-entry read-return
    buffer.  The device-side media keeps the local DDR4-3200 timing; the
    link costs are purely additive (see :class:`RemoteLinkConfig`).
    """
    return DRAMConfig(remote=RemoteLinkConfig(
        enabled=True, latency=latency, gbps=gbps, queue_depth=queue_depth))


#: The single registry of DRAM backend presets.  Everything that accepts a
#: DRAM name — ``sweep.task_grid`` and the run and timeline CLI — resolves
#: through here, so adding a backend is one entry and every error message
#: enumerates the same set.
DRAM_PRESETS = {
    "ddr4": DRAMConfig,
    "ddr5": ddr5_6400,
    "cxl": cxl_remote,
}


def dram_preset(name: str) -> "DRAMConfig":
    """Build the named DRAM backend preset, erroring with the valid set."""
    try:
        builder = DRAM_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown DRAM preset {name!r}; valid presets: "
            f"{', '.join(sorted(DRAM_PRESETS))}") from None
    return builder()


@dataclass(frozen=True)
class DX100Config:
    """DX100 accelerator parameters (Table 3)."""

    tile_elems: int = 16 * 1024
    num_tiles: int = 32
    num_registers: int = 32
    row_table_rows: int = 64          # BCAM entries per slice
    row_table_cols: int = 8           # SRAM column entries per row
    request_table: int = 128          # stream-unit outstanding lines
    alu_lanes: int = 16
    tlb_entries: int = 256
    fill_rate: int = 16               # indices decoded per cycle (the BCAM
                                      # slices accept inserts in parallel)
    spd_read_latency: int = 20        # core load from scratchpad over NoC
    noc_latency: int = 24             # core -> DX100 instruction delivery
    drain_rate: int = 2               # requests handed to Interface per cycle
    stream_issue_rate: int = 2        # stream-unit line requests per cycle
    tlb_miss_penalty: int = 100

    def __post_init__(self) -> None:
        _require_positive(self, (
            "tile_elems", "num_tiles", "num_registers", "row_table_rows",
            "row_table_cols", "request_table", "alu_lanes", "tlb_entries",
            "fill_rate", "drain_rate", "stream_issue_rate"))

    @property
    def spd_bytes(self) -> int:
        return self.tile_elems * self.num_tiles * 4

    def with_tile(self, tile_elems: int) -> "DX100Config":
        return replace(self, tile_elems=tile_elems)


@dataclass(frozen=True)
class SystemConfig:
    """The full simulated system.

    ``baseline()`` / ``dx100()`` / ``dmp()`` build the three configurations
    evaluated in the paper; the LLC of the baseline and DMP systems is 2 MB
    larger to compensate for DX100's scratchpad area (Section 5).
    """

    name: str = "baseline"
    cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "L1D", 32 * 1024, 8, latency=4, mshrs=16, prefetcher=True
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "L2", 256 * 1024, 4, latency=12, mshrs=32, prefetcher=True
        )
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "LLC", 10 * 1024 * 1024, 20, latency=42, mshrs=256
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    dx100: DX100Config | None = None
    dx100_instances: int = 1
    dmp: bool = False
    #: Simulation front-end: ``"batched"`` (fused cache-walk/tile kernels and
    #: an event-skip multicore loop — the production front-end) or
    #: ``"scalar"`` (the per-access oracle the differential tests compare
    #: against).  Mirrors ``DRAMConfig.engine``; both front-ends produce
    #: bitwise-identical metrics and DRAM command streams.
    frontend: str = "batched"

    def __post_init__(self) -> None:
        _require_positive(self, ("dx100_instances",))
        _require_choice(self, "frontend", ("batched", "scalar"))

    def with_dram(self, dram: DRAMConfig) -> "SystemConfig":
        """This system on ``dram``, its channels doubled above 4 cores (the
        paper's scale-up from 4 cores / 2 channels to 8 cores / 4)."""
        if self.cores > 4:
            dram = replace(dram, channels=2 * dram.channels)
        return replace(self, dram=dram)

    @staticmethod
    def baseline(cores: int = 4) -> "SystemConfig":
        cfg = SystemConfig(cores=cores).with_dram(DRAMConfig())
        if cores > 4:
            cfg = replace(cfg, llc=replace(cfg.llc,
                                           size_bytes=20 * 1024 * 1024))
        return cfg

    @staticmethod
    def dx100_system(cores: int = 4, tile_elems: int = 16 * 1024,
                     instances: int = 1) -> "SystemConfig":
        base = SystemConfig.baseline(cores)
        small_llc = replace(
            base.llc,
            size_bytes=base.llc.size_bytes - 2 * 1024 * 1024 * instances,
            ways=base.llc.ways - 4 if base.llc.ways > 4 else base.llc.ways,
        )
        return replace(
            base,
            name="dx100" if instances == 1 else f"dx100x{instances}",
            llc=small_llc,
            dx100=DX100Config(tile_elems=tile_elems),
            dx100_instances=instances,
        )

    @staticmethod
    def dmp_system(cores: int = 4) -> "SystemConfig":
        return replace(SystemConfig.baseline(cores), name="dmp", dmp=True)

    # ------------------------------------------------------- scaled presets
    #
    # The paper's workloads use multi-hundred-megabyte footprints against a
    # 10 MB LLC.  Python request-level simulation caps trace lengths around
    # a few hundred thousand operations, so the main-evaluation presets
    # scale the shared LLC down by 8x (10 MB -> 1.25 MB) to preserve the
    # footprint-to-LLC ratio that makes the kernels memory-bound.  The DX100
    # variant gives up the scaled equivalent of its scratchpad area, mirroring
    # the paper's 2 MB LLC handicap (Section 5).

    @staticmethod
    def baseline_scaled(cores: int = 4) -> "SystemConfig":
        cfg = SystemConfig.baseline(cores)
        llc_bytes = (1280 if cores <= 4 else 2560) * 1024
        return replace(cfg, llc=replace(cfg.llc, size_bytes=llc_bytes))

    @staticmethod
    def dx100_scaled(cores: int = 4, tile_elems: int = 16 * 1024,
                     instances: int = 1) -> "SystemConfig":
        cfg = SystemConfig.baseline_scaled(cores)
        llc_bytes = cfg.llc.size_bytes - 256 * 1024 * instances
        return replace(
            cfg, name="dx100" if instances == 1 else f"dx100x{instances}",
            llc=replace(cfg.llc, size_bytes=llc_bytes, ways=16),
            dx100=DX100Config(tile_elems=tile_elems),
            dx100_instances=instances,
        )

    @staticmethod
    def dmp_scaled(cores: int = 4) -> "SystemConfig":
        return replace(SystemConfig.baseline_scaled(cores), name="dmp",
                       dmp=True)
