"""Core substrate: traces, the OoO window model, multicore interleaving."""

from repro.core.multicore import Multicore
from repro.core.ooo import AtomicsArbiter, CoreModel
from repro.core.trace import BulkEmitter, Trace, TraceBuilder, split_static

__all__ = [
    "AtomicsArbiter",
    "BulkEmitter",
    "CoreModel",
    "Multicore",
    "Trace",
    "TraceBuilder",
    "split_static",
]
