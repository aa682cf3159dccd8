"""Instruction-set substrate: instruction classes and dynamic traces."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".instruction": (
        "EXECUTION_LATENCY", "FP_WRITERS", "FU_BITS", "INT_WRITERS",
        "NUM_CLASSES", "InstructionClass", "fu_bits_table", "latency_table",
    ),
    ".trace": ("Trace",),
})
