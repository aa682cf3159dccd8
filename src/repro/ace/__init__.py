"""ACE-bit accounting: counter architectures, ABC stacks, hardware cost."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".counters": ("AceCounterMode", "SaturatingCounter", "measured_abc"),
    ".faultinject": ("FaultInjectionResult", "FaultInjector"),
    ".predictor": (
        "AbcPredictor", "PredictedReliabilityScheduler", "train_predictor",
    ),
    ".hardware_cost": (
        "ACCUMULATOR_BITS", "SRAM_BITS_PER_ADDER", "TIMESTAMP_BITS_BIG",
        "TIMESTAMP_BITS_SMALL", "CounterCost", "baseline_big_core_cost",
        "in_order_core_cost", "rob_only_big_core_cost",
    ),
    ".stacks": ("abc_stack", "rob_core_correlation", "rob_fraction"),
    ".uncore": (
        "L2_LIVE_FRACTION", "L3_LIVE_FRACTION", "UncoreAbc",
        "format_sser_breakdown", "l2_abc_rate", "l3_abc_rate_estimate",
        "run_sser_breakdown", "uncore_abc",
    ),
})
