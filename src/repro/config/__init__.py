"""Machine configuration: structures, core types, and HCMP topologies."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".cores": (
        "CoreConfig", "FunctionalUnitPool", "big_core_config",
        "small_core_config",
    ),
    ".machines": (
        "BIG", "SMALL", "STANDARD_MACHINES", "CacheLevelConfig",
        "MachineConfig", "MemoryConfig", "machine_1b1s", "machine_1b3s",
        "machine_2b2s", "machine_3b1s", "machine_4b4s",
    ),
    ".structures": ("RegisterFileConfig", "StructureConfig", "StructureKind"),
})
