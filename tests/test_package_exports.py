"""Package namespaces: every name a package exports resolves, on first
use, to the object its defining module holds."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package's exported names, by the submodule that defines them
#: (``""``: the names are submodules themselves).  These are the names
#: the packages exported when their inits imported every submodule; a
#: name may be added here, never dropped.
PINNED = {
    "repro.ace": {
        "counters": "AceCounterMode SaturatingCounter measured_abc",
        "faultinject": "FaultInjectionResult FaultInjector",
        "predictor": (
            "AbcPredictor PredictedReliabilityScheduler train_predictor"
        ),
        "hardware_cost": (
            "ACCUMULATOR_BITS SRAM_BITS_PER_ADDER TIMESTAMP_BITS_BIG "
            "TIMESTAMP_BITS_SMALL CounterCost baseline_big_core_cost "
            "in_order_core_cost rob_only_big_core_cost"
        ),
        "stacks": "abc_stack rob_core_correlation rob_fraction",
        "uncore": (
            "L2_LIVE_FRACTION L3_LIVE_FRACTION UncoreAbc "
            "format_sser_breakdown l2_abc_rate l3_abc_rate_estimate "
            "run_sser_breakdown uncore_abc"
        ),
    },
    "repro.analysis": {
        "hardening": (
            "HardeningOption HardeningPlan greedy_plan hardening_options "
            "suite_ace_profile"
        ),
        "sensitivity": "SensitivityPoint sweep_assumptions",
    },
    "repro.check": {
        "invariants": (
            "CheckReport Invariant Severity Violation check_decision_trace "
            "check_mode_none check_mode_outcome check_mode_schedule "
            "check_oracle check_resume check_run check_schedule "
            "check_segment_paths check_service check_stack default_run_checks "
            "merge_reports registered_invariants"
        ),
        "differential": "FuzzReport fuzz",
        "golden": (
            "DEFAULT_GOLDEN_DIR GOLDEN_PIPELINES compare_goldens "
            "regenerate_goldens"
        ),
    },
    "repro.config": {
        "cores": (
            "CoreConfig FunctionalUnitPool big_core_config small_core_config"
        ),
        "machines": (
            "BIG SMALL STANDARD_MACHINES CacheLevelConfig MachineConfig "
            "MemoryConfig machine_1b1s machine_1b3s machine_2b2s machine_3b1s "
            "machine_4b4s"
        ),
        "structures": "RegisterFileConfig StructureConfig StructureKind",
    },
    "repro.cores": {
        "base": (
            "ACE_STRUCTURES ISOLATED CoreModel MemoryEnvironment "
            "QuantumResult"
        ),
        "mechanistic": (
            "MechanisticCoreModel PhaseAnalysis analyze_big_phase "
            "analyze_phase analyze_small_phase"
        ),
    },
    "repro.isa": {
        "instruction": (
            "EXECUTION_LATENCY FP_WRITERS FU_BITS INT_WRITERS NUM_CLASSES "
            "InstructionClass fu_bits_table latency_table"
        ),
        "trace": "Trace",
    },
    "repro.kernels": {
        "trace_cache": "cache_stats cached_generate_trace clear_cache",
        "window": "inorder_run_cycles ooo_simulate_window",
    },
    "repro.memory": {
        "cache": "CacheStats SetAssociativeCache",
        "hierarchy": "AccessOutcome CacheHierarchy",
        "interference": (
            "ApplicationDemand InterferenceModel bandwidth_multiplier "
            "llc_shares"
        ),
    },
    "repro.metrics": {
        "performance": (
            "ApplicationPerformance average_normalized_turnaround ipc "
            "normalize_cpi_stack system_throughput"
        ),
        "reliability": (
            "DEFAULT_IFR ApplicationReliability SserBreakdown avf mttf "
            "soft_error_rate sser sser_breakdown system_ser weighted_ser"
        ),
    },
    "repro.obs": {
        "": "context flight metrics openmetrics tracing",
        "context": "TraceContext",
        "flight": "FlightRecorder",
        "decisions": (
            "DECISION_TRACE_SCHEMA DecisionTraceRecorder QuantumRecord "
            "ReplayError SwapCandidate decompose_swaps format_trace "
            "read_trace replay_trace write_trace"
        ),
        "metrics": (
            "Counter Gauge Histogram MetricsRegistry RegistrySnapshot Timer"
        ),
        "tracing": "SpanNode SpanTracer span",
    },
    "repro.power": {
        "model": "PowerBreakdown PowerModel",
    },
    "repro.report": {
        "gantt": "migration_summary schedule_chart schedule_strips",
        "charts": "bar_chart grouped_bar_chart histogram series_plot",
        "summary": "comparison_summary run_summary sweep_summary",
        "tables": "format_percent format_table",
    },
    "repro.runtime": {
        "engine": (
            "ExecutionEngine ExecutionReport FaultPlan InjectedFault Job "
            "JobOutcome default_jobs"
        ),
        "events": (
            "CallbackSink CampaignFinished CampaignPlan CampaignStarted "
            "CheckFailed Event EventSink JobCached JobFailed JobFinished "
            "JobStarted JobTiming JsonlEventSink MetricsSnapshot "
            "StderrProgressSink UnknownEvent event_from_dict "
            "merge_event_streams read_events read_events_merged "
            "replay_timings"
        ),
        "resume": "ResumeError ResumeState",
        "retry": "CampaignError FailurePolicy RetryPolicy",
        "shard": "FleetStatus FleetStatusServer ShardCoordinator",
        "store": "ResultStore",
    },
    "repro.sched": {
        "base": "PARKED Assignment Observation Scheduler SegmentPlan",
        "constrained": "ConstrainedReliabilityScheduler",
        "oversubscribed": "OversubscribedReliabilityScheduler",
        "oracle": (
            "SchedulePrediction StaticScheduler best_sser_schedule "
            "best_stp_schedule enumerate_schedules predict"
        ),
        "performance": "PerformanceScheduler",
        "random_sched": "RandomScheduler",
        "reliability": "ReliabilityScheduler",
        "sampling": "CoreTypeSample SamplingScheduler",
        "variants": "ExhaustiveReliabilityScheduler RawSerScheduler",
        "modes": (
            "MODES ModeAwareReliabilityScheduler ModeOutcome ModeSchedule "
            "ProtectionMode apply_modes parse_mode"
        ),
    },
    "repro.service": {
        "admission": (
            "ADMISSION_POLICIES AdmissionPolicy FifoAdmission "
            "SserPriorityAdmission make_admission"
        ),
        "arrivals": (
            "ARRIVAL_PROCESSES ArrivalProcess BurstyArrivals DiurnalArrivals "
            "JobArrival PoissonArrivals make_process service_benchmark_pool"
        ),
        "events": "ServiceFeed feed_digest",
        "load": "LoadPoint run_load_point",
        "placement": "SlotPlacer",
        "queue": "AdmissionQueue QueuedJob",
        "server": (
            "OpenSystem SchedulerService ServiceConfig ServiceJob "
            "ServiceResult"
        ),
    },
    "repro.sim": {
        "experiment": (
            "SCHEDULER_NAMES average_ratio geomean_ratio make_scheduler "
            "run_workload sweep"
        ),
        "isolated": (
            "IsolatedRun IsolatedStats ReferenceTimes isolated_stats "
            "run_isolated"
        ),
        "multicore": "MulticoreSimulation default_models",
        "results": "AppRunRecord RunResult TimelinePoint",
    },
    "repro.validation": {
        "crossmodel": (
            "DEFAULT_BENCHMARKS BenchmarkAgreement ModelAgreement "
            "compare_models"
        ),
    },
    "repro.workloads": {
        "characteristics": (
            "BenchmarkProfile InstructionMix PhaseCharacteristics "
            "uniform_profile"
        ),
        "spec2006": (
            "BENCHMARK_NAMES SIMPOINT_INSTRUCTIONS SUITE benchmark "
            "benchmarks_by_class big_core_avf classify_benchmarks"
        ),
    },
}


def pinned(package: str):
    """``(name, defining module)`` of every pinned name of ``package``."""
    for module, names in PINNED[package].items():
        for name in names.split():
            yield name, f"{package}.{module or name}"


def test_every_package_is_pinned():
    packages = {
        f"repro.{init.parent.name}"
        for init in (SRC / "repro").glob("*/__init__.py")
    }
    assert packages - {"repro.cli"} == set(PINNED)


@pytest.mark.parametrize("package", sorted(PINNED))
class TestPinnedNames:
    def test_resolves_to_the_defining_object(self, package):
        namespace = importlib.import_module(package)
        for name, module in pinned(package):
            defining = importlib.import_module(module)
            expected = (
                defining
                if module == f"{package}.{name}"
                else getattr(defining, name)
            )
            assert getattr(namespace, name) is expected, name

    def test_all_and_dir_list_it(self, package):
        namespace = importlib.import_module(package)
        for name, _ in pinned(package):
            assert name in namespace.__all__, name
            assert name in dir(namespace), name

    def test_star_import_binds_it(self, package):
        scope: dict = {}
        exec(f"from {package} import *", scope)
        for name, _ in pinned(package):
            assert name in scope, name

    def test_unknown_name_raises_attribute_error(self, package):
        namespace = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            namespace.no_such_name
        assert not hasattr(namespace, "no_such_name")
        assert not hasattr(namespace, "__no_such_dunder__")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})


def test_submodule_attribute_resolves_after_importing_only_the_package():
    """In a fresh interpreter, from an empty ``repro`` module table,
    each package's first submodule resolves as an attribute of it."""
    code = f"""
import importlib, sys
from pathlib import Path
for package in {sorted(PINNED)!r}:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    namespace = importlib.import_module(package)
    directory = Path(namespace.__file__).parent
    name = min(p.stem for p in directory.glob("*.py") if p.stem != "__init__")
    assert f"{{package}}.{{name}}" not in sys.modules, (package, name)
    module = getattr(namespace, name)
    assert module is sys.modules[f"{{package}}.{{name}}"], (package, name)
    print(package, name)
from repro.kernels import trace_cache
assert trace_cache is sys.modules["repro.kernels.trace_cache"]
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == len(PINNED)
