"""Tests for run specs and store-backed campaigns: ``sweep_specs``
followed by ``ExecutionEngine.run_many(store=...)``."""

import dataclasses
import hashlib
import json

import pytest

from repro.config import machine_1b1s
from repro.config.machines import STANDARD_MACHINES, MachineConfig
from repro.runtime import ExecutionEngine, ResultStore
from repro.sim.campaign import RunSpec, machine_fields
from repro.sim.experiment import sweep, sweep_specs
from repro.workloads.mixes import WorkloadMix

NAMES = ("povray", "milc", "gobmk", "bzip2")


def _spec(**overrides):
    base = dict(
        machine="2B2S",
        benchmarks=NAMES,
        scheduler="reliability",
        instructions=2_000_000,
        seed=0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_key_stable(self):
        assert _spec().key() == _spec().key()

    def test_key_sensitive_to_every_field(self):
        base = _spec().key()
        assert _spec(scheduler="random").key() != base
        assert _spec(seed=1).key() != base
        assert _spec(instructions=3_000_000).key() != base
        assert _spec(small_frequency_ghz=1.33).key() != base
        assert _spec(sampling=(5, 1e-4)).key() != base

    def test_key_audit_covers_every_field(self):
        """No spec field may ever be silently omitted from the key.

        Two specs differing in *any* single field -- including ones
        added after this test was written -- must get distinct cache
        keys, or a sweep would silently reuse another run's result.
        """
        variants = {
            "machine": "1B1S",
            "benchmarks": ("mcf", "lbm"),
            "scheduler": "performance",
            "instructions": 123,
            "seed": 99,
            "counter_mode": "rob_only",
            "small_frequency_ghz": 1.33,
            "sampling": (10, 2e-4),
        }
        fields = {f.name for f in dataclasses.fields(RunSpec)}
        missing = fields - set(variants)
        assert not missing, (
            f"RunSpec grew field(s) {sorted(missing)}; add a distinct "
            f"variant value here so the cache-key audit covers them"
        )
        base = _spec().key()
        for name, value in variants.items():
            changed = _spec(**{name: value})
            assert changed.key() != base, (
                f"changing {name!r} did not change the cache key"
            )

    def test_keys_pairwise_distinct_across_single_field_changes(self):
        specs = [
            _spec(),
            _spec(scheduler="random"),
            _spec(seed=1),
            _spec(counter_mode="rob_only"),
            _spec(sampling=(5, 1e-4)),
            _spec(small_frequency_ghz=1.33),
        ]
        keys = [s.key() for s in specs]
        assert len(set(keys)) == len(keys)

    def test_key_format_backward_compatible(self):
        """The key still hashes the original hand-written payload, so
        cache directories written before the structural derivation
        remain valid."""
        spec = _spec()
        payload = json.dumps(
            {
                "machine": spec.machine,
                "benchmarks": list(spec.benchmarks),
                "scheduler": spec.scheduler,
                "instructions": spec.instructions,
                "seed": spec.seed,
                "counter_mode": spec.counter_mode,
                "small_frequency_ghz": spec.small_frequency_ghz,
                "sampling": list(spec.sampling) if spec.sampling else None,
            },
            sort_keys=True,
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()[:24]
        assert spec.key() == expected

    def test_build_machine_applies_overrides(self):
        machine = _spec(
            small_frequency_ghz=1.33, sampling=(20, 5e-5)
        ).build_machine()
        assert machine.small.frequency_ghz == pytest.approx(1.33)
        assert machine.sampling_period_quanta == 20


class TestMachineFields:
    def test_standard_machines_keep_their_keys(self):
        mixes = [WorkloadMix("MHLM", NAMES)]
        for name, factory in STANDARD_MACHINES.items():
            assert machine_fields(factory()) == {
                "machine": name, "small_frequency_ghz": None,
                "sampling": None,
            }
        specs, _ = sweep_specs(
            STANDARD_MACHINES["2B2S"](), mixes, ("reliability",),
            instructions=2_000_000,
        )
        assert specs == [_spec()]

    def test_overrides_round_trip_through_build_machine(self):
        base = STANDARD_MACHINES["2B2S"]()
        for machine in (
            base.with_small_frequency(1.33),
            base.with_sampling(20, 5e-5),
            base.with_small_frequency(1.33).with_sampling(20, 5e-5),
        ):
            fields = machine_fields(machine)
            spec = _spec(**fields)
            assert spec.build_machine() == machine
            assert spec.key() != _spec().key()

    def test_sweep_specs_record_the_overrides(self):
        machine = STANDARD_MACHINES["2B2S"]().with_small_frequency(1.33)
        specs, _ = sweep_specs(
            machine, [WorkloadMix("MHLM", NAMES)], ("reliability",),
            instructions=2_000_000,
        )
        assert specs == [_spec(small_frequency_ghz=1.33)]

    def test_undescribable_machines_read_none(self):
        custom = MachineConfig(big_cores=2, small_cores=3)
        assert machine_fields(custom) is None
        changed = dataclasses.replace(machine_1b1s(), quantum_seconds=2e-3)
        assert machine_fields(changed) is None
        # sweep_specs records such a machine under its name and a
        # digest of its whole configuration.
        specs, _ = sweep_specs(
            custom, [WorkloadMix("MHLMH", NAMES + ("mcf",))], ("random",),
            instructions=1_000,
        )
        assert specs[0].machine.startswith("2B3S~")
        assert specs[0].small_frequency_ghz is None
        again, _ = sweep_specs(
            MachineConfig(big_cores=2, small_cores=3),
            [WorkloadMix("MHLMH", NAMES + ("mcf",))], ("random",),
            instructions=1_000,
        )
        assert again == specs
        other, _ = sweep_specs(
            custom.with_small_frequency(1.33),
            [WorkloadMix("MHLMH", NAMES + ("mcf",))], ("random",),
            instructions=1_000,
        )
        assert other[0].machine.startswith("2B3S~")
        assert other[0].key() != specs[0].key()

    def test_undescribable_machine_misses_a_standard_store(self, tmp_path):
        # A 1B1S with a longer quantum is not the standard 1B1S: its
        # sweep must simulate, not read the standard runs' results.
        mixes = [WorkloadMix("MH", ("povray", "milc"))]
        sweep(
            machine_1b1s(), mixes, ("reliability",),
            instructions=5_000_000, store=tmp_path,
        )
        changed = dataclasses.replace(machine_1b1s(), quantum_seconds=2e-3)
        stored = sweep(
            changed, mixes, ("reliability",),
            instructions=5_000_000, store=tmp_path,
        )["reliability"][0]
        fresh = sweep(
            changed, mixes, ("reliability",), instructions=5_000_000
        )["reliability"][0]
        assert stored.quanta == fresh.quanta
        assert stored.sser == fresh.sser
        assert len(ResultStore(tmp_path).keys()) == 2


class TestCampaign:
    """A campaign is ``run_many`` over a :class:`ResultStore`."""

    def test_cache_hit_on_second_run(self, tmp_path):
        spec = _spec()
        first = ExecutionEngine().run_many([spec], store=tmp_path)
        assert (first.executed, first.cache_hits) == (1, 0)
        second = ExecutionEngine().run_many([spec], store=tmp_path)
        assert (second.executed, second.cache_hits) == (0, 1)
        assert second.results[0].sser == pytest.approx(first.results[0].sser)
        assert ResultStore(tmp_path).keys() == [spec.key()]

    def test_cache_persists_across_instances(self, tmp_path):
        ExecutionEngine().run_many([_spec()], store=ResultStore(tmp_path))
        again = ExecutionEngine().run_many(
            [_spec()], store=ResultStore(tmp_path)
        )
        assert again.cache_hits == 1 and again.executed == 0

    def test_corrupt_entry_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        first = ExecutionEngine().run_many([_spec()], store=store)
        store.path(_spec().key()).write_text("{ not json")
        second = ExecutionEngine().run_many([_spec()], store=store)
        assert second.executed == 1 and second.cache_hits == 0
        assert second.results[0].sser == first.results[0].sser
        assert store.load(_spec().key()) is not None  # repaired

    def test_custom_tag_with_machine_override(self, tmp_path):
        spec = RunSpec("custom-tag", ("povray", "milc"), "random", 500_000)
        first = ExecutionEngine().run_many(
            [spec], machines=machine_1b1s(), store=tmp_path
        )
        assert first.results[0].machine_name == "1B1S"
        # Stored under the custom tag; the override is only needed on
        # a miss.
        second = ExecutionEngine().run_many([spec], store=tmp_path)
        assert second.cache_hits == 1
        assert second.results[0].sser == first.results[0].sser

    def test_sweep_shapes(self, tmp_path):
        workloads = [WorkloadMix("MHLM", NAMES)]
        results = sweep(
            STANDARD_MACHINES["2B2S"](), workloads,
            ("random", "reliability"), instructions=2_000_000,
            store=tmp_path,
        )
        assert set(results) == {"random", "reliability"}
        assert len(results["random"]) == 1
        assert len(ResultStore(tmp_path).keys()) == 2
