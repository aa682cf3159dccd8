"""Tests for the core-model interface types."""

import pytest

from repro.config import big_core_config
from repro.config.structures import StructureKind
from repro.cores.base import ISOLATED, MemoryEnvironment, QuantumResult


class TestMemoryEnvironment:
    def test_isolated_defaults(self):
        assert ISOLATED.l3_share_fraction == 1.0
        assert ISOLATED.dram_latency_multiplier == 1.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            MemoryEnvironment(l3_share_fraction=0.0)
        with pytest.raises(ValueError):
            MemoryEnvironment(l3_share_fraction=1.5)
        with pytest.raises(ValueError):
            MemoryEnvironment(dram_latency_multiplier=0.5)


class TestQuantumResult:
    def _result(self, instructions=100, cycles=50.0, rob=500.0):
        return QuantumResult(
            instructions=instructions,
            cycles=cycles,
            ace_bit_cycles={StructureKind.ROB: rob},
            occupancy_bit_cycles={StructureKind.ROB: rob * 1.5},
            memory_accesses=3.0,
            l3_accesses=7.0,
        )

    def test_ipc(self):
        assert self._result().ipc == pytest.approx(2.0)
        assert QuantumResult.zero().ipc == 0.0

    def test_ace_bits_per_cycle(self):
        assert self._result().ace_bits_per_cycle() == pytest.approx(10.0)

    def test_avf(self, big_core):
        result = self._result()
        expected = 10.0 / big_core.total_ace_capacity_bits
        assert result.avf(big_core) == pytest.approx(expected)

    def test_merge_accumulates(self):
        merged = self._result().merged_with(self._result(50, 25.0, 100.0))
        assert merged.instructions == 150
        assert merged.cycles == pytest.approx(75.0)
        assert merged.ace_bit_cycles[StructureKind.ROB] == pytest.approx(600.0)
        assert merged.memory_accesses == pytest.approx(6.0)
        assert merged.l3_accesses == pytest.approx(14.0)

    def test_merge_disjoint_structures(self):
        a = QuantumResult(1, 1.0, {StructureKind.ROB: 1.0})
        b = QuantumResult(1, 1.0, {StructureKind.ISSUE_QUEUE: 2.0})
        merged = a.merged_with(b)
        assert merged.ace_bit_cycles == {
            StructureKind.ROB: 1.0,
            StructureKind.ISSUE_QUEUE: 2.0,
        }

    def test_clipped_scales_every_additive_field(self):
        full = QuantumResult(
            instructions=400,
            cycles=200.0,
            ace_bit_cycles={
                StructureKind.ROB: 800.0, StructureKind.LOAD_QUEUE: 40.0,
            },
            occupancy_bit_cycles={StructureKind.ROB: 1000.0},
            memory_accesses=8.0,
            l3_accesses=20.0,
            branch_mispredictions=12.0,
        )
        part = full.clipped(100)
        assert part.instructions == 100
        assert part.cycles == 50.0
        assert list(part.ace_bit_cycles.items()) == [
            (StructureKind.ROB, 200.0), (StructureKind.LOAD_QUEUE, 10.0),
        ]
        assert part.occupancy_bit_cycles == {StructureKind.ROB: 250.0}
        assert part.memory_accesses == 2.0
        assert part.l3_accesses == 5.0
        assert part.branch_mispredictions == 3.0

    def test_zero(self):
        zero = QuantumResult.zero()
        assert zero.instructions == 0
        assert zero.total_ace_bit_cycles == 0.0
