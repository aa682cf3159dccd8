"""Tests for run-result JSON serialization."""

import json

import pytest

from repro.config import machine_2b2s
from repro.sim.experiment import run_workload
from repro.sim.serialize import (
    load_run,
    run_result_from_dict,
    run_result_to_dict,
    save_run,
)

NAMES = ("povray", "milc", "gobmk", "bzip2")


@pytest.fixture(scope="module")
def result():
    return run_workload(machine_2b2s(), NAMES, "reliability",
                        instructions=2_000_000, record_timeline=True)


class TestRoundTrip:
    def test_dict_round_trip_preserves_metrics(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.sser == pytest.approx(result.sser)
        assert restored.stp == pytest.approx(result.stp)
        assert restored.machine_name == result.machine_name
        assert len(restored.apps) == len(result.apps)
        assert len(restored.timeline) == len(result.timeline)

    def test_file_round_trip(self, result, tmp_path):
        path = save_run(result, tmp_path / "run.json")
        restored = load_run(path)
        assert restored.sser == pytest.approx(result.sser)
        assert restored.app("milc").migrations == result.app("milc").migrations

    def test_json_is_plain(self, result, tmp_path):
        path = save_run(result, tmp_path / "run.json")
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert isinstance(data["apps"], list)


class TestAtomicityAndCacheErrors:
    def test_save_leaves_no_temp_files(self, result, tmp_path):
        save_run(result, tmp_path / "run.json")
        save_run(result, tmp_path / "run.json")  # an overwrite, too
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_save_creates_parent_directories(self, result, tmp_path):
        path = save_run(result, tmp_path / "deep" / "nested" / "run.json")
        assert path.exists()

    def test_load_run_corrupt_json(self, tmp_path):
        from repro.sim.serialize import ResultCacheError
        path = tmp_path / "bad.json"
        path.write_text("{ definitely not json")
        with pytest.raises(ResultCacheError, match="unreadable"):
            load_run(path)

    def test_load_run_truncated(self, result, tmp_path):
        from repro.sim.serialize import ResultCacheError
        path = save_run(result, tmp_path / "run.json")
        path.write_text(path.read_text()[:30])
        with pytest.raises(ResultCacheError):
            load_run(path)

    def test_load_run_missing_file(self, tmp_path):
        from repro.sim.serialize import ResultCacheError
        with pytest.raises(ResultCacheError, match="unreadable"):
            load_run(tmp_path / "absent.json")

    def test_cache_error_is_value_error(self):
        from repro.sim.serialize import ResultCacheError
        assert issubclass(ResultCacheError, ValueError)


class TestValidation:
    def test_unknown_version_rejected(self, result):
        data = run_result_to_dict(result)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            run_result_from_dict(data)

    def test_malformed_rejected(self, result):
        data = run_result_to_dict(result)
        del data["apps"]
        with pytest.raises(ValueError, match="malformed"):
            run_result_from_dict(data)

    def test_unknown_field_rejected(self, result):
        data = run_result_to_dict(result)
        data["apps"][0]["bogus_field"] = 1
        with pytest.raises(ValueError, match="malformed"):
            run_result_from_dict(data)
