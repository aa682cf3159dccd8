"""Property tests for the shard algebra (`repro.runtime.shard`).

Two families of properties back the sharding guarantees:

* **Merge canonicality** -- :func:`merge_event_streams` is a pure
  function of the per-shard streams: permuting the completion order
  (stream list order, for equal timestamps) or splitting a stream
  differently never changes the canonical result beyond its
  deterministic tie-break, and the merge of singleton streams is a
  stable timestamp sort.
* **Shard-count invariance** -- executing one campaign at shard
  counts 1, 2 and 4 produces dict-exact identical results, the
  executable end of the algebra (simulation-backed, so one sampled
  campaign rather than a hypothesis sweep).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.runtime import ExecutionEngine, merge_event_streams
from repro.runtime.events import JobFinished
from repro.sim.campaign import RunSpec
from repro.sim.serialize import run_result_to_dict


def synthetic_streams():
    """Lists of per-shard event streams with arbitrary timestamps."""
    timestamps = st.lists(
        st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=8
    )
    return st.lists(timestamps, min_size=1, max_size=5).map(
        lambda per_shard: [
            [
                JobFinished(
                    index=shard * 100 + i,
                    label=f"s{shard}/{i}",
                    wall_seconds=0.0,
                    timestamp=t,
                )
                for i, t in enumerate(times)
            ]
            for shard, times in enumerate(per_shard)
        ]
    )


class TestMergeProperties:
    @settings(max_examples=100, deadline=None)
    @given(streams=synthetic_streams())
    def test_merge_is_deterministic(self, streams):
        assert merge_event_streams(streams) == merge_event_streams(streams)

    @settings(max_examples=100, deadline=None)
    @given(streams=synthetic_streams())
    def test_merge_preserves_every_event(self, streams):
        merged = merge_event_streams(streams)
        assert sorted(e.index for e in merged) == sorted(
            e.index for stream in streams for e in stream
        )

    @settings(max_examples=100, deadline=None)
    @given(streams=synthetic_streams())
    def test_timestamps_are_sorted_and_ties_break_by_shard(self, streams):
        merged = merge_event_streams(streams)
        assert [e.timestamp for e in merged] == sorted(
            e.timestamp for e in merged
        )
        for a, b in zip(merged, merged[1:]):
            if a.timestamp == b.timestamp:
                # index encodes (shard * 100 + position); equal stamps
                # must keep shard order, then within-stream order.
                assert a.index < b.index

    @settings(max_examples=100, deadline=None)
    @given(streams=synthetic_streams())
    def test_within_stream_order_survives(self, streams):
        merged = merge_event_streams(streams)
        for shard, stream in enumerate(streams):
            survived = [e for e in merged if e.index // 100 == shard]
            assert survived == sorted(
                stream, key=lambda e: (e.timestamp, e.index)
            )


class TestShardCountInvariance:
    """The executable end of the algebra: one sampled campaign, run at
    shard counts 1/2/4, must produce dict-exact identical results and
    permutation-proof merged outcomes."""

    def specs(self, count=6):
        pairs = [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm")]
        return [
            RunSpec(
                "1B1S",
                pairs[i % len(pairs)],
                "random",
                100_000 + 10_000 * i,
                seed=i,
            )
            for i in range(count)
        ]

    def test_one_equals_two_equals_four(self, tmp_path):
        specs = self.specs()
        serial = {
            spec.key(): json.dumps(
                run_result_to_dict(result), sort_keys=True
            )
            for spec, result in zip(
                specs,
                ExecutionEngine()
                .run_many(specs, store=tmp_path / "serial")
                .results,
            )
        }
        for shards in (1, 2, 4):
            report = ExecutionEngine(shards).run_many(
                specs, store=tmp_path / f"s{shards}"
            )
            merged = {
                spec.key(): json.dumps(
                    run_result_to_dict(result), sort_keys=True
                )
                for spec, result in zip(specs, report.results)
            }
            assert merged == serial

    def test_completion_order_permutation_is_invisible(self, tmp_path):
        """Driving the same fleet again over its store (every spec a
        cache hit, in a different order than the compute pass
        finished) leaves the report identical."""
        specs = self.specs()
        forward = ExecutionEngine(3).run_many(specs, store=tmp_path / "fwd")
        again = ExecutionEngine(3).run_many(specs, store=tmp_path / "fwd")
        assert [o.cached for o in again.outcomes] == [True] * len(specs)
        assert [
            json.dumps(run_result_to_dict(r), sort_keys=True)
            for r in again.results
        ] == [
            json.dumps(run_result_to_dict(r), sort_keys=True)
            for r in forward.results
        ]
