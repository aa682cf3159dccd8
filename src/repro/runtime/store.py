"""Persistent, content-addressed result store for campaigns.

Every completed run is stored as one JSON file named by its spec's
content hash (:meth:`repro.sim.campaign.RunSpec.key`), written
atomically through :mod:`repro.sim.serialize` so a crash or SIGKILL
mid-write never leaves a partial entry behind.  Reads treat anything
unreadable -- truncated file, corrupt JSON, wrong format version --
as a miss (the :class:`~repro.sim.serialize.ResultCacheError`
convention), so a damaged entry costs one recomputation, never a
crashed campaign.

The store is the durable half of a campaign: the engine's event log
records *which* jobs completed (the plan's spec keys and the terminal
job events), the store holds *their results*, and ``repro resume``
joins the two to finish an interrupted campaign without re-running
completed work.  ``repro figure --cache-dir`` is a store too.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.results import RunResult
from repro.sim.serialize import ResultCacheError, load_run, save_run


class ResultStore:
    """A directory of completed run results, addressed by spec key.

    Guarantees:

    * **Atomicity** -- entries are written via temp file +
      ``os.replace``; concurrent writers (parallel campaign workers)
      and readers never observe a partial file.
    * **Corrupt-entry-as-miss** -- :meth:`load` returns ``None`` for
      missing, truncated or otherwise unreadable entries instead of
      raising, so campaigns self-heal by recomputing.
    * **Idempotence** -- results are a pure function of their spec, so
      re-writing an existing key is harmless (last atomic write wins
      with identical bytes).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """On-disk path for a spec key (the file may not exist)."""
        return self.directory / f"{key}.json"

    def load(self, key: str) -> RunResult | None:
        """The stored result for ``key``, or ``None`` on any miss.

        A corrupt or partial entry reads as a miss (the
        :class:`ResultCacheError` convention); callers recompute and
        the next :meth:`save` atomically repairs the entry.
        """
        path = self.path(key)
        if not path.exists():
            return None
        try:
            return load_run(path)
        except ResultCacheError:
            return None

    def save(self, key: str, result: RunResult) -> Path:
        """Atomically persist ``result`` under ``key``."""
        return save_run(result, self.path(key))

    def keys(self) -> list[str]:
        """Keys of every entry present on disk, sorted."""
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def digest(self) -> str:
        """Content hash over every entry's name and exact bytes.

        Two stores digest equal iff they hold the same keys with
        byte-identical files -- the check behind the worker-count
        invariance guarantee (``--jobs 1/2/4`` must leave identical
        stores) and the CI kill-and-resume byte-for-byte diff.
        """
        import hashlib

        acc = hashlib.sha256()
        for key in self.keys():
            acc.update(key.encode("utf-8"))
            acc.update(b"\x00")
            acc.update(self.path(key).read_bytes())
            acc.update(b"\x00")
        return acc.hexdigest()
