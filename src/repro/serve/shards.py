"""The result store — the bounded on-disk report cache.

:class:`ShardedResultStore` is the one store of cached
:class:`~repro.harness.runner.KernelReport`\\ s, keyed by
:func:`~repro.harness.store.job_digest`.  Every job lookup and save goes
through :class:`~repro.serve.service.BenchService`, so suite runs,
sweeps and ``repro serve`` share it.  Reports live in digest-prefix
shards with an on-disk LRU index and a configurable byte/entry budget::

    benchmarks/results/cache/
        index.json            # {"clock", "entries": {digest: {...}}}
        index.lock            # flock target for cross-process updates
        3f/
            3fa1b2c3d4e5f607.json
        a9/
            a9....json

* **Sharding** — ``<digest[:2]>/<digest>.json`` caps per-directory fanout
  at 256 shards regardless of sweep size.
* **LRU index** — every hit bumps a logical clock in ``index.json``;
  eviction removes the least-recently-used entries first.  The index is
  advisory: if it is missing or corrupt it is rebuilt by scanning the
  shards, and entry files remain plain per-report JSON.
* **Budget + background eviction** — ``max_bytes`` / ``max_entries``
  (or ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``) form a
  high-water mark; a save that crosses it schedules eviction on a daemon
  thread (``background_eviction=False`` makes it synchronous for
  deterministic tests).  ``serve.cache.evictions`` counts removals and
  ``serve.cache.bytes`` tracks the footprint.
* **Failures and stale entries** — failed reports (``report.error``
  set) are never cached, so a crash or timeout re-executes next time;
  unreadable or other-schema entries read as misses, and ``gc`` removes
  them along with leftover top-level ``<digest>.json`` files from the
  old flat layout, which are never served.

Cross-process safety mirrors the dataset ``ArtifactStore``: index
read-modify-writes happen under an advisory ``flock`` (plus an
in-process mutex), and both index and entries are written atomically
(temp file + rename).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.data.store import atomic_write_bytes, file_lock
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.harness.store import default_cache_dir, job_digest, job_key
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.executor import Job

#: ``<digest>.json`` filenames: shard entries (and flat-layout leftovers).
_DIGEST_NAME = re.compile(r"^[0-9a-f]{16}\.json$")

#: Index filename (lives next to the shards, never inside one).
INDEX_NAME = "index.json"


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        return None


class ShardedResultStore:
    """Digest-prefix-sharded, LRU-bounded on-disk report cache.

    *root* of ``None`` means :func:`~repro.harness.store.default_cache_dir`.
    ``max_bytes`` / ``max_entries`` of ``None`` fall back to the
    ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``
    environment knobs; both unset means unbounded (shards and the LRU
    index still apply, eviction never triggers).
    """

    def __init__(self, root: str | Path | None = None,
                 max_bytes: int | None = None,
                 max_entries: int | None = None,
                 background_eviction: bool = True) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_int("REPRO_CACHE_MAX_BYTES"))
        self.max_entries = (max_entries if max_entries is not None
                            else _env_int("REPRO_CACHE_MAX_ENTRIES"))
        self.background_eviction = background_eviction
        self._mutex = threading.Lock()
        self._bg_lock = threading.Lock()
        self._evictor: threading.Thread | None = None

    # -- paths ---------------------------------------------------------

    def shard_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def path(self, job: "Job") -> Path:
        return self.shard_path(job_digest(job))

    @property
    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    @property
    def _lock_path(self) -> Path:
        return self.root / "index.lock"

    # -- index plumbing ------------------------------------------------

    def _read_index(self) -> dict:
        try:
            payload = json.loads(self._index_path.read_text())
        except (OSError, ValueError):
            payload = None
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("entries"), dict)):
            return self._rebuild_index()
        payload.setdefault("clock", 0)
        return payload

    def _write_index(self, index: dict) -> None:
        atomic_write_bytes(self._index_path,
                           json.dumps(index, sort_keys=True).encode())

    def _rebuild_index(self) -> dict:
        """Reconstruct the LRU index by scanning the shards (used when
        ``index.json`` is missing or corrupt — the entries themselves
        are the source of truth)."""
        index: dict = {"clock": 0, "entries": {}}
        if not self.root.is_dir():
            return index
        for entry in sorted(self.root.glob("??/*.json")):
            if not _DIGEST_NAME.match(entry.name):
                continue
            meta = self._entry_meta(entry)
            if meta is None:
                continue
            index["clock"] += 1
            meta["used"] = index["clock"]
            index["entries"][entry.stem] = meta
        return index

    @staticmethod
    def _payload(path: Path) -> dict | None:
        """The parsed entry file at *path*, or ``None`` when it is
        absent, unreadable, or written by a different report schema."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema_version") != SCHEMA_VERSION):
            return None
        return payload

    @classmethod
    def _entry_meta(cls, path: Path) -> dict | None:
        """Index metadata for an entry file, or ``None`` if the file is
        not a compatible cached report."""
        payload = cls._payload(path)
        if payload is None:
            return None
        job = payload.get("job") or {}
        return {
            "bytes": path.stat().st_size,
            "kernel": job.get("kernel", "?"),
            "scenario": job.get("scenario", "?"),
            "scale": job.get("scale", "?"),
            "studies": job.get("studies", []),
        }

    @contextmanager
    def _index(self) -> Iterator[dict]:
        """Exclusive read-modify-write access to the on-disk index."""
        with self._mutex, file_lock(self._lock_path):
            index = self._read_index()
            yield index
            self._write_index(index)
            metrics.gauge("serve.cache.bytes").set(float(sum(
                meta.get("bytes", 0) for meta in index["entries"].values()
            )))

    # -- load / save ----------------------------------------------------

    def load(self, job: "Job") -> KernelReport | None:
        """The cached report for *job* (bumping its LRU position), or
        ``None`` on any miss: absent, unreadable, another schema, or a
        failure record."""
        digest = job_digest(job)
        payload = self._payload(self.shard_path(digest))
        record = payload.get("report") if payload is not None else None
        if not isinstance(record, dict) or "kernel" not in record:
            return None
        report = KernelReport.from_dict(record)
        if report.error is not None:
            return None
        self._touch(digest)
        return report

    def _touch(self, digest: str) -> None:
        with self._index() as index:
            meta = index["entries"].get(digest)
            if meta is None:  # saved by an older layout scan; re-scan
                meta = self._entry_meta(self.shard_path(digest))
                if meta is None:
                    return
                index["entries"][digest] = meta
            index["clock"] += 1
            meta["used"] = index["clock"]

    def save(self, job: "Job", report: KernelReport) -> Path | None:
        """Cache *report* under *job*'s digest (no-op for failures)."""
        if report.error is not None:
            return None
        digest = job_digest(job)
        path = self.shard_path(digest)
        key = job_key(job)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "job": key,
            "report": asdict(report),
        }
        atomic_write_bytes(path, json.dumps(payload, indent=2,
                                            sort_keys=True).encode())
        with self._index() as index:
            index["clock"] += 1
            index["entries"][digest] = {
                "bytes": path.stat().st_size,
                "kernel": key["kernel"],
                "scenario": key["scenario"],
                "scale": key["scale"],
                "studies": key["studies"],
                "used": index["clock"],
            }
        self._maybe_evict()
        return path

    # -- budget / eviction ---------------------------------------------

    def _over_budget(self, index: dict) -> bool:
        entries = index["entries"]
        if self.max_entries is not None and len(entries) > self.max_entries:
            return True
        if self.max_bytes is not None:
            total = sum(meta.get("bytes", 0) for meta in entries.values())
            if total > self.max_bytes:
                return True
        return False

    def _maybe_evict(self) -> None:
        if self.max_bytes is None and self.max_entries is None:
            return
        if not self.background_eviction:
            self.evict()
            return
        with self._bg_lock:
            if self._evictor is not None and self._evictor.is_alive():
                return  # an evictor is already draining the overage
            self._evictor = threading.Thread(
                target=self.evict, name="repro-serve-evictor", daemon=True
            )
            self._evictor.start()

    def join_eviction(self, timeout: float | None = 5.0) -> None:
        """Wait for an in-flight background eviction (tests, shutdown)."""
        with self._bg_lock:
            evictor = self._evictor
        if evictor is not None:
            evictor.join(timeout=timeout)

    def evict(self) -> tuple[int, int]:
        """Drop least-recently-used entries until within budget; returns
        ``(entries, bytes)`` removed."""
        removed = freed = 0
        with self._index() as index:
            entries = index["entries"]
            by_age = sorted(entries, key=lambda d: entries[d].get("used", 0))
            for digest in by_age:
                if not self._over_budget(index):
                    break
                meta = entries.pop(digest)
                self.shard_path(digest).unlink(missing_ok=True)
                removed += 1
                freed += meta.get("bytes", 0)
        if removed:
            metrics.counter("serve.cache.evictions").inc(removed)
        return removed, freed

    # -- maintenance (repro cache {list,gc}) ----------------------------

    def total_bytes(self) -> int:
        with self._index() as index:
            return sum(meta.get("bytes", 0)
                       for meta in index["entries"].values())

    def entries(self) -> list[dict]:
        """Index metadata for every cached report, most recent first."""
        with self._index() as index:
            found = [{"digest": digest, **meta}
                     for digest, meta in index["entries"].items()]
        found.sort(key=lambda meta: -meta.get("used", 0))
        return found

    def gc(self, everything: bool = False) -> tuple[int, int]:
        """Remove unservable entries and enforce the budget; returns
        ``(entries, bytes)`` removed.

        Unservable means unreadable, written by a different report
        schema, or a top-level ``<digest>.json`` left by the old flat
        layout.  Orphan files (on disk but unindexed) are adopted into
        the index; orphan index rows (no file) are dropped.
        ``everything=True`` clears the store.
        """
        if everything:
            freed = self.total_bytes()
            return self.clear(), freed
        removed = freed = 0
        with self._index() as index:
            entries = index["entries"]
            on_disk = {path.stem: path for path in self.root.glob("??/*.json")
                       if _DIGEST_NAME.match(path.name)}
            for digest in list(entries):
                if digest not in on_disk:
                    del entries[digest]
            for path in self.root.glob("*.json"):
                if _DIGEST_NAME.match(path.name):  # flat-layout leftover
                    freed += path.stat().st_size
                    path.unlink(missing_ok=True)
                    removed += 1
            for digest, path in on_disk.items():
                meta = self._entry_meta(path)
                if meta is None:  # stale schema / corrupt: unservable
                    freed += path.stat().st_size
                    path.unlink(missing_ok=True)
                    entries.pop(digest, None)
                    removed += 1
                elif digest not in entries:
                    index["clock"] += 1
                    meta["used"] = index["clock"]
                    entries[digest] = meta
        evicted, evicted_bytes = self.evict()
        return removed + evicted, freed + evicted_bytes

    def clear(self) -> int:
        """Delete every cached report (and the index); returns the
        number of entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        with self._mutex, file_lock(self._lock_path):
            for entry in list(self.root.iterdir()):
                if entry.is_dir():
                    removed += sum(1 for p in entry.glob("*.json")
                                   if _DIGEST_NAME.match(p.name))
                    shutil.rmtree(entry, ignore_errors=True)
                elif entry.suffix == ".json" and entry.name != INDEX_NAME:
                    removed += 1
                    entry.unlink(missing_ok=True)
            self._index_path.unlink(missing_ok=True)
        return removed
