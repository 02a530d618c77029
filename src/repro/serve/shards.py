"""The result store — the bounded on-disk report cache.

:class:`ShardedResultStore` is the one store of cached
:class:`~repro.harness.runner.KernelReport`\\ s, keyed by
:func:`~repro.harness.store.job_digest`.  Every job lookup and save goes
through :class:`~repro.serve.service.BenchService`, so suite runs,
sweeps and ``repro serve`` share it.  Reports live in digest-prefix
shards, evicted least recently used first under a byte/entry budget::

    benchmarks/results/cache/
        index.json            # {"entries": {digest: {"bytes", "kernel", ...}}}
        index.lock            # flock target for cross-process index updates
        3f/
            3fa1b2c3d4e5f607.json   # mtime = last save or hit
        a9/
            a9....json

* **Sharding** — ``<digest[:2]>/<digest>.json`` caps per-directory fanout
  at 256 shards regardless of sweep size.
* **LRU by mtime** — ``save`` and every hit stamp the entry file's mtime
  to the current nanosecond (``os.utime``, so coarse filesystem write
  times never decide the order); eviction removes the oldest first and
  ``entries()`` lists the newest first, ties broken by digest.  A hit
  never takes ``index.lock`` or writes ``index.json``, yet every process
  sharing the directory sees its recency.
* **Advisory index** — ``index.json`` holds entry sizes and job fields
  (budgets, ``repro cache list``); a missing or corrupt one is rebuilt
  from the shards, and one with the older ``clock``/``used`` keys loads.
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

Cross-process safety mirrors the dataset ``ArtifactStore``: index reads
and read-modify-writes happen under an advisory ``flock`` (plus an
in-process mutex), and both index and entries are written atomically
(temp file + rename).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from contextlib import contextmanager, suppress
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
    environment knobs; both unset means unbounded (shards and LRU
    recency still apply, eviction never triggers).
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
        """The index's ``{digest: meta}`` entries, rebuilt from the
        shards when ``index.json`` is missing or corrupt."""
        try:
            entries = json.loads(self._index_path.read_text())["entries"]
        except (OSError, ValueError, KeyError, TypeError):
            entries = None
        if not isinstance(entries, dict):
            return self._rebuild_index()
        for meta in entries.values():
            meta.pop("used", None)  # the older logical-clock format
        return entries

    def _rebuild_index(self) -> dict:
        """Reconstruct the index by scanning the shards (the entries
        themselves are the source of truth)."""
        entries: dict = {}
        for path in self.root.glob("??/*.json"):
            if _DIGEST_NAME.match(path.name):
                meta = self._entry_meta(path)
                if meta is not None:
                    entries[path.stem] = meta
        return entries

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
        return _meta(payload.get("job") or {}, path.stat().st_size)

    @contextmanager
    def _index(self) -> Iterator[dict]:
        """Exclusive read-modify-write access to the index's entries."""
        with self._mutex, file_lock(self._lock_path):
            entries = self._read_index()
            yield entries
            atomic_write_bytes(self._index_path, json.dumps(
                {"entries": entries}, sort_keys=True).encode())
            metrics.gauge("serve.cache.bytes").set(float(_total(entries)))

    def _snapshot(self) -> dict:
        """The index's entries, read under the lock; writes nothing."""
        if not self.root.is_dir():
            return {}
        with self._mutex, file_lock(self._lock_path):
            return self._read_index()

    def _lru_order(self, entries: dict) -> list[str]:
        """*entries*' digests, least recently used (oldest entry mtime)
        first; ties broken by digest, missing files first of all."""
        def stamp(digest: str) -> int:
            try:
                return self.shard_path(digest).stat().st_mtime_ns
            except OSError:
                return -1
        return sorted(entries, key=lambda digest: (stamp(digest), digest))

    # -- load / save ----------------------------------------------------

    def load(self, job: "Job") -> KernelReport | None:
        """The cached report for *job*, or ``None`` on any miss: absent,
        unreadable, another schema, or a failure record.

        A hit stamps the entry's mtime (its LRU position) and touches
        neither ``index.lock`` nor ``index.json``.  An entry removed
        between the read and the stamp still returns the report read."""
        path = self.path(job)
        payload = self._payload(path)
        record = payload.get("report") if payload is not None else None
        if not isinstance(record, dict) or "kernel" not in record:
            return None
        report = KernelReport.from_dict(record)
        if report.error is not None:
            return None
        with suppress(OSError):
            _stamp(path)
        return report

    def save(self, job: "Job", report: KernelReport) -> Path | None:
        """Cache *report* under *job*'s digest (no-op for failures)."""
        if report.error is not None:
            return None
        path, key = self.path(job), job_key(job)
        payload = {"schema_version": SCHEMA_VERSION, "job": key,
                   "report": asdict(report)}
        atomic_write_bytes(path, json.dumps(payload, indent=2,
                                            sort_keys=True).encode())
        _stamp(path)
        with self._index() as entries:
            entries[path.stem] = _meta(key, path.stat().st_size)
        self._maybe_evict()
        return path

    # -- budget / eviction ---------------------------------------------

    def _over_budget(self, count: int, total: int) -> bool:
        return ((self.max_entries is not None and count > self.max_entries)
                or (self.max_bytes is not None and total > self.max_bytes))

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
        with self._index() as entries:
            total = _total(entries)
            for digest in self._lru_order(entries):
                if not self._over_budget(len(entries), total - freed):
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
        return _total(self._snapshot())

    def entries(self) -> list[dict]:
        """Index metadata for every cached report, most recent first."""
        entries = self._snapshot()
        return [{"digest": digest, **entries[digest]}
                for digest in reversed(self._lru_order(entries))]

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
        with self._index() as entries:
            on_disk = {path.stem: path for path in self.root.glob("??/*.json")
                       if _DIGEST_NAME.match(path.name)}
            for digest in entries.keys() - on_disk.keys():
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


def _stamp(path: Path) -> None:
    """Mark the entry at *path* most recently used: its mtime is now."""
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def _meta(job: dict, size: int) -> dict:
    """An entry's index row: its size and the job fields it lists."""
    return {"bytes": size, "kernel": job.get("kernel", "?"),
            "scenario": job.get("scenario", "?"),
            "scale": job.get("scale", "?"), "studies": job.get("studies", [])}


def _total(entries: dict) -> int:
    """The bytes the index's *entries* account for."""
    return sum(meta.get("bytes", 0) for meta in entries.values())
