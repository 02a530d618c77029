"""The result store — the bounded on-disk report cache.

:class:`ShardedResultStore` is the one store of cached
:class:`~repro.harness.runner.KernelReport`\\ s, keyed by
:func:`~repro.harness.store.job_digest`.  Every job lookup and save goes
through :class:`~repro.serve.service.BenchService`, so suite runs,
sweeps and ``repro serve`` share it.  The shard files are the whole
store — there is no index::

    benchmarks/results/cache/
        evict.lock                  # flock target: one evictor at a time
        3f/
            3fa1b2c3d4e5f607.json   # {"schema_version", "job", "report"}

* **Entries** — ``<digest[:2]>/<digest>.json`` caps per-directory fanout
  at 256 shards.  An entry's size is its ``stat``, its job fields are
  its own ``job`` key, and its LRU recency is its mtime.  A save is one
  atomic write plus a stamp and takes no lock, so a writer killed at
  any point leaves no entry or a whole one that every count sees.
* **LRU by mtime** — ``save`` and every hit stamp the entry's mtime to
  the current nanosecond (``os.utime``, so coarse filesystem write times
  never decide the order), visible to every process sharing the
  directory.  Eviction removes the oldest first and ``entries()`` lists
  the newest first, ties broken by digest.
* **Stat-only scans** — eviction, :meth:`~ShardedResultStore.usage`
  (``/readyz``, the ``repro cache list`` header) and ``gc`` find entries
  by ``stat`` alone; only ``entries()`` and ``gc`` open them.
* **Budget** — ``max_bytes`` / ``max_entries`` (or
  ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``) form a
  high-water mark; a save that crosses it schedules eviction on a daemon
  thread (``join_eviction`` waits for it).  Eviction holds ``evict.lock``
  plus an in-process mutex, so concurrent evictors never over-evict.
  ``serve.cache.evictions`` counts removals and ``serve.cache.bytes``
  tracks the footprint.
* **Failures and stale entries** — failed reports (``report.error``
  set) are never cached, so a crash or timeout re-executes next time;
  unreadable or other-schema entries read as misses, and ``gc`` removes
  them along with leftover top-level ``<digest>.json`` files from the
  old flat layout, which are never served.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.data.store import atomic_write_bytes, file_lock
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.harness.store import default_cache_dir, job_digest, job_key
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.executor import Job

#: ``<digest>.json`` filenames: shard entries (and flat-layout leftovers).
_DIGEST_NAME = re.compile(r"^[0-9a-f]{16}\.json$")


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
                 max_entries: int | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_int("REPRO_CACHE_MAX_BYTES"))
        self.max_entries = (max_entries if max_entries is not None
                            else _env_int("REPRO_CACHE_MAX_ENTRIES"))
        self._mutex = threading.Lock()
        self._bg_lock = threading.Lock()
        self._evictor: threading.Thread | None = None

    # -- paths ---------------------------------------------------------

    def shard_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def path(self, job: "Job") -> Path:
        return self.shard_path(job_digest(job))

    def _scan(self) -> list[tuple[int, str, int]]:
        """Every entry as ``(mtime_ns, digest, bytes)``, least recently
        used first (ties broken by digest).  Stat-only; an entry removed
        mid-scan is skipped."""
        found = []
        for path in self.root.glob("??/*.json"):
            if not _DIGEST_NAME.match(path.name):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((stat.st_mtime_ns, path.stem, stat.st_size))
        return sorted(found)

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

    # -- load / save ----------------------------------------------------

    def load(self, job: "Job") -> KernelReport | None:
        """The cached report for *job*, or ``None`` on any miss: absent,
        unreadable, another schema, or a failure record.

        A hit stamps the entry's mtime (its LRU position) and takes no
        lock.  An entry removed between the read and the stamp still
        returns the report read."""
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
        path = self.path(job)
        payload = {"schema_version": SCHEMA_VERSION, "job": job_key(job),
                   "report": asdict(report)}
        atomic_write_bytes(path, json.dumps(payload, indent=2,
                                            sort_keys=True).encode())
        _stamp(path)
        self._maybe_evict()
        return path

    # -- budget / eviction ---------------------------------------------

    def _over_budget(self, count: int, total: int) -> bool:
        return ((self.max_entries is not None and count > self.max_entries)
                or (self.max_bytes is not None and total > self.max_bytes))

    def _maybe_evict(self) -> None:
        if self.max_bytes is None and self.max_entries is None:
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
        with self._mutex, file_lock(self.root / "evict.lock"):
            scan = self._scan()
            total = sum(size for _mtime, _digest, size in scan)
            for _mtime, digest, size in scan:
                if not self._over_budget(len(scan) - removed, total - freed):
                    break
                self.shard_path(digest).unlink(missing_ok=True)
                removed += 1
                freed += size
        metrics.gauge("serve.cache.bytes").set(float(total - freed))
        if removed:
            metrics.counter("serve.cache.evictions").inc(removed)
        return removed, freed

    # -- maintenance (repro cache {list,gc}, /readyz) -------------------

    def usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` on disk, from a stat-only scan."""
        scan = self._scan()
        return len(scan), sum(size for _mtime, _digest, size in scan)

    def entries(self) -> list[dict]:
        """Size and job fields of every servable entry, most recently
        used first.  The one listing that opens entry files."""
        listed = []
        for _mtime, digest, size in reversed(self._scan()):
            payload = self._payload(self.shard_path(digest))
            if payload is not None:
                listed.append(_meta(digest, payload.get("job") or {}, size))
        return listed

    def gc(self, everything: bool = False) -> tuple[int, int]:
        """Remove unservable entries, then enforce the budget; returns
        ``(entries, bytes)`` removed.

        Unservable means unreadable, written by a different report
        schema, or a top-level ``<digest>.json`` left by the old flat
        layout.  ``everything=True`` removes every entry.
        """
        doomed = [path for path in self.root.glob("*.json")
                  if _DIGEST_NAME.match(path.name)]
        for _mtime, digest, _size in self._scan():
            path = self.shard_path(digest)
            if everything or self._payload(path) is None:
                doomed.append(path)
        removed = freed = 0
        for path in doomed:
            with suppress(OSError):
                size = path.stat().st_size
                path.unlink()
                removed += 1
                freed += size
        evicted, evicted_bytes = self.evict()
        return removed + evicted, freed + evicted_bytes

    def clear(self) -> int:
        """Delete every cached report; returns how many."""
        return self.gc(everything=True)[0]


def _stamp(path: Path) -> None:
    """Mark the entry at *path* most recently used: its mtime is now."""
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def _meta(digest: str, job: dict, size: int) -> dict:
    """An entry's listing row: its digest, size and job fields."""
    return {"digest": digest, "bytes": size,
            "kernel": job.get("kernel", "?"),
            "scenario": job.get("scenario", "?"),
            "scale": job.get("scale", "?"), "studies": job.get("studies", [])}
