"""ShardedResultStore: layout, LRU eviction, budgets, gc."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

from serveutil import make_job, ok_report

from repro.harness.store import default_result_store, job_digest
from repro.harness.runner import SCHEMA_VERSION
from repro.obs import metrics as obs_metrics
from repro.serve import shards
from repro.serve.shards import ShardedResultStore

#: Source tree for subprocess imports (tests run without installation).
SRC = Path(__file__).resolve().parents[2] / "src"


def populate(store: ShardedResultStore, count: int, **job_kwargs) -> list:
    """Save *count* distinct reports; returns their jobs in save order."""
    jobs = [make_job(seed=seed, **job_kwargs) for seed in range(count)]
    for job in jobs:
        store.save(job, ok_report(job))
    return jobs


def settle(store: ShardedResultStore) -> None:
    """Finish any background eviction, then enforce the budget now."""
    store.join_eviction()
    store.evict()


class TestShardedLayout:
    def test_entries_land_in_digest_prefix_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = make_job()
        path = store.save(job, ok_report(job))
        digest = job_digest(job)
        assert path == tmp_path / digest[:2] / f"{digest}.json"
        assert path.is_file()
        assert not (tmp_path / "index.json").exists()

    def test_load_roundtrip_across_instances(self, tmp_path):
        job = make_job(seed=11)
        ShardedResultStore(tmp_path).save(job, ok_report(job))
        loaded = ShardedResultStore(tmp_path).load(job)
        assert loaded is not None
        assert loaded.kernel == job.kernel
        assert loaded.error is None

    def test_miss_returns_none(self, tmp_path):
        assert ShardedResultStore(tmp_path).load(make_job()) is None

    def test_failed_reports_are_never_stored(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = make_job()
        assert store.save(job, ok_report(job, error="RuntimeError: x")) is None
        assert store.load(job) is None
        assert store.entries() == []

    def test_clear_removes_shards_and_index(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        populate(store, 3)
        assert store.clear() == 3
        assert not (tmp_path / "index.json").exists()
        assert not any(tmp_path.glob("??/*.json"))
        assert store.entries() == []


class TestLRUEviction:
    def test_least_recently_used_evicted_first(self, tmp_path):
        store = ShardedResultStore(tmp_path, max_entries=2)
        first, second = populate(store, 2)
        assert store.load(first) is not None  # touch: first is now MRU
        third = make_job(seed=2)
        store.save(third, ok_report(third))  # over budget -> evict LRU
        settle(store)
        assert store.load(second) is None
        assert store.load(first) is not None
        assert store.load(third) is not None
        assert len(store.entries()) == 2

    def test_entries_listed_most_recent_first(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        jobs = populate(store, 3)
        store.load(jobs[0])
        listed = store.entries()
        assert listed[0]["digest"] == job_digest(jobs[0])
        assert {meta["digest"] for meta in listed} == {
            job_digest(job) for job in jobs
        }

    def test_byte_budget_enforced(self, tmp_path):
        unbounded = ShardedResultStore(tmp_path)
        populate(unbounded, 4)
        total = unbounded.usage()[1]
        per_entry = total // 4
        bounded = ShardedResultStore(tmp_path, max_bytes=2 * per_entry + 1)
        removed, freed = bounded.evict()
        assert removed == 2
        assert freed > 0
        assert bounded.usage() == (2, total - freed)
        assert total - freed <= 2 * per_entry + 1
        assert len(bounded.entries()) == 2

    def test_background_eviction_runs_off_thread(self, tmp_path):
        store = ShardedResultStore(tmp_path, max_entries=1)
        populate(store, 3)
        store.join_eviction()
        # Possibly several background passes; the budget always wins.
        store.evict()
        assert len(store.entries()) == 1

    def test_eviction_metrics(self, tmp_path):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            store = ShardedResultStore(tmp_path, max_entries=1)
            populate(store, 3)
            settle(store)
        exported = registry.as_dict()
        assert exported["counters"]["serve.cache.evictions"] == 2
        assert exported["gauges"]["serve.cache.bytes"] > 0

    def test_env_budget_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        store = ShardedResultStore(tmp_path)
        assert store.max_entries == 7
        assert store.max_bytes is None  # unparsable -> unbounded


def tree_state(root: Path) -> dict:
    """Every file under *root* as ``{relative path: (bytes, inode,
    mtime_ns)}``: any write, rewrite or new file moves it."""
    state = {}
    for path in root.rglob("*"):
        if path.is_file():
            stat = path.stat()
            state[str(path.relative_to(root))] = (
                path.read_bytes(), stat.st_ino, stat.st_mtime_ns)
    return state


def is_entry(relative: str) -> bool:
    shard, _, name = relative.partition("/")
    return len(shard) == 2 and name.endswith(".json")


class TestMtimeRecency:
    def test_hits_neither_lock_nor_write_the_index(self, tmp_path,
                                                   monkeypatch):
        store = ShardedResultStore(tmp_path)
        jobs = populate(store, 3)
        (tmp_path / "index.json").write_text("{}")  # a leftover, ignored
        before = tree_state(tmp_path)
        locked = []
        real_lock = shards.file_lock

        def recording_lock(path):
            locked.append(path)
            return real_lock(path)

        monkeypatch.setattr(shards, "file_lock", recording_lock)
        for hit in range(100):
            assert store.load(jobs[hit % 3]) is not None
        assert locked == []
        after = tree_state(tmp_path)
        assert after.keys() == before.keys()
        for relative, (data, inode, mtime) in before.items():
            assert after[relative][:2] == (data, inode)
            # Only the entries' mtimes move: a hit stamps its entry.
            assert (after[relative][2] != mtime) == is_entry(relative)

    def test_listing_and_sizing_write_nothing(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        populate(store, 3)
        before = tree_state(tmp_path)
        assert len(store.entries()) == 3
        assert store.usage()[0] == 3
        assert store.usage()[1] > 0
        assert tree_state(tmp_path) == before

    def test_a_hit_in_another_process_protects_the_entry(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        first, second = populate(store, 2, kernel="gbwt")
        script = f"""
            from repro.harness.executor import Job
            from repro.serve.shards import ShardedResultStore
            job = Job(kernel="gbwt", studies=("timing",), scale=0.05, seed=0)
            assert ShardedResultStore({str(tmp_path)!r}).load(job) is not None
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        store.max_entries = 1
        assert store.evict()[0] == 1
        assert store.load(second) is None
        assert store.load(first) is not None

    def test_entry_removed_between_read_and_stamp(self, tmp_path,
                                                  monkeypatch):
        store = ShardedResultStore(tmp_path)
        job = make_job()
        store.save(job, ok_report(job))
        real_stamp = shards._stamp

        def evicted_first(path):
            path.unlink()
            real_stamp(path)

        monkeypatch.setattr(shards, "_stamp", evicted_first)
        assert store.load(job) == ok_report(job)
        assert store.load(job) is None

    def test_logical_clock_index_still_loads(self, tmp_path):
        """A leftover ``index.json`` from an older store (``clock``/
        ``used`` keys, a phantom row) is ignored: listing, ordering and
        eviction follow the entry mtimes, and the file is never touched."""
        store = ShardedResultStore(tmp_path)
        jobs = populate(store, 3)
        digests = [job_digest(job) for job in jobs]
        leftover = json.dumps({"clock": 3, "entries": {
            digest: {"bytes": 1, "kernel": "fake-ok", "used": used}
            for used, digest in enumerate(digests + ["0" * 16], start=1)}})
        (tmp_path / "index.json").write_text(leftover)  # jobs[2] newest
        for age, digest in enumerate((digests[1], digests[2], digests[0])):
            stamp = 1_000_000_000_000 + age
            os.utime(store.shard_path(digest), ns=(stamp, stamp))

        listed = store.entries()
        assert [meta["digest"] for meta in listed] == [
            digests[0], digests[2], digests[1]]
        assert all("used" not in meta for meta in listed)
        assert all(meta["bytes"] > 1 for meta in listed)
        store.max_entries = 2
        assert store.evict()[0] == 1
        assert store.load(jobs[1]) is None
        assert all(store.load(job) is not None for job in (jobs[0], jobs[2]))
        assert (tmp_path / "index.json").read_text() == leftover

    def test_back_to_back_saves_then_a_hit_evict_in_lru_order(self,
                                                              tmp_path):
        store = ShardedResultStore(tmp_path)
        first, second, third = populate(store, 3)
        assert store.load(first) is not None  # LRU order: 2nd, 3rd, 1st
        store.max_entries = 2
        assert store.evict()[0] == 1
        assert store.load(second) is None
        store.max_entries = 1
        assert store.evict()[0] == 1
        assert store.load(third) is None
        assert store.load(first) is not None


class TestIndexResilience:
    def test_corrupt_index_is_rebuilt_from_shards(self, tmp_path):
        """A corrupt leftover ``index.json`` changes nothing: the shards
        are the store."""
        store = ShardedResultStore(tmp_path)
        jobs = populate(store, 3)
        (tmp_path / "index.json").write_text("}}garbage{{")
        fresh = ShardedResultStore(tmp_path)
        assert len(fresh.entries()) == 3
        for job in jobs:
            assert fresh.load(job) is not None


class TestCrashSafety:
    def test_a_save_killed_after_its_rename_is_counted_and_evicted(
            self, tmp_path):
        store = ShardedResultStore(tmp_path / "cache", max_entries=1)
        kept, killed = make_job(seed=0), make_job(seed=1)
        store.save(kept, ok_report(kept))
        settle(store)
        # The killed save got as far as its entry's rename and stamp.
        written = ShardedResultStore(tmp_path / "other").save(
            killed, ok_report(killed))
        path = store.path(killed)
        shards.atomic_write_bytes(path, written.read_bytes())
        shards._stamp(path)

        assert [meta["digest"] for meta in store.entries()] == [
            job_digest(killed), job_digest(kept)]
        assert store.usage()[0] == 2
        assert store.evict()[0] == 1
        assert store.load(kept) is None
        assert store.load(killed) is not None

    def test_a_save_is_one_write_and_takes_no_lock(self, tmp_path,
                                                   monkeypatch):
        writes, locks = [], []
        real_write, real_lock = shards.atomic_write_bytes, shards.file_lock

        def recording_write(path, payload):
            writes.append(path)
            real_write(path, payload)

        def recording_lock(path):
            locks.append(path)
            return real_lock(path)

        monkeypatch.setattr(shards, "atomic_write_bytes", recording_write)
        monkeypatch.setattr(shards, "file_lock", recording_lock)
        job = make_job()
        unbounded = ShardedResultStore(tmp_path / "unbounded")
        unbounded.save(job, ok_report(job))
        assert writes == [unbounded.path(job)]
        assert locks == []

        writes.clear()
        bounded = ShardedResultStore(tmp_path / "bounded", max_entries=1)
        bounded.save(job, ok_report(job))
        bounded.join_eviction()
        assert writes == [bounded.path(job)]
        assert locks == [tmp_path / "bounded" / "evict.lock"]  # the evictor


class TestGC:
    def test_gc_drops_unservable_and_adopts_orphans(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        jobs = populate(store, 2)
        # An unservable shard file (corrupt payload)...
        bad = tmp_path / "ab" / "abadcafe0badcafe.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text("{corrupt")
        # ...an entry deleted behind the store's back...
        store.path(jobs[0]).unlink()
        # ...and a valid report copied in without a save.
        orphan_job = make_job(seed=77)
        elsewhere = ShardedResultStore(tmp_path / "elsewhere")
        written = elsewhere.save(orphan_job, ok_report(orphan_job))
        orphan_path = store.path(orphan_job)
        orphan_path.parent.mkdir(exist_ok=True)
        orphan_path.write_text(written.read_text())

        removed, _freed = store.gc()
        assert removed >= 1
        assert not bad.exists()
        digests = {meta["digest"] for meta in store.entries()}
        assert job_digest(jobs[0]) not in digests
        assert job_digest(jobs[1]) in digests
        assert job_digest(orphan_job) in digests
        assert store.load(orphan_job) is not None

    def test_gc_removes_flat_layout_leftovers(self, tmp_path):
        """Top-level ``<digest>.json`` files from the old flat layout are
        never served, and gc removes them as unservable."""
        store = ShardedResultStore(tmp_path)
        job = make_job(seed=3)
        valid = tmp_path / f"{job_digest(job)}.json"
        valid.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "job": {},
            "report": asdict(ok_report(job))}))
        corrupt = tmp_path / "deadbeefdeadbeef.json"
        corrupt.write_text("{not json")
        assert store.load(job) is None  # no stale-path hit, no crash
        removed, freed = store.gc()
        assert removed == 2 and freed > 0
        assert not any(tmp_path.glob("*.json"))
        assert store.entries() == []

    def test_gc_everything_clears_the_store(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        populate(store, 3)
        removed, freed = store.gc(everything=True)
        assert removed == 3
        assert freed > 0
        assert store.entries() == []


class TestDefaultStore:
    def test_default_result_store_is_sharded_and_env_rooted(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = default_result_store()
        assert isinstance(store, ShardedResultStore)
        assert store.root == tmp_path
        job = make_job(seed=42)
        store.save(job, ok_report(job))
        assert store.path(job).parent.name == job_digest(job)[:2]
