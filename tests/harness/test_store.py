"""The cached result store: digests, round-trips, compatibility."""

import json
from pathlib import Path

import repro
from repro.data import scenario_spec
from repro.data.manifest import SUITE_MANIFEST, resolve_manifest
from repro.harness.executor import Job
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.harness.store import job_digest
from repro.kernels.base import KERNEL_REGISTRY
from repro.serve.shards import ShardedResultStore
from repro.uarch.cache import MACHINE_A, MACHINE_B

#: Job digests (every kernel x machine x two study sets, scale 0.25,
#: seed 1) and suite-cell spec digests (three run axes), captured before
#: the keys were built from shallow field dicts.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text())


def _job(**overrides):
    defaults = dict(kernel="gbwt", studies=("timing",), scale=0.25, seed=0,
                    cache_config=MACHINE_B)
    defaults.update(overrides)
    return Job(**defaults)


class TestDigest:
    def test_stable(self):
        assert job_digest(_job()) == job_digest(_job())

    def test_study_order_is_normalized(self):
        a = job_digest(_job(studies=("timing", "topdown")))
        b = job_digest(_job(studies=("topdown", "timing")))
        assert a == b

    def test_parameters_change_the_digest(self):
        base = job_digest(_job())
        assert job_digest(_job(kernel="tsu")) != base
        assert job_digest(_job(scale=0.5)) != base
        assert job_digest(_job(seed=1)) != base
        assert job_digest(_job(studies=("cache",))) != base
        assert job_digest(_job(cache_config=MACHINE_A)) != base
        assert job_digest(_job(scenario="divergent")) != base

    def test_default_scenario_in_key(self):
        """The scenario is always part of the cache key (reports from a
        non-default corpus never collide with default ones)."""
        from repro.harness.store import job_key

        assert job_key(_job())["scenario"] == "default"

    def test_backend_changes_the_digest(self):
        assert (job_digest(_job(backend="scalar"))
                != job_digest(_job(backend="vectorized")))

    def test_backend_resolved_before_hashing(self):
        """A job carrying '' (kernel default) and one naming the default
        explicitly share a cache entry; gpu-native kernels key as gpu
        even when the job never set a backend."""
        from repro.harness.store import job_key

        assert (job_digest(_job())
                == job_digest(_job(backend="vectorized")))
        assert job_key(_job(kernel="tsu"))["backend"] == "gpu"

    def test_unregistered_kernel_keys_on_raw_backend(self):
        """Foreign job records must stay digestible — there is no
        registry default to resolve to."""
        from repro.harness.store import job_key

        assert job_key(_job(kernel="not-registered"))["backend"] == ""
        assert (job_key(_job(kernel="not-registered", backend="simd"))
                ["backend"] == "simd")


class TestGoldenDigests:
    """A moved digest orphans every cached report.  Job digests are taken
    at the captured package version: a release bump moves them on
    purpose, a change to how the key is built must not."""

    def test_golden_covers_every_kernel_and_suite_cell(self):
        kernels = {key.split("/")[0] for key in GOLDEN["jobs"]}
        assert kernels == {name for name in KERNEL_REGISTRY
                           if not name.startswith("fake-")}
        cells = {key.split("/")[0] for key in GOLDEN["specs"]}
        assert cells == {cell.name
                         for cell in resolve_manifest(SUITE_MANIFEST).cells}

    def test_job_digests_unchanged(self, monkeypatch):
        monkeypatch.setattr(repro, "__version__", GOLDEN["package_version"])
        machines = {config.name: config for config in (MACHINE_A, MACHINE_B)}
        digests = {}
        for key in GOLDEN["jobs"]:
            kernel, machine, studies = key.split("/")
            digests[key] = job_digest(Job(
                kernel=kernel, studies=tuple(studies.split(",")),
                scale=0.25, seed=1, cache_config=machines[machine]))
        assert digests == GOLDEN["jobs"]

    def test_spec_digests_unchanged(self):
        digests = {}
        for key in GOLDEN["specs"]:
            cell, scale, seed = key.split("/")
            digests[key] = scenario_spec(cell, float(scale), int(seed)).digest()
        assert digests == GOLDEN["specs"]


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = _job()
        report = KernelReport(kernel="gbwt", wall_seconds=1.5,
                              inputs_processed=10, work={"w": 2.0},
                              scale=0.25, machine="machine_b")
        path = store.save(job, report)
        assert path is not None and path.is_file()
        assert store.load(job) == report

    def test_miss_when_absent(self, tmp_path):
        assert ShardedResultStore(tmp_path).load(_job()) is None

    def test_miss_on_corrupt_file(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt"))
        store.path(job).write_text("not json {")
        assert store.load(job) is None

    def test_miss_on_other_schema_version(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt"))
        payload = json.loads(store.path(job).read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        store.path(job).write_text(json.dumps(payload))
        assert store.load(job) is None

    def test_unknown_report_fields_ignored(self, tmp_path):
        """Forward compatibility: a report written by newer code with
        extra fields still loads."""
        store = ShardedResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt", inputs_processed=5))
        payload = json.loads(store.path(job).read_text())
        payload["report"]["a_future_metric"] = 42
        store.path(job).write_text(json.dumps(payload))
        loaded = store.load(job)
        assert loaded is not None
        assert loaded.inputs_processed == 5

    def test_error_reports_never_stored(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = _job()
        assert store.save(job, KernelReport(kernel="gbwt", error="boom")) is None
        assert store.load(job) is None

    def test_clear(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        store.save(_job(), KernelReport(kernel="gbwt"))
        store.save(_job(seed=1), KernelReport(kernel="gbwt"))
        assert store.clear() == 2
        assert store.load(_job()) is None

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        store = ShardedResultStore()
        assert store.root == tmp_path / "alt"
