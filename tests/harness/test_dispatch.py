"""One job path: every result-store lookup and save goes through the
service, once per job, whichever front-end submitted it."""

from __future__ import annotations

import ast
import importlib
import re
import threading
from pathlib import Path

import pytest

from repro.harness.executor import Job
from repro.harness.runner import run_suite
from repro.serve import BenchService, ShardedResultStore
from repro.sweep import compile_sweep, run_sweep
from repro.uarch.cache import MACHINE_B

REPO = Path(__file__).resolve().parents[2]


class CountingStore(ShardedResultStore):
    """Counts ``load``/``save`` calls (the ``TimedResultStore`` shape)."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.loads = self.saves = 0
        self._count_lock = threading.Lock()

    def load(self, job):
        with self._count_lock:
            self.loads += 1
        return super().load(job)

    def save(self, job, report):
        with self._count_lock:
            self.saves += 1
        return super().save(job, report)


@pytest.mark.usefixtures("fake_kernels")
class TestOneLookupAndSavePerJob:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_suite(self, tmp_path, jobs):
        store = CountingStore(tmp_path)
        for _ in range(2):  # cold, then fully cached
            run_suite(("fake-ok", "fake-spanspam"), jobs=jobs, reuse=True,
                      store=store)
        assert (store.loads, store.saves) == (4, 2)

    def test_run_suite_without_reuse_never_touches_the_store(self, tmp_path):
        store = CountingStore(tmp_path)
        run_suite(("fake-ok",), reuse=False, store=store)
        assert (store.loads, store.saves) == (0, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_sweep(self, tmp_path, workers):
        store = CountingStore(tmp_path)
        plan = compile_sweep("suite", kernels=("fake-ok",),
                             cells=("default",), scales=(0.05,),
                             seeds=(0, 1))
        cold = run_sweep(plan, workers=workers, store=store)
        warm = run_sweep(plan, workers=workers, store=store)
        assert cold.origin_counts() == {"executed": 2}
        assert warm.origin_counts() == {"cached": 2}
        assert (store.loads, store.saves) == (4, 2)

    def test_bench_service(self, tmp_path):
        store = CountingStore(tmp_path)
        jobs = [Job(kernel="fake-ok", studies=("timing",), scale=0.05,
                    seed=seed, cache_config=MACHINE_B) for seed in (0, 1)]
        with BenchService(workers=1, isolation="inline",
                          store=store) as service:
            for _ in range(2):
                for handle in [service.submit_job(job) for job in jobs]:
                    handle.wait(timeout=60)
        assert (store.loads, store.saves) == (4, 2)


def test_batch_runs_keep_serve_series_out_of_the_ambient_registry(
    fake_kernels
):
    """execute_jobs' transient service is an implementation detail: the
    ambient registry sees executor and kernel series, not serve.*."""
    from repro.obs import metrics as obs_metrics

    scoped = obs_metrics.MetricsRegistry()
    with obs_metrics.use(scoped):
        run_suite(("fake-ok",))
    counters = scoped.as_dict()["counters"]
    assert counters["executor.jobs{kernel=fake-ok,outcome=ok}"] == 1
    assert not any(key.startswith("serve.") for key in counters)


def test_only_the_service_loads_and_saves_jobs():
    """The dispatch policy lives in one module."""
    pattern = re.compile(r"\.(load|save)\(job")
    callers = {path.relative_to(REPO / "src").as_posix()
               for path in (REPO / "src" / "repro").rglob("*.py")
               if pattern.search(path.read_text())}
    assert callers == {"repro/serve/service.py"}


def _perfbench_imports():
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None


def test_perfbench_imports_resolve():
    """The frozen benchmark harness keeps importing: no API it names
    may disappear."""
    imports = list(_perfbench_imports())
    assert imports
    for source, module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), f"{source}: {module}.{name}"
