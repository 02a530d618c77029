"""The execution layer: plan compilation and one-job runners.

``compile_plan`` turns a suite request into an :class:`ExecutionPlan` of
per-kernel :class:`Job`\\ s (validated up front, so configuration errors
raise before anything runs).  A job then runs through one of two
runners:

* :func:`run_inline` — in the calling thread (deterministic, no
  pickling);
* :func:`run_in_process` — in a fresh worker process with a per-job
  deadline and failure isolation: a kernel that raises, hangs past its
  deadline, or kills its worker yields a report whose ``error`` field is
  set (via :func:`failure_report`, the one failure-report constructor).

Neither runner is called directly by the front-ends.
:class:`~repro.serve.service.BenchService` is the one dispatcher: it
looks each job up in the result store, single-flights it by
``job_digest``, runs it through a runner on a worker thread (its worker
threads are the parallelism), records its lifecycle via
:func:`record_lifecycle` and saves the report.  :func:`execute_jobs` is
the synchronous batch client over a transient service that
``run_suite`` and ``run_sweep`` use.

The process runner is observable end to end: the worker runs under its
own span tracer and ships its spans back inside the report; each span is
*also* spooled to disk as it finishes, so a job that times out or
crashes its worker still yields the spans it completed.

The worker is managed directly over :mod:`multiprocessing` rather than
``concurrent.futures.ProcessPoolExecutor``: a hung worker must be
*terminated* on timeout (the executor API can cancel only jobs that have
not started, and its atexit hook would block interpreter shutdown on the
stuck process).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.data import scenario_spec
from repro.data.streaming import streaming_mode
from repro.errors import KernelError
from repro.harness.runner import KernelReport, run_kernel_studies
from repro.harness.studies import create_study
from repro.kernels.base import resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.context import TraceContext, annotate_records
from repro.obs.spans import NULL_TRACER, Tracer
from repro.uarch.cache import MACHINE_B, CacheConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.shards import ShardedResultStore


@dataclass(frozen=True)
class Job:
    """One schedulable unit: a kernel under a set of studies.

    ``trace`` is request identity, not configuration: it rides into the
    worker so child-process spans stitch into the submitting request's
    trace, and it is deliberately excluded from
    :func:`~repro.harness.store.job_key` — the same work submitted by
    two requests still coalesces and cache-hits.
    """

    kernel: str
    studies: tuple[str, ...]
    scale: float = 1.0
    seed: int = 0
    cache_config: CacheConfig = MACHINE_B
    scenario: str = "default"
    #: Execution backend.  ``""`` means the kernel's default;
    #: ``compile_plan`` always stores the *resolved* name, and
    #: :func:`~repro.harness.store.job_key` resolves before hashing, so
    #: an explicit default and an implicit one share a cache entry.
    backend: str = ""
    trace: "TraceContext | None" = None
    #: Streaming mode holds derived inputs as bounded chunked views
    #: instead of monolithic in-memory lists.  Reports are bit-identical
    #: either way (chunk generators share the monolithic RNG
    #: substreams), so — like ``trace`` — it is excluded from
    #: :func:`~repro.harness.store.job_key` and both modes share cache
    #: entries.
    stream: bool = False


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, ordered set of jobs."""

    jobs: tuple[Job, ...]

    def __len__(self) -> int:
        return len(self.jobs)


def compile_plan(
    kernels: tuple[str, ...],
    studies: tuple[str, ...] = ("timing",),
    scale: float = 1.0,
    seed: int = 0,
    cache_config: CacheConfig = MACHINE_B,
    scenario: str = "default",
    stream: bool = False,
    backend: str | None = None,
) -> ExecutionPlan:
    """Compile one job per kernel, validating names before any runs.

    *backend* of ``None`` resolves to each kernel's default; an explicit
    backend must be supported by every requested kernel (a clear
    :class:`KernelError` otherwise), so a mixed-capability suite request
    fails at compile time, not mid-run.
    """
    for study in studies:
        create_study(study)  # unknown study raises
    scenario_spec(scenario, scale=scale, seed=seed)  # unknown scenario raises
    return ExecutionPlan(
        jobs=tuple(
            Job(
                kernel=name,
                studies=tuple(studies),
                scale=scale,
                seed=seed,
                cache_config=cache_config,
                scenario=scenario,
                backend=resolve_backend(name, backend),
                stream=stream,
            )
            for name in kernels
        )
    )


#: How a job's report was produced: run for this request, shared with
#: an identical in-flight run, or served from the result store.
EXECUTED, COALESCED, CACHED = "executed", "coalesced", "cached"


def failure_report(job: Job, error: "BaseException | str",
                   wall_seconds: float = 0.0) -> KernelReport:
    """The structured report for a job that did not complete: *error*
    (an exception, rendered ``"ExcType: message"``, or a ready string)
    plus the job's metadata and the wall time it spent."""
    if isinstance(error, BaseException):
        error = f"{type(error).__name__}: {error}"
    return KernelReport(
        kernel=job.kernel,
        error=error,
        wall_seconds=wall_seconds,
        scale=job.scale,
        seed=job.seed,
        machine=job.cache_config.name,
        scenario=job.scenario,
        backend=job.backend,
    )


def run_inline(job: Job) -> KernelReport:
    """Run one job in the calling thread, catching kernel failures into
    the report (which still carries the elapsed wall time up to the
    failure)."""
    started = time.monotonic()
    try:
        with streaming_mode(job.stream):
            report = run_kernel_studies(
                job.kernel,
                studies=job.studies,
                scale=job.scale,
                seed=job.seed,
                cache_config=job.cache_config,
                scenario=job.scenario,
                backend=job.backend or None,
            )
    except Exception as error:  # noqa: BLE001 — isolate per-kernel failures
        return failure_report(job, error, time.monotonic() - started)
    if job.trace is not None and report.spans:
        annotate_records(report.spans, job.trace)
    return report


#: Per-worker span spool cap (bytes); REPRO_SPAN_SPOOL_MAX_BYTES overrides.
DEFAULT_SPOOL_MAX_BYTES = 16 * 1024 * 1024


def _spool_max_bytes() -> int:
    raw = os.environ.get("REPRO_SPAN_SPOOL_MAX_BYTES", "")
    try:
        return int(raw) if raw else DEFAULT_SPOOL_MAX_BYTES
    except ValueError:
        return DEFAULT_SPOOL_MAX_BYTES


def _spool_writer(path: Path, max_bytes: "int | None" = None):
    """An ``on_finish`` hook appending each record as one JSON line.

    Opened per record on purpose: the worker may be terminated at any
    moment, and a line-buffered append is the crash-safe spool the
    parent reads partial spans back from.

    The spool is bounded (*max_bytes*, default
    :data:`DEFAULT_SPOOL_MAX_BYTES` or ``REPRO_SPAN_SPOOL_MAX_BYTES``):
    a pathological run emitting millions of spans cannot fill the disk.
    Records past the cap are dropped from the spool only — they stay in
    the tracer's in-memory list and still ship back with a successful
    report — and counted in the worker's registry as
    ``executor.spool_dropped_spans``.
    """
    limit = _spool_max_bytes() if max_bytes is None else max_bytes
    written = 0

    def on_finish(record: dict) -> None:
        nonlocal written
        line = json.dumps(record) + "\n"
        if written + len(line) > limit:
            obs_metrics.counter("executor.spool_dropped_spans").inc()
            return
        written += len(line)
        with path.open("a") as spool:
            spool.write(line)

    return on_finish


def _read_spool(path: Path) -> list[dict]:
    """Recover span records from a worker's spool file (tolerating a
    torn final line from a terminated worker)."""
    try:
        text = path.read_text()
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue  # torn write at termination
    return records


def _job_worker(job: Job, conn, spool_path: str) -> None:
    """Process entry point: run the job under its own tracer and
    metrics registry and ship the report back.

    Every finished span is also spooled to *spool_path* so the parent
    can recover partial spans when this process is terminated (timeout)
    or dies before reporting.
    """
    tracer = Tracer(on_finish=_spool_writer(Path(spool_path)),
                    context=job.trace)
    registry = obs_metrics.MetricsRegistry()
    try:
        with trace.use(tracer), obs_metrics.use(registry):
            report = run_inline(job)
        # Failure reports from run_inline bypass run_kernel_studies'
        # span/metric capture; attach what the worker did record.
        if not report.spans:
            report.spans = tracer.records()
        if not report.metrics:
            report.metrics = registry.as_dict()
        conn.send(report)
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (kernels registered at runtime stay visible in the
    children); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_in_process(job: Job, timeout: float | None = None,
                   spool_dir: "str | Path | None" = None) -> KernelReport:
    """Run one job in a fresh worker process, terminating it past
    *timeout* seconds.

    A worker that dies without reporting yields a ``WorkerDied`` report
    and a deadline miss a ``Timeout`` report; both carry the elapsed
    wall time and whatever spans reached the spool before the worker
    went away.  *spool_dir* overrides where the span spool lives (tests
    point it somewhere inspectable); the spool file is removed once the
    job finishes — the spans have then shipped back or been recovered.
    """
    handle, spool_name = tempfile.mkstemp(prefix="repro-spans-",
                                          suffix=".jsonl", dir=spool_dir)
    os.close(handle)
    spool_path = Path(spool_name)
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_job_worker,
                          args=(job, child_conn, spool_name), daemon=True)
    started = time.monotonic()
    try:
        process.start()
        child_conn.close()
        if parent_conn.poll(timeout):
            try:
                report = parent_conn.recv()
            except EOFError:  # the worker died without reporting
                report = None
            process.join(timeout=5)
            if report is None:
                report = failure_report(
                    job, f"WorkerDied: exit code {process.exitcode}")
        else:
            report = failure_report(job, f"Timeout: exceeded {timeout:g}s")
    finally:
        process.terminate()  # a no-op unless it hung or we were interrupted
        process.join(timeout=5)
        parent_conn.close()
    if report.error is not None:
        if report.wall_seconds == 0.0:
            report.wall_seconds = time.monotonic() - started
        if not report.spans:
            report.spans = _read_spool(spool_path)
    spool_path.unlink(missing_ok=True)
    return report


def record_lifecycle(job: Job, report: KernelReport, queue_wait: float,
                     started_pc: float, elapsed: float) -> None:
    """Fold job-lifecycle observability into *report* and the ambient
    tracer/metrics: queue-wait and wall gauges, an outcome counter, and
    executor spans when a real tracer is installed.  *started_pc* is
    the ``perf_counter`` time the run began (the tracer timebase)."""
    outcome = "ok" if report.error is None else "error"
    lifecycle = obs_metrics.MetricsRegistry()
    lifecycle.counter("executor.jobs", kernel=job.kernel,
                      outcome=outcome).inc()
    lifecycle.gauge("executor.queue_wait_seconds",
                    kernel=job.kernel).set(queue_wait)
    lifecycle.gauge("executor.wall_seconds", kernel=job.kernel).set(elapsed)
    lifecycle.histogram("executor.queue_wait_seconds").observe(queue_wait)
    exported = lifecycle.as_dict()
    report.metrics = (
        obs_metrics.merge(report.metrics, exported)
        if report.metrics else exported
    )
    obs_metrics.current_registry().merge_dict(exported)

    tracer = trace.current_tracer()
    if tracer is not NULL_TRACER:
        trace_id = job.trace.trace_id if job.trace else None
        if queue_wait > 0:
            tracer.add_record(f"executor/queue-wait/{job.kernel}",
                              started_pc - queue_wait, queue_wait,
                              trace=trace_id)
        tracer.add_record(f"executor/job/{job.kernel}", started_pc, elapsed,
                          {"outcome": outcome}, trace=trace_id)


@dataclass(frozen=True)
class JobOutcome:
    """One job's report plus its origin (:data:`EXECUTED`,
    :data:`COALESCED` or :data:`CACHED`).

    ``execute_jobs`` returns these in submission order, so grids that
    run the same kernel many times (one per scenario cell — the sweep
    driver's shape) keep every report.
    """

    job: Job
    report: KernelReport
    origin: str = EXECUTED


def execute_jobs(
    jobs: "list[Job] | tuple[Job, ...]",
    workers: int = 1,
    timeout: float | None = None,
    reuse: bool = False,
    store: "ShardedResultStore | None" = None,
) -> list[JobOutcome]:
    """Execute *jobs* through a transient
    :class:`~repro.serve.service.BenchService` and return one
    :class:`JobOutcome` per job, in submission order.

    ``workers == 1`` runs the jobs inline, one after another in
    submission order; more workers run each job in its own worker
    process, with *timeout* enforced per job.  With ``reuse=True``
    cached reports are served without executing the kernel and fresh
    successful reports are saved to *store* (default: the shared
    ``benchmarks/results/cache/`` store).  Identical jobs in one batch
    run once; the extra copies come back ``coalesced``.
    """
    if workers < 1:
        raise KernelError("workers must be >= 1")
    from repro.serve.service import BenchService  # serve builds on harness

    service = BenchService(
        workers, isolation="inline" if workers == 1 else "process",
        timeout=timeout, store=store, reuse=reuse, max_queue=len(jobs),
        autostart=False,
    )
    try:
        handles = [service.submit_job(job) for job in jobs]
        service.start()
        return [JobOutcome(job=job, report=handle.wait(),
                           origin=handle.origin)
                for job, handle in zip(jobs, handles)]
    finally:
        # The transient service's serve.* series describe this call, not
        # process traffic: keep them out of the ambient registry.
        with obs_metrics.use(obs_metrics.MetricsRegistry()):
            service.shutdown()
