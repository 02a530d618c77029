"""The three benchmark workloads and their traced layer ledgers.

Each workload owns its inputs (listed here, not imported from the
program, so a change under ``src/`` cannot silently change a workload),
a set-up step that builds its corpora and derivations in a fresh data
store, one *op* that is timed untraced and checked, and a *ledger* that
re-runs the op with the outside-in timers of :mod:`layers` attached and
returns the per-layer numbers.

* ``characterize`` — ``run_suite`` over the seven paper CPU
  configurations under ``topdown,cache,instmix`` (Figs 6-8, Table 6).
* ``sweep`` — a 7-kernel x 6-cell ``matrix`` grid, run cold into a
  fresh result store, re-run warm, then aggregated.
* ``serve`` — a seeded, duplicate-heavy request trace offered open-loop
  to a process-isolated ``BenchService`` (phase A), then submitted as
  fast as admission control allows (phase B).
"""

from __future__ import annotations

import copy
import fcntl
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from layers import (
    CallTimer,
    SpanRecorder,
    TimedArtifactStore,
    TimedProbe,
    TimedResultStore,
)
from repro.analysis.aggregate import aggregate_sweep
from repro.data import ArtifactStore, default_store, scenario_spec, set_default_store
from repro.errors import ServiceOverloaded
from repro.harness import run_suite
from repro.harness.executor import compile_plan
from repro.harness.runner import KernelReport, run_kernel_studies
from repro.harness.store import job_digest
from repro.harness.studies import create_study
from repro.kernels.base import create_kernel
from repro.obs import trace
from repro.obs.spans import Tracer
from repro.serve import CACHED, EXECUTED, BenchService, counter_total
from repro.serve.shards import ShardedResultStore
from repro.sweep import compile_sweep, run_sweep
from repro.sweep.gates import check_paper_gates
from repro.uarch.cache import MACHINE_B
from repro.uarch.events import NULL_PROBE
from repro.uarch.machine import TraceMachine
from repro.uarch.topdown import analyze

_clock = time.perf_counter

#: Report fields that carry simulated statistics.
SIM_FIELDS = ("instructions", "ipc", "topdown", "mpki", "instruction_mix",
              "branch_misprediction_rate")
#: Report fields allowed to differ between two runs of one job.
VOLATILE_FIELDS = ("wall_seconds", "spans", "metrics")


def sim_stats(report: KernelReport) -> dict:
    return {name: getattr(report, name) for name in SIM_FIELDS}


def stable_fields(report: KernelReport) -> dict:
    payload = asdict(report)
    for name in VOLATILE_FIELDS:
        payload.pop(name, None)
    return payload


def gauge_sum(metrics: dict, name: str) -> float | None:
    """Sum of every series of gauge *name* in a metrics export, or
    ``None`` when the export has no such series."""
    prefix = name + "{"
    values = [value for key, value in metrics.get("gauges", {}).items()
              if key == name or key.startswith(prefix)]
    return sum(values) if values else None


def histogram_mean(metrics: dict, name: str) -> float | None:
    """Mean observation over every series of histogram *name*."""
    prefix = name + "{"
    count = total = 0.0
    for key, payload in metrics.get("histograms", {}).items():
        if key == name or key.startswith(prefix):
            count += payload["count"]
            total += payload["sum"]
    return total / count if count else None


def mean(values) -> float | None:
    values = [value for value in values if value is not None]
    return sum(values) / len(values) if values else None


def digest_of(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    """One op: its wall time, what it measured, and failed checks."""

    wall: float
    values: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


@dataclass
class Ledger:
    """A traced op's per-layer numbers plus its own bookkeeping."""

    metrics: dict
    traced_wall: float
    untraced_wall: float | None
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)


class Workload:
    """Base class: fresh-store set-up and scratch-directory plumbing."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, work: Path, recorder: SpanRecorder) -> None:
        self.seed = seed
        self.work = work
        self.recorder = recorder
        self.store: ArtifactStore | None = None
        self.data_timer = CallTimer()

    def scratch(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def setup(self) -> float:
        """Build every corpus and derivation the workload needs in a
        fresh data store (installed as the default); returns seconds."""
        previous = self.store
        root = self.scratch(f"{self.name}-data-")
        store = (TimedArtifactStore(root, self.data_timer)
                 if self.recorder.enabled else ArtifactStore(root))
        set_default_store(store)
        with self.recorder.span(f"{self.name}/setup"):
            started = _clock()
            for kernel in self.prepared_kernels():
                kernel.ensure_prepared()
            elapsed = _clock() - started
        self.store = store
        if previous is not None:
            shutil.rmtree(previous.root, ignore_errors=True)
        return elapsed

    def prepared_kernels(self):
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError

    def input_digest(self) -> str:
        return digest_of(self.inputs())

    def validate(self) -> list[str]:
        """Run the kernels' oracle self-checks once; returns findings
        (reported, not counted as failed ops)."""
        return []

    def warmup(self) -> OpResult:
        return self.op()

    def op(self) -> OpResult:
        raise NotImplementedError

    def ledger(self) -> Ledger:
        raise NotImplementedError

    def close(self) -> None:
        set_default_store(None)
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None


# -- characterize ----------------------------------------------------------

CHAR_KERNELS = ("gssw", "gbv", "gbwt", "gwfa-cr", "gwfa-lr", "pgsgd", "tc")
CHAR_STUDIES = ("topdown", "cache", "instmix")
CHAR_SCALE = 0.25
#: The per-layer self times of the traced op must sum to its wall
#: (less the algorithm-only reference runs) within this share.
LEDGER_TOLERANCE = 0.05


class Characterize(Workload):
    name = "characterize"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reference: dict | None = None

    def prepared_kernels(self):
        return [create_kernel(name, scale=CHAR_SCALE, seed=self.seed)
                for name in CHAR_KERNELS]

    def inputs(self) -> dict:
        return {
            "kernels": CHAR_KERNELS, "studies": CHAR_STUDIES,
            "scale": CHAR_SCALE, "seed": self.seed,
            "dataset": scenario_spec("default", scale=CHAR_SCALE,
                                     seed=self.seed).digest(),
        }

    def validate(self) -> list[str]:
        findings = []
        for kernel in self.prepared_kernels():
            try:
                kernel.validate()
            except Exception as error:  # noqa: BLE001 - reported as a finding
                findings.append(f"validate {kernel.name}: "
                                f"{type(error).__name__}: {error}")
        return findings

    def _suite(self) -> tuple[float, dict]:
        """One op: a cold in-process suite run into a fresh store."""
        default_store().evict_memory()
        results = self.scratch("char-results-")
        try:
            started = _clock()
            reports = run_suite(CHAR_KERNELS, studies=CHAR_STUDIES,
                                scale=CHAR_SCALE, seed=self.seed, jobs=1,
                                reuse=True, store=ShardedResultStore(results))
            wall = _clock() - started
        finally:
            shutil.rmtree(results, ignore_errors=True)
        return wall, reports

    def _check(self, reports: dict) -> list[str]:
        failures = [f"{name}: {report.error}"
                    for name, report in reports.items() if report.error]
        stats = {name: sim_stats(report) for name, report in reports.items()}
        if self.reference is None:
            self.reference = stats
        elif stats != self.reference:
            failures.append("simulated statistics differ between ops")
        return failures

    def op(self) -> OpResult:
        wall, reports = self._suite()
        instructions = sum(report.instructions for report in reports.values())
        return OpResult(
            wall=wall,
            values={"instructions": instructions,
                    "sim_instr_per_s": instructions / wall},
            failures=self._check(reports),
        )

    def _null_run(self, kernel) -> float:
        with self.recorder.span(f"kernels/{kernel.name}/algorithm"):
            started = _clock()
            kernel.run(NULL_PROBE)
            return _clock() - started

    def ledger(self) -> Ledger:
        span = self.recorder.span
        with span("characterize/untraced-op"), self.recorder.paused():
            untraced_wall, untraced = self._suite()
        failures = self._check(untraced)
        gate_violations = sum(len(check_paper_gates(report))
                              for report in untraced.values())

        metrics: dict[str, float] = {}
        results_dir = self.scratch("char-results-")
        save_timer = CallTimer()
        results = TimedResultStore(results_dir, save_timer, self.recorder,
                                   "harness/char")
        store = self.store
        store.evict_memory()
        kernels = {}
        probes = {}
        reenacted = {}
        reference_wall = 0.0
        totals = dict.fromkeys(("summary", "collect"), 0.0)
        layer_sum = 0.0
        with span("characterize/traced-op") as op_span:
            for name in CHAR_KERNELS:
                with span(f"kernel/{name}"):
                    kernel = create_kernel(name, scale=CHAR_SCALE,
                                           seed=self.seed)
                    kernels[name] = kernel
                    store.label = name
                    loaded = store.timer.seconds[name]
                    with span(f"kernels/{name}/prepare") as record:
                        started = _clock()
                        kernel.ensure_prepared()
                        prepare = _clock() - started
                    load = store.timer.seconds[name] - loaded
                    record["args"]["data_load_s"] = load
                    # The algorithm alone, once on each side of the
                    # traced run (the first also warms the kernel up).
                    algorithms = [self._null_run(kernel)]
                    machine = TraceMachine(MACHINE_B)
                    probe = TimedProbe(machine)
                    with span(f"kernels/{name}/traced-execute") as record:
                        started = _clock()
                        result = kernel.run(probe)
                        executed = _clock() - started
                        record["args"]["ingest_s"] = probe.seconds
                    algorithms.append(self._null_run(kernel))
                    algorithm = min(algorithms)
                    reference_wall += sum(algorithms)
                    probes[name] = (probe, machine)
                    with span(f"uarch/{name}/summary"):
                        started = _clock()
                        summary = machine.summary()
                        analyze(summary)
                        summarized = _clock() - started
                    report = KernelReport(
                        kernel=name, scale=CHAR_SCALE, seed=self.seed,
                        machine=MACHINE_B.name, backend=kernel.backend,
                        inputs_processed=result.inputs_processed,
                        work=dict(result.work),
                        instructions=summary.instructions,
                        branch_misprediction_rate=(
                            summary.branch_stats.misprediction_rate),
                    )
                    with span(f"harness/{name}/collect"):
                        started = _clock()
                        for study in CHAR_STUDIES:
                            create_study(study).collect(kernel, result,
                                                        summary, report)
                        collected = _clock() - started
                    job = compile_plan((name,), studies=CHAR_STUDIES,
                                       scale=CHAR_SCALE, seed=self.seed).jobs[0]
                    results.save(job, report)
                    reenacted[name] = report
                ingest = probe.seconds
                emit = executed - algorithm - ingest
                metrics[f"data.{name}.load_s"] = load
                metrics[f"kernels.{name}.prepare_s"] = prepare - load
                metrics[f"kernels.{name}.algorithm_s"] = algorithm
                metrics[f"kernels.{name}.emit_s"] = emit
                metrics[f"uarch.{name}.ingest_s"] = ingest
                metrics[f"uarch.{name}.calls"] = probe.calls
                metrics[f"uarch.{name}.events_per_call"] = (
                    probe.events / probe.calls if probe.calls else None)
                totals["summary"] += summarized
                totals["collect"] += collected
                layer_sum += (prepare + algorithm + emit + ingest
                              + summarized + collected)
        shutil.rmtree(results_dir, ignore_errors=True)
        layer_sum += save_timer.seconds["save"]
        traced_wall = op_span["dur"] - reference_wall
        ingest_total = sum(metrics[f"uarch.{name}.ingest_s"]
                           for name in CHAR_KERNELS)
        metrics["uarch.ingest_share"] = ingest_total / layer_sum
        metrics["uarch.summary_s"] = totals["summary"]
        metrics["harness.collect_s"] = totals["collect"]
        metrics["harness.char.save_s"] = save_timer.seconds["save"]
        metrics["uarch.gate_violations"] = gate_violations

        coverage = layer_sum / traced_wall
        notes = [f"characterize ledger: layers sum to {layer_sum:.4f} s of a "
                 f"{traced_wall:.4f} s traced op (coverage {coverage:.4f}, "
                 f"tolerance +/-{LEDGER_TOLERANCE})"]
        if abs(coverage - 1.0) > LEDGER_TOLERANCE:
            failures.append(f"ledger coverage {coverage:.4f} outside "
                            f"+/-{LEDGER_TOLERANCE}")
        for name in CHAR_KERNELS:
            if sim_stats(reenacted[name]) != sim_stats(untraced[name]):
                failures.append(f"{name}: re-enactment statistics differ "
                                "from the suite run")

        # The timed probe must not change what the simulator computes:
        # compare against a plain TraceMachine run of the same kernel.
        with span("characterize/probe-self-check"):
            for name, kernel in kernels.items():
                plain = TraceMachine(MACHINE_B)
                kernel.run(plain)
                if plain.summary() != probes[name][1].summary():
                    failures.append(f"{name}: timed probe changed the "
                                    "MachineSummary")

        # Program-side span tracing cost: the same single-job engine
        # call with and without a Tracer installed.
        attribution = 0.0
        with span("obs/attribution"):
            for name in CHAR_KERNELS:
                started = _clock()
                plain_report = run_kernel_studies(
                    name, studies=CHAR_STUDIES, scale=CHAR_SCALE,
                    seed=self.seed)
                untraced_call = _clock() - started
                with trace.use(Tracer()):
                    started = _clock()
                    run_kernel_studies(name, studies=CHAR_STUDIES,
                                       scale=CHAR_SCALE, seed=self.seed)
                    traced_call = _clock() - started
                attribution += traced_call - untraced_call
                if stable_fields(plain_report) != stable_fields(reenacted[name]):
                    failures.append(f"{name}: timed-probe report fields "
                                    "differ from the engine's")
        metrics["obs.attribution_s"] = attribution
        return Ledger(metrics=metrics, traced_wall=traced_wall,
                      untraced_wall=untraced_wall, failures=failures,
                      notes=notes)


# -- sweep -----------------------------------------------------------------

SWEEP_KERNELS = ("gssw", "gbv", "gbwt", "gwfa-lr", "pgsgd", "tc", "tsu")
#: Bench-fidelity cells spanning the population, divergence, SV and
#: read axes of the ``matrix`` manifest.
SWEEP_CELLS = (
    "pop4-div1x-sv1x-short",
    "pop16-div1x-sv1x-short",
    "pop8-div4x-sv1x-short",
    "pop8-div1x-sv8x-short",
    "pop8-div1x-sv1x-long",
    "pop16-div4x-sv8x-long",
)
SWEEP_MANIFEST = "matrix"
SWEEP_STUDIES = ("timing",)
SWEEP_SCALE = 0.1
SWEEP_WORKERS = 2
#: The untimed warm-up runs the op's code path on this sub-grid.
SWEEP_WARMUP = (("tsu", "gbwt"), SWEEP_CELLS[:1])


class Sweep(Workload):
    name = "sweep"
    setup_repeats = 2

    def plan(self, kernels=SWEEP_KERNELS, cells=SWEEP_CELLS):
        return compile_sweep(SWEEP_MANIFEST, kernels=kernels,
                             studies=SWEEP_STUDIES, scales=(SWEEP_SCALE,),
                             seeds=(self.seed,), cells=cells)

    def prepared_kernels(self):
        return [create_kernel(job.kernel, scale=job.scale, seed=job.seed,
                              scenario=job.scenario)
                for job in self.plan().jobs]

    def inputs(self) -> dict:
        plan = self.plan()
        return {
            "manifest": SWEEP_MANIFEST, "kernels": SWEEP_KERNELS,
            "cells": SWEEP_CELLS, "studies": SWEEP_STUDIES,
            "scale": SWEEP_SCALE, "seed": self.seed,
            "datasets": sorted({scenario_spec(job.scenario, scale=job.scale,
                                              seed=job.seed).digest()
                                for job in plan.jobs}),
        }

    def _op(self, plan, results: ShardedResultStore) -> OpResult:
        span = self.recorder.span
        default_store().evict_memory()
        out = self.scratch("sweep-out-")
        try:
            started = _clock()
            with span("sweep/cold-pass"):
                cold = run_sweep(plan, workers=SWEEP_WORKERS, store=results)
            cold_done = _clock()
            with span("sweep/warm-pass"):
                warm = run_sweep(plan, workers=SWEEP_WORKERS, store=results)
            warm_done = _clock()
            with span("analysis/aggregate"):
                aggregate_sweep(warm, out)
            done = _clock()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        points = len(plan)
        failures = [f"{r.kernel}@{r.scenario}: {r.report.error}"
                    for r in cold.results + warm.results if r.report.error]
        if cold.origin_counts() != {"executed": points}:
            failures.append(f"cold pass origins {cold.origin_counts()}")
        if warm.origin_counts() != {"cached": points}:
            failures.append(f"warm pass origins {warm.origin_counts()}")
        for first, second in zip(cold.results, warm.results):
            if stable_fields(first.report) != stable_fields(second.report):
                failures.append(f"{first.kernel}@{first.scenario}: warm "
                                "report differs from cold")
        return OpResult(
            wall=done - started,
            values={
                "cold_points_per_s": points / (cold_done - started),
                "warm_points_per_s": points / (warm_done - cold_done),
                "aggregate_s": done - warm_done,
            },
            samples={"cold": cold},
            failures=failures,
        )

    def _fresh_op(self, plan) -> OpResult:
        results = self.scratch("sweep-results-")
        try:
            return self._op(plan, ShardedResultStore(results))
        finally:
            shutil.rmtree(results, ignore_errors=True)

    def warmup(self) -> OpResult:
        return self._fresh_op(self.plan(*SWEEP_WARMUP))

    def op(self) -> OpResult:
        return self._fresh_op(self.plan())

    def ledger(self) -> Ledger:
        # No untraced reference op: sweep is not a gated workload, and
        # the traced run must stay well inside its time limit.
        with self.recorder.span("sweep/compile"):
            compiles = []
            for _ in range(5):
                started = _clock()
                plan = self.plan()
                compiles.append(_clock() - started)
        timer = CallTimer()
        results_dir = self.scratch("sweep-results-")
        try:
            with self.recorder.span("sweep/traced-op") as op_span:
                traced = self._op(plan, TimedResultStore(
                    results_dir, timer, self.recorder, "harness/sweep"))
        finally:
            shutil.rmtree(results_dir, ignore_errors=True)
        cold = traced.samples["cold"].results
        exports = [result.report.metrics for result in cold]
        prepare = [gauge_sum(m, "kernel.prepare_seconds") for m in exports]
        execute = [gauge_sum(m, "kernel.execute_seconds") for m in exports]
        wall = [gauge_sum(m, "executor.wall_seconds") for m in exports]
        dispatch = [w - p - e for w, p, e in zip(wall, prepare, execute)
                    if None not in (w, p, e)]
        points = len(cold)
        metrics = {
            "sweep.compile_s": sorted(compiles)[len(compiles) // 2],
            "analysis.aggregate_s": traced.values["aggregate_s"],
            "harness.sweep.save_s": timer.per_call("save"),
            "harness.sweep.load_s": timer.per_call("load_hit"),
            "harness.sweep.dispatch_s": mean(dispatch),
            "harness.sweep.queue_wait_s": mean(
                gauge_sum(m, "executor.queue_wait_seconds") for m in exports),
            "kernels.sweep.prepare_s": mean(prepare),
            "kernels.sweep.execute_s": mean(execute),
            "harness.sweep.warm_hit_ratio": timer.calls["load_hit"] / points,
        }
        return Ledger(metrics=metrics, traced_wall=op_span["dur"],
                      untraced_wall=None, failures=traced.failures)


# -- serve -----------------------------------------------------------------

SERVE_KERNELS = ("tsu", "gbwt", "tc", "pgsgd")
#: Dataset seeds per kernel, offset from the run seed: 4 x 3 = 12 jobs.
SERVE_SEED_OFFSETS = (0, 1, 2)
SERVE_SCALE = 0.05
SERVE_STUDIES = ("timing",)
SERVE_REQUESTS = 1200
SERVE_WORKERS = 2
#: Phase A's open-loop arrival rate (requests/s), well under the
#: service's cache-hit capacity on a 2-core host.
SERVE_RATE = 100.0
#: Phase B offers the trace this many times back to back.
SERVE_BURST_PASSES = 3
SERVE_BURST = 8
SERVE_BURST_FRACTION = 0.2
SERVE_WARMUP_REQUESTS = 120
SERVE_WAIT_S = 120.0
#: Requests per measured segment; a hit-path calibration runs between
#: segments, so each segment is scaled by the host speed around it.
SERVE_SEGMENT = 200
#: The generator sleeps until this long before a request is due, then
#: spins, so scheduler wake-up delay stays out of the latencies.
SERVE_SPIN_S = 0.001
#: Emulated hits per calibration sample, and their wall at nominal
#: host speed.
HIT_CALIBRATION_HITS = 5
HIT_CALIBRATION_NOMINAL_S = 0.006


@dataclass(frozen=True)
class _Level:
    name: str
    size: int
    ways: int
    line: int
    latency: int


@dataclass(frozen=True)
class _Key:
    kernel: str
    studies: tuple
    scale: float
    seed: int
    levels: tuple


class HitPathCalibration:
    """A program-independent stand-in for one result-store cache hit.

    Each emulated hit does the kinds of work a ``BenchService`` hit
    does, in about the same proportions, with none of the program's
    code: three ``asdict`` + canonical ``json.dumps`` + sha256 digests
    of a nested dataclass key (object work, most of a real hit), a read,
    parse and deep copy of a ~3 KB JSON report, and, under an exclusive
    ``flock``, a read-parse-rewrite of a 12-entry index through
    ``mkstemp`` + ``os.replace`` (file-system work, about a quarter of
    a real hit).  On a shared host the CPU and the file system slow
    down independently; the pure-Python loop in ``run.py`` sees only
    the first.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.key = _Key("k", ("timing",), 0.05, 7, tuple(
            _Level(f"L{i}", 1 << (15 + 3 * i), 8, 64, 4 << i)
            for i in range(12)))
        report = {
            "spans": [{"name": f"kernel/k/phase{i}", "start": i * 0.125,
                       "dur": 0.0625, "args": {"items": i, "trace": "0" * 16}}
                      for i in range(16)],
            "metrics": {
                "counters": {f"kernel.c{i}{{backend=x,kernel=k}}": i
                             for i in range(12)},
                "gauges": {f"kernel.g{i}{{backend=x,kernel=k}}": i / 3
                           for i in range(12)},
            },
        }
        self.report = root / "ab" / "report.json"
        self.report.parent.mkdir()
        self.report.write_text(json.dumps(report, indent=2, sort_keys=True))
        self.index = root / "index.json"
        self.index.write_text(json.dumps(
            {"clock": 12, "entries": {f"{i:016x}": {"bytes": 3000,
                                                    "kernel": "k", "used": i}
                                      for i in range(12)}}, sort_keys=True))
        self.lock = root / "index.lock"

    def _hit(self) -> None:
        for _ in range(3):
            canonical = json.dumps(asdict(self.key), sort_keys=True,
                                   separators=(",", ":"))
            hashlib.sha256(canonical.encode()).hexdigest()
        self.report.parent.mkdir(parents=True, exist_ok=True)
        copy.deepcopy(json.loads(self.report.read_text()))
        with open(self.lock, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            index = json.loads(self.index.read_text())
            index["clock"] += 1
            handle, name = tempfile.mkstemp(dir=self.root)
            with os.fdopen(handle, "w") as out:
                out.write(json.dumps(index, sort_keys=True))
            os.replace(name, self.index)
            fcntl.flock(lock, fcntl.LOCK_UN)

    def _sample(self) -> float:
        started = _clock()
        for _ in range(HIT_CALIBRATION_HITS):
            self._hit()
        return _clock() - started

    def seconds(self) -> float:
        """Median of three samples: the host's current hit-path speed."""
        return sorted(self._sample() for _ in range(3))[1]


def serve_trace(seed: int, jobs: list, requests: int) -> tuple[list, list]:
    """A seeded request trace over *jobs* plus its Poisson schedule.

    Popularity is rank-weighted (weight ``1/(rank+1)`` over a
    seed-shuffled working set); duplicate bursts of :data:`SERVE_BURST`
    identical back-to-back requests cover about
    :data:`SERVE_BURST_FRACTION` of the trace; each job is also inserted
    once at a seeded position, so executions must equal ``len(jobs)``.
    """
    rng = random.Random(seed)
    ranked = list(jobs)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    picks = rng.choices(ranked, weights=weights, k=requests - len(jobs))
    for _ in range(int(requests * SERVE_BURST_FRACTION / SERVE_BURST)):
        start = rng.randrange(len(picks) - SERVE_BURST)
        picks[start:start + SERVE_BURST] = [picks[start]] * SERVE_BURST
    for job in ranked:
        picks.insert(rng.randrange(len(picks) + 1), job)
    schedule, due = [], 0.0
    for _ in picks:
        due += rng.expovariate(SERVE_RATE)
        schedule.append(due)
    return picks, schedule


@dataclass
class Phase:
    """One offer of a request sequence to the service."""

    wall: float
    latencies: list
    lateness: list
    handles: list
    #: Per request: the factor that converts its latency to seconds at
    #: nominal hit-path speed (that of the segment it was sent in).
    factors: list
    #: Per segment: requests per second at nominal hit-path speed.
    rates: list


class Serve(Workload):
    name = "serve"
    setup_repeats = 9

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.jobs = [
            compile_plan((kernel,), studies=SERVE_STUDIES, scale=SERVE_SCALE,
                         seed=self.seed + offset).jobs[0]
            for kernel in SERVE_KERNELS for offset in SERVE_SEED_OFFSETS
        ]
        self.trace, self.schedule = serve_trace(self.seed, self.jobs,
                                                SERVE_REQUESTS)
        self.calibration = HitPathCalibration(
            self.scratch("serve-calibration-"))

    def prepared_kernels(self):
        return [create_kernel(job.kernel, scale=job.scale, seed=job.seed)
                for job in self.jobs]

    def inputs(self) -> dict:
        return {
            "kernels": SERVE_KERNELS, "scale": SERVE_SCALE,
            "studies": SERVE_STUDIES, "seed": self.seed,
            "requests": [job_digest(job) for job in self.trace],
            "schedule_us": [round(due * 1e6) for due in self.schedule],
        }

    def _offer(self, service: BenchService, trace: list,
               schedule: list | None, timer: CallTimer | None) -> Phase:
        """Submit *trace* on *schedule* (open loop) or, with no schedule,
        as fast as admission control allows; wait for every handle.

        The trace goes out in segments of :data:`SERVE_SEGMENT`
        requests with a hit-path calibration between them; a segment's
        schedule restarts when it starts, and the phase wall leaves the
        calibrations out."""
        handles, lateness, due_times, factors, rates = [], [], [], [], []
        started = _clock()
        with self.recorder.span("serve/calibration"):
            calibration = self.calibration.seconds()
        calibrating = _clock() - started
        for first in range(0, len(trace), SERVE_SEGMENT):
            part = trace[first:first + SERVE_SEGMENT]
            origin = schedule[first - 1] if schedule and first else 0.0
            begun = _clock()
            for index, job in enumerate(part, start=first):
                due = begun + schedule[index] - origin if schedule else _clock()
                if schedule:
                    pause = due - _clock() - SERVE_SPIN_S
                    if pause > 0:
                        time.sleep(pause)
                    while _clock() < due:
                        pass
                    lateness.append(_clock() - due)
                while True:
                    try:
                        with self.recorder.span("serve/submit"):
                            submitted = _clock()
                            handle = service.submit_job(job)
                            if timer is not None:
                                timer.add("submit", _clock() - submitted)
                        break
                    except ServiceOverloaded as overload:
                        time.sleep(min(overload.retry_after, 0.5))
                handles.append(handle)
                due_times.append(due)
            ended = _clock()
            with self.recorder.span("serve/calibration"):
                after = self.calibration.seconds()
            calibrated = _clock()
            calibrating += calibrated - ended
            factor = 2 * HIT_CALIBRATION_NOMINAL_S / (calibration + after)
            calibration = after
            factors.extend([factor] * len(part))
            rates.append(len(part) / (ended - begun) / factor)
        for handle in handles:
            handle.wait(timeout=SERVE_WAIT_S)
        latencies = [handle.resolved_at - due
                     for handle, due in zip(handles, due_times)]
        finished = max(calibrated,
                       *(handle.resolved_at for handle in handles))
        return Phase(wall=finished - started - calibrating, latencies=latencies,
                     lateness=lateness, handles=handles, factors=factors,
                     rates=rates)

    def _check(self, trace: list, open_loop: Phase, burst: Phase) -> list[str]:
        failures = []
        distinct = len({job_digest(job) for job in trace})
        executed: dict[str, dict] = {}
        for handle in open_loop.handles + burst.handles:
            report = handle.wait(timeout=0)
            if report.error:
                failures.append(f"{handle.job.kernel}: {report.error}")
            if handle.origin == EXECUTED:
                executed[handle.digest] = stable_fields(report)
        runs = sum(handle.origin == EXECUTED for handle in open_loop.handles)
        if runs != distinct or len(executed) != distinct:
            failures.append(f"{runs} executions for {distinct} distinct jobs")
        served = len(trace) - runs
        if served != len(trace) - distinct:
            failures.append(f"{served} requests served without execution, "
                            f"trace has {len(trace) - distinct} duplicates")
        if any(handle.origin != CACHED for handle in burst.handles):
            failures.append("phase B was not served entirely from the cache")
        for handle in open_loop.handles + burst.handles:
            if stable_fields(handle.wait(timeout=0)) != executed.get(handle.digest):
                failures.append(f"{handle.job.kernel}/{handle.digest}: report "
                                "differs from its executed report")
                break
        return failures

    def _op(self, trace: list, schedule: list,
            timer: CallTimer | None = None) -> OpResult:
        """Phase A offers *trace* open-loop to a service on a fresh store;
        phase B then offers it :data:`SERVE_BURST_PASSES` times as fast
        as admission control allows, to the same (now warm) service."""
        span = self.recorder.span
        default_store().evict_memory()
        results_dir = self.scratch("serve-results-")
        store = (ShardedResultStore(results_dir) if timer is None
                 else TimedResultStore(results_dir, timer, self.recorder,
                                       "serve/store"))
        service = BenchService(workers=SERVE_WORKERS, isolation="process",
                               store=store)
        try:
            with span("serve/open-loop"):
                open_loop = self._offer(service, trace, schedule, timer)
            with span("serve/burst"):
                burst = self._offer(service, trace * SERVE_BURST_PASSES,
                                    None, timer)
        finally:
            service.shutdown()
            shutil.rmtree(results_dir, ignore_errors=True)
        return OpResult(
            wall=open_loop.wall + burst.wall,
            values={"throughput_rps": len(burst.handles) / burst.wall},
            samples={"latency_s": open_loop.latencies,
                     "latency_factor": open_loop.factors,
                     "rates": burst.rates,
                     "late_s": open_loop.lateness,
                     "open_loop": open_loop,
                     "metrics": service.metrics.as_dict()},
            failures=self._check(trace, open_loop, burst),
        )

    def warmup(self) -> OpResult:
        return self._op(self.trace[:SERVE_WARMUP_REQUESTS],
                        self.schedule[:SERVE_WARMUP_REQUESTS])

    def op(self) -> OpResult:
        return self._op(self.trace, self.schedule)

    def ledger(self) -> Ledger:
        with self.recorder.span("serve/untraced-op"), self.recorder.paused():
            untraced = self.op()
        timer = CallTimer()
        with self.recorder.span("serve/traced-op"):
            traced = self._op(self.trace, self.schedule, timer)
        export = traced.samples["metrics"]
        dispatch = []
        for handle in traced.samples["open_loop"].handles:
            if handle.origin != EXECUTED:
                continue
            parts = [gauge_sum(handle.wait(timeout=0).metrics, name)
                     for name in ("executor.wall_seconds",
                                  "kernel.prepare_seconds",
                                  "kernel.execute_seconds")]
            if None not in parts:
                dispatch.append(parts[0] - parts[1] - parts[2])
        counts = {name: counter_total(export, f"serve.{name}")
                  for name in ("executed", "coalesced", "cache_hits",
                               "rejected")}
        distinct = len({job_digest(job) for job in self.trace})
        duplicates = (SERVE_BURST_PASSES + 1) * len(self.trace) - distinct
        late = traced.samples["late_s"]
        metrics = {
            "serve.submit_s": timer.per_call("submit"),
            "serve.load_s": timer.per_call("load_hit"),
            "serve.save_s": timer.per_call("save"),
            "serve.queue_wait_s": histogram_mean(export,
                                                 "serve.queue_wait_seconds"),
            "serve.execute_s": histogram_mean(export, "serve.execute_seconds"),
            "harness.serve.dispatch_s": mean(dispatch),
            **{f"serve.{name}": value for name, value in counts.items()},
            "serve.dedup_ratio": (counts["cache_hits"] + counts["coalesced"])
            / duplicates,
            "serve.late_ms": 1000.0 * sum(late) / len(late),
        }
        return Ledger(metrics=metrics, traced_wall=traced.wall,
                      untraced_wall=untraced.wall,
                      failures=untraced.failures + traced.failures)


WORKLOADS = {cls.name: cls for cls in (Characterize, Sweep, Serve)}
