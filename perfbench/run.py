"""PangenomicsBench repository benchmark: one command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload characterize --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload's op untraced for ``--seconds`` seconds
(after set-up and one untimed warm-up op) and prints the end-to-end
metrics, in seconds at nominal host speed: each set-up and op is
bracketed by a calibration loop that uses no program code, and its
times are scaled by ``CALIBRATION_NOMINAL_S / calibration``.  ``--trace 1`` runs the traced layer ledger of every workload,
starting with the named one, prints the per-layer metrics and the
tracing overhead, and writes the spans as Chrome trace-event JSON under
``perfbench/out/``.  Every run works in fresh stores under
``perfbench/.work/`` and removes them when it ends.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 2
#: The calibration loop's length, and its wall at nominal host speed.
CALIBRATION_ITERATIONS = 500_000
CALIBRATION_NOMINAL_S = 0.040
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("characterize", "sweep", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values: list) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest of
    :data:`TAIL_PERCENTILES` with at least ten samples beyond it
    (nearest rank), or ``None`` when the sample is too small."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * count)
        if rank >= 1 and count - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MiB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamp(args, workload) -> dict:
    import numpy
    import repro

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "input_digest": workload.input_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "package_version": repro.__version__, "git_sha": git_sha(),
        "cold": {"data_store": "fresh per set-up",
                 "data_memory_ring": "evicted before each op",
                 "result_store": "fresh per op (per phase on serve)"},
    }


def fmt(value, unit: str = "") -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return f"{value} {unit}".rstrip()
    return f"{value:.6g} {unit}".rstrip()


def declared_metrics() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def calibration_seconds() -> float:
    """Median wall of three runs of a fixed pure-Python loop that uses
    nothing from the program: the host's current speed."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value * value
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def bracketed(step):
    """Run *step* between two calibrations; returns its result and the
    factor that converts its seconds to seconds at nominal host speed."""
    before = calibration_seconds()
    result = step()
    after = calibration_seconds()
    return result, CALIBRATION_NOMINAL_S / ((before + after) / 2)


def measure(workload, seconds: float, failures: list) -> list:
    """Run ops until *seconds* have passed (at least :data:`MIN_OPS`);
    returns ``(op result, speed factor)`` pairs."""
    ops = []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - started < seconds:
        result, factor = bracketed(workload.op)
        failures.extend(result.failures)
        ops.append((result, factor))
    return ops


def untraced_run(args, workload, lines: list) -> tuple[dict, int, int, list]:
    failures: list[str] = []
    setups = [bracketed(workload.setup)
              for _ in range(workload.setup_repeats)]
    for finding in workload.validate():
        lines.append(f"  FINDING {finding}")
    warmup = workload.warmup()
    failures.extend(warmup.failures)
    ops = measure(workload, args.seconds, failures)
    failed = sum(1 for op in [warmup] + [op for op, _ in ops] if op.failures)

    def median(values) -> float:
        return statistics.median(list(values))

    walls = [op.wall * factor for op, factor in ops]
    report = {
        "setup_s": (median(t * f for t, f in setups), "s",
                    f"median of {len(setups)} set-ups; raw "
                    f"{median(t for t, _ in setups):.6g} s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "self and children"),
    }
    raw_wall = median(op.wall for op, _ in ops)
    if args.workload == "serve":
        # Serve scales each segment of requests by the hit-path
        # calibration run around it (workloads.HitPathCalibration).
        raw = [latency for op, _ in ops for latency in op.samples["latency_s"]]
        latencies = [latency * factor for op, _ in ops
                     for latency, factor in zip(op.samples["latency_s"],
                                                op.samples["latency_factor"])]
        rates = [rate for op, _ in ops for rate in op.samples["rates"]]
        late = [lag for op, _ in ops for lag in op.samples["late_s"]]
        high = tail(latencies)
        p50 = 1000.0 * median(latencies)
        rate = median(rates)
        factors = [f for op, _ in ops for f in op.samples["latency_factor"]]
        lines.append(f"  hit-path factor      {median(factors):.4f} "
                     "(median over phase A requests; serve timings below "
                     "are at nominal hit-path speed)")
        report.update({
            "p50_ms": (p50, "ms", f"phase A, n={len(latencies)} requests; "
                       f"raw {1000.0 * median(raw):.6g} ms"),
            (f"p{high[0]:g}_ms" if high else "p99_ms"): (
                1000.0 * high[1] if high else None, "ms",
                f"phase A, n={len(latencies)}"),
            "throughput_rps": (rate, "req/s",
                               f"phase B, median of {len(rates)} segments; "
                               f"raw {median(op.values['throughput_rps'] for op, _ in ops):.6g} req/s"),
            "generator_late_ms": (1000.0 * median(late), "ms",
                                  "median lateness of phase A sends, raw"),
        })
        metrics = {"p50_ms": p50, "rate_per_s": rate}
    elif args.workload == "sweep":
        cold = median(op.values["cold_points_per_s"] / factor
                      for op, factor in ops)
        warm = median(op.values["warm_points_per_s"] / factor
                      for op, factor in ops)
        report.update({
            "op_wall_ms": (1000.0 * median(walls), "ms",
                           f"cold+warm+aggregate, median of {len(ops)} ops; "
                           f"raw {1000.0 * raw_wall:.6g} ms"),
            "cold_points_per_s": (cold, "points/s", "median"),
            "warm_points_per_s": (warm, "points/s", "median"),
        })
        metrics = {"p50_ms": 1000.0 * median(walls), "rate_per_s": cold}
    else:
        rate = median(op.values["sim_instr_per_s"] / factor
                      for op, factor in ops)
        report.update({
            "char_wall_s": (median(walls), "s",
                            f"median of {len(ops)} ops; raw {raw_wall:.6g} s"),
            "sim_instr_per_s": (rate, "instr/s",
                                f"{ops[0][0].values['instructions']} "
                                "simulated instructions per op"),
        })
        metrics = {"p50_ms": 1000.0 * median(walls), "rate_per_s": rate}
    if args.workload != "serve":
        op_tail = tail(walls)
        report["op_tail"] = ((1000.0 * op_tail[1]) if op_tail else None, "ms",
                             f"p{op_tail[0]:g}" if op_tail else
                             f"needs >= 11 ops, have {len(ops)}")
    lines.append(f"  host speed factor    {median(f for _, f in ops):.4f} "
                 "(median over ops; timings below are at nominal speed)")
    for name, (value, unit, note) in report.items():
        lines.append(f"  {name:<20} {fmt(value, unit):<24} {note}")
    metrics["setup_s"] = report["setup_s"][0]
    metrics["peak_rss_mb"] = report["peak_rss_mb"][0]
    return metrics, 1 + len(ops), failed, failures


def traced_run(args, work: Path, lines: list) -> tuple[dict, int, int, list]:
    from layers import SpanRecorder
    from workloads import WORKLOADS

    recorder = SpanRecorder()
    order = [args.workload] + [name for name in WORKLOADS
                               if name != args.workload]
    metrics: dict = {}
    failures: list[str] = []
    failed = 0
    for name in order:
        workload = WORKLOADS[name](args.seed, work, recorder)
        try:
            with recorder.span(f"{name}/ledger"):
                workload.setup()
                ledger = workload.ledger()
        finally:
            workload.close()
        metrics.update(ledger.metrics)
        failures.extend(ledger.failures)
        failed += bool(ledger.failures)
        if ledger.untraced_wall is None:
            lines.append(f"  {name}: traced op {ledger.traced_wall:.4f} s, "
                         "untraced op absent, tracing overhead absent")
        else:
            overhead = ledger.traced_wall - ledger.untraced_wall
            lines.append(f"  {name}: traced op {ledger.traced_wall:.4f} s, "
                         f"untraced op {ledger.untraced_wall:.4f} s, tracing "
                         f"overhead {overhead:+.4f} s "
                         f"({overhead / ledger.untraced_wall:+.1%})")
        lines.extend(f"  {note}" for note in ledger.notes)
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    recorder.write_chrome_trace(out)
    lines.append(f"  chrome trace: {out.relative_to(ROOT)} "
                 f"({len(recorder.records)} spans)")
    lines.append("  span self time (top 12):")
    ranked = sorted(recorder.self_times().items(), key=lambda kv: -kv[1])
    lines.extend(f"    {name:<40} {seconds:.4f} s"
                 for name, seconds in ranked[:12])
    return metrics, 2 * len(order), failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401
        from layers import SpanRecorder
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    declared = declared_metrics()

    work = HERE / ".work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Nothing the program resolves by default may leave the scratch dir.
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    os.environ["REPRO_DATA_DIR"] = str(work / "default-data")
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-results")
    lines: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, work,
                                            SpanRecorder(enabled=False))
        header = stamp(args, workload)
        if args.trace:
            metrics, attempted, failed, failures = traced_run(args, work, lines)
            kind = "per_layer"
        else:
            metrics, attempted, failed, failures = untraced_run(
                args, workload, lines)
            kind = "end_to_end"
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared[kind]
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(set(metrics) ^ set(units))}"
                         " disagree with BENCHMARK.json")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp: " + json.dumps(header, sort_keys=True))
    for line in lines:
        print(line)
    print(f"  {kind} metrics:")
    for name in sorted(metrics):
        print(f"    {name:<36} {fmt(metrics[name], units[name])}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed if failed or not failures else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                    if value is not None},
    }
    record = HERE / "out" / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"stamp": header, "lines": lines,
                                  "failures": failures, **result}, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
