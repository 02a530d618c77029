"""Outside-in layer timers: wrappers around the program's public seams.

Nothing here patches the program.  Each timer sits at a seam the
program already offers and times the calls that cross it:

* :class:`TimedProbe` — a delegating ``MachineProbe`` handed to
  ``Kernel.run(probe=...)``.  It forwards all eleven probe entry points
  to a ``TraceMachine`` and accumulates the time spent inside them
  (µarch ingestion), the exact call count and the events per call.
* :class:`TimedArtifactStore` — an ``ArtifactStore`` subclass for
  ``use_store(...)`` that times ``fetch`` and ``fetch_derived``
  (outermost calls only: a derivation that loads its corpus counts once).
* :class:`TimedResultStore` — a ``ShardedResultStore`` subclass for the
  ``store=`` argument of ``run_suite``, ``run_sweep`` and
  ``BenchService`` that times every ``load`` and ``save``.
* :class:`SpanRecorder` — the benchmark's own span log.  Spans stay in
  memory and are written once, as Chrome trace-event JSON, when the
  traced run ends; :meth:`SpanRecorder.self_times` gives each span
  name's self time (its duration minus what its child spans cover).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.data import ArtifactStore
from repro.serve.shards import ShardedResultStore
from repro.uarch.events import MachineProbe

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans with parent links, one stack per thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self.origin = _clock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Record *name* around the block; yields the (mutable) record."""
        record = {"name": name, "args": dict(attrs)}
        if not self.enabled:
            yield record
            return
        stack = self._stack()
        with self._lock:
            record["id"] = self._next_id
            self._next_id += 1
        record["parent"] = stack[-1] if stack else 0
        record["tid"] = threading.get_ident()
        stack.append(record["id"])
        start = _clock()
        try:
            yield record
        finally:
            record["ts"] = start - self.origin
            record["dur"] = _clock() - start
            stack.pop()
            with self._lock:
                self.records.append(record)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (an untraced reference op)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of
        that interval its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.records:
            child_time[record["parent"]] += record["dur"]
        totals: dict[str, float] = defaultdict(float)
        for record in self.records:
            totals[record["name"]] += record["dur"] - child_time[record["id"]]
        return dict(totals)

    def write_chrome_trace(self, path: Path) -> Path:
        """Write every span as a complete ("X") trace event."""
        pid = os.getpid()
        events = [
            {"name": r["name"], "ph": "X", "cat": "perfbench",
             "ts": r["ts"] * 1e6, "dur": r["dur"] * 1e6,
             "pid": pid, "tid": r["tid"],
             "args": {**r["args"], "id": r["id"], "parent": r["parent"]}}
            for r in sorted(self.records, key=lambda r: r["ts"])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path


class CallTimer:
    """Per-label call count and total seconds, safe across threads."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def add(self, label: str, seconds: float) -> None:
        with self._lock:
            self.calls[label] += 1
            self.seconds[label] += seconds

    def per_call(self, label: str) -> float | None:
        """Mean seconds per call, or ``None`` when never called."""
        calls = self.calls.get(label, 0)
        return self.seconds[label] / calls if calls else None


class TimedProbe(MachineProbe):
    """Forwards every probe entry point to *inner*, timing each call.

    ``seconds`` is the self time inside the inner probe, ``calls``
    the exact number of entry-point calls and ``events`` the number
    of events those calls carried.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.calls = 0
        self.events = 0

    def _account(self, started: float, events: int) -> None:
        self.seconds += _clock() - started
        self.calls += 1
        self.events += events

    def alu(self, op_class, count=1, dependent=False):
        started = _clock()
        self.inner.alu(op_class, count, dependent)
        self._account(started, count)

    def load(self, address, size=8):
        started = _clock()
        self.inner.load(address, size)
        self._account(started, 1)

    def store(self, address, size=8):
        started = _clock()
        self.inner.store(address, size)
        self._account(started, 1)

    def branch(self, site, taken):
        started = _clock()
        self.inner.branch(site, taken)
        self._account(started, 1)

    def branch_run(self, site, taken_count):
        started = _clock()
        self.inner.branch_run(site, taken_count)
        self._account(started, taken_count + 1)

    def branch_bulk(self, site, taken_count):
        started = _clock()
        self.inner.branch_bulk(site, taken_count)
        self._account(started, taken_count)

    def load_block(self, addresses, size=8):
        started = _clock()
        self.inner.load_block(addresses, size)
        self._account(started, len(addresses))

    def store_block(self, addresses, size=8):
        started = _clock()
        self.inner.store_block(addresses, size)
        self._account(started, len(addresses))

    def branch_trace(self, site, outcomes):
        started = _clock()
        self.inner.branch_trace(site, outcomes)
        self._account(started, len(outcomes))

    def alu_bulk(self, op_class, count, dependent_count=0):
        started = _clock()
        self.inner.alu_bulk(op_class, count, dependent_count)
        self._account(started, count)

    def touch_region(self, address, size, stride=64):
        started = _clock()
        self.inner.touch_region(address, size, stride)
        self._account(started, -(-size // stride))


class TimedArtifactStore(ArtifactStore):
    """Times outermost ``fetch``/``fetch_derived`` calls into *timer*
    under ``self.label`` (the ledger sets it to the kernel it prepares)."""

    def __init__(self, root: Path, timer: CallTimer) -> None:
        super().__init__(root)
        self.timer = timer
        self.label = "-"
        self._depth = threading.local()

    def _timed(self, method, *args, **kwargs):
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        started = _clock()
        try:
            return method(*args, **kwargs)
        finally:
            self._depth.value = depth
            if depth == 0:
                self.timer.add(self.label, _clock() - started)

    def fetch(self, spec):
        return self._timed(super().fetch, spec)

    def fetch_derived(self, spec, name, **params):
        return self._timed(super().fetch_derived, spec, name, **params)


class TimedResultStore(ShardedResultStore):
    """Times every ``load`` (as ``load_hit``/``load_miss``) and ``save``
    into *timer*, each inside a ``<layer>/load|save`` span."""

    def __init__(self, root: Path, timer: CallTimer,
                 recorder: SpanRecorder, layer: str) -> None:
        super().__init__(root)
        self.timer = timer
        self.recorder = recorder
        self.layer = layer

    def load(self, job):
        with self.recorder.span(f"{self.layer}/load") as record:
            started = _clock()
            report = super().load(job)
            elapsed = _clock() - started
            record["args"]["hit"] = report is not None
        self.timer.add("load_hit" if report is not None else "load_miss",
                       elapsed)
        return report

    def save(self, job, report):
        with self.recorder.span(f"{self.layer}/save"):
            started = _clock()
            path = super().save(job, report)
            elapsed = _clock() - started
        self.timer.add("save", elapsed)
        return path
