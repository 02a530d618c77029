"""Lockstep GSSW: a batch of alignments advanced one DP column per step.

Three guarantees: the closed-form lazy-F pass equals Farrar's segment
loop exactly; a heterogeneous batch equals aligning each pair alone,
result for result and probe call for probe call; and the gssw kernel's
whole ``MachineSummary`` is pinned to golden values.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.gssw import GSSW, align_batch, graph_smith_waterman_scalar
from repro.align.scoring import VG_DEFAULT, AffineScoring
from repro.align.smith_waterman import lazy_f, lazy_f_trace
from repro.graph.model import SequenceGraph
from repro.graph.ops import local_subgraph
from repro.kernels import create_kernel
from repro.uarch.events import MachineProbe, OpClass
from repro.uarch.machine import TraceMachine

_NEG_INF = -(10**9)


def _segment_loop(h, f, open_cost, extend_cost):
    """The scalar backends' lazy-F loop on one ``(seg, lanes)`` column."""
    seg, lanes = h.shape
    h = h.copy()
    outcomes = []
    alu = 0
    for _ in range(lanes):
        f = np.concatenate(([np.int64(_NEG_INF)], f[:-1]))
        alu += 1
        for segment in range(seg):
            np.maximum(h[segment], f, out=h[segment])
            threshold = h[segment] - open_cost
            f = f - extend_cost
            alu += 4
            going = bool((f > threshold).any())
            outcomes.append(going)
            if not going:
                return h, outcomes, alu
    return h, outcomes, alu


def _check_against_loop(h, f, open_cost, extend_cost):
    """Closed form vs loop on a batch; returns the passes per column."""
    batch, seg, lanes = h.shape
    expected = [_segment_loop(h[b], f[b], open_cost, extend_cost)
                for b in range(batch)]
    closed = h.copy()
    stops = lazy_f(closed, f.copy(), open_cost, extend_cost)
    steps, outcomes, alu = lazy_f_trace(stops, seg, lanes)
    for b, (h_loop, outcomes_loop, _) in enumerate(expected):
        assert np.array_equal(closed[b], h_loop)
        assert steps[b] == len(outcomes_loop)
    assert outcomes.tolist() == [o for _, col, _ in expected for o in col]
    assert alu == sum(count for _, _, count in expected)
    return (steps - 1) // seg + 1


class TestClosedFormLazyF:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch=st.integers(min_value=1, max_value=5),
        seg=st.integers(min_value=1, max_value=20),
        lanes=st.integers(min_value=2, max_value=16),
        gap_open=st.integers(min_value=0, max_value=8),
        extend=st.integers(min_value=0, max_value=4),
        f_top=st.sampled_from([0, 50, 400, 5000]),
        floor=st.sampled_from([0, -(10**12)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_segment_loop(self, seed, batch, seg, lanes, gap_open,
                                 extend, f_top, floor):
        """Random H, F and scoring; ``floor`` far below ``-inf`` makes
        columns that never stop, a large ``f_top`` ones that need many
        passes."""
        rng = np.random.default_rng(seed)
        h = floor + rng.integers(0, 200, size=(batch, seg, lanes))
        f = rng.integers(-300, f_top + 1, size=(batch, lanes))
        f[rng.random((batch, lanes)) < 0.2] = _NEG_INF
        _check_against_loop(h, f, gap_open + extend, extend)

    @pytest.mark.parametrize("lanes", [2, 8, 16])
    @pytest.mark.parametrize("seg", [1, 3, 19])
    def test_every_pass_count_and_never_stopping(self, seg, lanes):
        """Column ``p`` needs exactly ``p`` passes (F entering lane 0
        reaches just far enough); the last column never stops."""
        open_cost = VG_DEFAULT.gap_open + VG_DEFAULT.gap_extend
        slack = open_cost - VG_DEFAULT.gap_extend
        h = np.zeros((lanes + 1, seg, lanes), dtype=np.int64)
        f = np.full((lanes + 1, lanes), -1000, dtype=np.int64)
        for passes in range(1, lanes + 1):
            f[passes - 1, 0] = (passes - 1) * seg - slack
        h[lanes] = -(10**12)
        got = _check_against_loop(h, f, open_cost, VG_DEFAULT.gap_extend)
        assert got.tolist() == list(range(1, lanes + 1)) + [lanes]


class _Recorder(MachineProbe):
    """Records every probe call with its arguments as plain values."""

    def __init__(self):
        self.calls = []

    def _record(self, name, *args):
        self.calls.append((name,) + tuple(
            np.asarray(arg).tolist() if isinstance(arg, (list, np.ndarray))
            else arg for arg in args))

    def alu(self, op_class, count=1, dependent=False):
        self._record("alu", op_class, count, dependent)

    def load(self, address, size=8):
        self._record("load", address, size)

    def store(self, address, size=8):
        self._record("store", address, size)

    def branch(self, site, taken):
        self._record("branch", site, taken)

    def branch_run(self, site, taken_count):
        self._record("branch_run", site, taken_count)

    def branch_bulk(self, site, taken_count):
        self._record("branch_bulk", site, taken_count)

    def load_block(self, addresses, size=8):
        self._record("load_block", addresses, size)

    def store_block(self, addresses, size=8):
        self._record("store_block", addresses, size)

    def branch_trace(self, site, outcomes):
        self._record("branch_trace", site, outcomes)

    def alu_bulk(self, op_class, count, dependent_count=0):
        self._record("alu_bulk", op_class, count, dependent_count)

    def touch_region(self, address, size, stride=64):
        self._record("touch_region", address, size, stride)


def _single_node_graph():
    graph = SequenceGraph()
    graph.add_node(1, "ACGTTGCAACGTAGGCTA")
    return graph


@pytest.fixture(scope="module")
def mixed_batch(small_graph_pangenome):
    """(query, subgraph, backend) items like the kernel's and beyond:
    149/150 bp reads, short queries of several segment lengths, one
    shorter than the lane count, a single-node subgraph, and a scalar
    backend pair in the middle of the batch."""
    gp = small_graph_pangenome
    reference = gp.reference.sequence
    rng = random.Random(3)
    node_ids = sorted(gp.graph.node_ids())
    items = []
    for length in (150, 149, 150, 149, 40, 17, 3, 90, 150):
        node = node_ids[rng.randrange(len(node_ids))]
        subgraph = local_subgraph(gp.graph, node,
                                  radius_bp=rng.randrange(120, 320),
                                  acyclic=True)
        start = rng.randrange(len(reference) - length)
        items.append((reference[start:start + length], subgraph, "vectorized"))
    items.insert(3, (reference[100:250], _single_node_graph(), "vectorized"))
    items.insert(6, (reference[500:620], items[0][1], "scalar"))
    items.append(("GATTACA", _single_node_graph(), "vectorized"))
    return items


def _aligners(items, probe):
    return [(GSSW(query, VG_DEFAULT, probe=probe, backend=backend), subgraph)
            for query, subgraph, backend in items]


class TestLockstepBatch:
    def test_batch_shapes_are_heterogeneous(self, mixed_batch):
        aligners = _aligners(mixed_batch, _Recorder())
        segments = {aligner.segment_length for aligner, _ in aligners}
        assert len(segments) >= 4
        assert any(len(aligner.query) < aligner.lanes for aligner, _ in aligners)
        assert any(graph.node_count == 1 for _, graph in aligners)

    def test_batch_equals_each_pair_alone(self, mixed_batch):
        together = _Recorder()
        batched = align_batch(_aligners(mixed_batch, together))
        alone = _Recorder()
        singles = [aligner.align(graph)
                   for aligner, graph in _aligners(mixed_batch, alone)]
        assert batched == singles
        assert together.calls == alone.calls

    def test_batch_matches_scalar_backend_and_oracle(self, mixed_batch):
        """Same results and same op totals as the scalar reference loop."""
        fast, slow = TraceMachine(), TraceMachine()
        batched = align_batch(_aligners(mixed_batch, fast))
        scalar_items = [(q, g, "scalar") for q, g, _ in mixed_batch]
        reference = align_batch(_aligners(scalar_items, slow))
        assert batched == reference
        fast_summary, slow_summary = fast.summary(), slow.summary()
        assert fast_summary.op_counts == slow_summary.op_counts
        assert fast_summary.branch_stats == slow_summary.branch_stats
        for (query, subgraph, _), result in zip(mixed_batch, batched):
            oracle = graph_smith_waterman_scalar(query, subgraph, VG_DEFAULT)
            assert result.score == oracle.score

    def test_separate_groups_per_gap_cost(self, mixed_batch):
        """Aligners with different gap costs run as separate groups."""
        other = AffineScoring(match=2, mismatch=3, gap_open=4, gap_extend=2)
        query, subgraph, _ = mixed_batch[0]
        pairs = [(GSSW(query, VG_DEFAULT), subgraph),
                 (GSSW(query, other), subgraph)]
        batched = align_batch(pairs)
        assert batched[0] == GSSW(query, VG_DEFAULT).align(subgraph)
        assert batched[1] == GSSW(query, other).align(subgraph)
        assert batched[1].score == graph_smith_waterman_scalar(
            query, subgraph, other).score


#: The gssw kernel at scale 0.05, seed 0, on the default machine, as the
#: per-alignment path measured it before the lockstep.
_GOLDEN_SUMMARY = {
    "op_counts": {"vector_alu": 2975763, "vector_fp": 0, "scalar_alu": 0,
                  "scalar_muldiv": 0, "load": 266420, "store": 1941408,
                  "branch": 122007, "register": 0, "nop": 0},
    "load_level_counts": {1: 259541, 2: 6281, 3: 90, 4: 508},
    "store_level_counts": {1: 1880317, 2: 51283, 3: 301, 4: 9507},
    "branch_stats": (122007, 10436, 99063),
    "dependent_latency_cycles": 2460120.0,
    "misses": (67970, 10406, 10015),
}
_GOLDEN_WORK = {"dp_cells": 1941408.0, "score_total": 2952.0,
                "mean_subgraph_bases": 647.4}


def test_gssw_kernel_summary_is_golden():
    kernel = create_kernel("gssw", scale=0.05, seed=0)
    machine = TraceMachine()
    result = kernel.run(machine)
    summary = machine.summary()
    assert result.work == _GOLDEN_WORK
    assert {op.value: count for op, count in summary.op_counts.items()} \
        == _GOLDEN_SUMMARY["op_counts"]
    assert summary.load_level_counts == _GOLDEN_SUMMARY["load_level_counts"]
    assert summary.store_level_counts == _GOLDEN_SUMMARY["store_level_counts"]
    stats = summary.branch_stats
    assert (stats.branches, stats.mispredictions, stats.taken) \
        == _GOLDEN_SUMMARY["branch_stats"]
    assert summary.dependent_latency_cycles \
        == _GOLDEN_SUMMARY["dependent_latency_cycles"]
    assert (summary.l1_misses, summary.l2_misses, summary.l3_misses) \
        == _GOLDEN_SUMMARY["misses"]
    assert set(summary.op_counts) == set(OpClass)
