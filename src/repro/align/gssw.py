"""GSSW: graph SIMD Smith–Waterman (Zhao et al., used by vg map).

Aligns a short query to an *acyclic* subgraph extracted around seed hits.
Inside a node the computation is striped SIMD Smith–Waterman; at node
entry the H and E columns are seeded with the element-wise maximum over
the node's parents' final columns (Figure 4a's red arrows) — exact,
because max distributes over the affine-gap recurrences.

The paper's two key GSSW observations are both modelled here:

* the algorithm alternates dense SIMD regions with indirect graph
  accesses (the parent-merge), and
* unlike linear SSW it keeps *every* node's full DP matrix live and
  performs swizzle writes from packed SIMD buffers into it
  (``store_full_matrix``), the source of its ~3x memory stalls in the
  Figure 10 case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.align.scoring import AffineScoring, VG_DEFAULT
from repro.align.smith_waterman import lazy_f, lazy_f_trace
from repro.backends import (
    SCALAR,
    VECTORIZED,
    check_backend,
    report_backend_fallback,
)
from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.graph.ops import topological_sort
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass

_NEG_INF = -(10**9)


@dataclass(frozen=True)
class GraphAlignmentResult:
    """Best local alignment of a query into a graph."""

    score: int
    end_node: int
    end_offset: int
    query_end: int
    cells_computed: int


def graph_smith_waterman_scalar(
    query: str,
    graph: SequenceGraph,
    scoring: AffineScoring = VG_DEFAULT,
) -> GraphAlignmentResult:
    """Scalar affine-gap local alignment to a DAG.  Correctness oracle."""
    if not query:
        raise AlignmentError("empty query")
    order = topological_sort(graph)
    m = len(query)
    open_cost = scoring.gap_open + scoring.gap_extend
    extend_cost = scoring.gap_extend

    final_h: dict[int, np.ndarray] = {}
    final_e: dict[int, np.ndarray] = {}
    best = 0
    best_node = best_offset = best_q = 0
    cells = 0
    for node_id in order:
        node = graph.node(node_id)
        parents = graph.predecessors(node_id)
        if parents:
            h_prev = np.maximum.reduce([final_h[p] for p in parents])
            e_prev = np.maximum.reduce([final_e[p] for p in parents])
        else:
            h_prev = np.zeros(m + 1, dtype=np.int64)
            e_prev = np.full(m + 1, _NEG_INF, dtype=np.int64)
        for offset, base in enumerate(node.sequence):
            h_curr = np.zeros(m + 1, dtype=np.int64)
            e_curr = np.full(m + 1, _NEG_INF, dtype=np.int64)
            f = _NEG_INF
            for i in range(1, m + 1):
                e_curr[i] = max(h_prev[i] - open_cost, e_prev[i] - extend_cost)
                f = max(h_curr[i - 1] - open_cost, f - extend_cost)
                diag = h_prev[i - 1] + scoring.substitution(query[i - 1], base)
                h = max(0, diag, e_curr[i], f)
                h_curr[i] = h
                if h > best:
                    best, best_node, best_offset, best_q = h, node_id, offset, i
            h_prev, e_prev = h_curr, e_curr
            cells += m
        final_h[node_id] = h_prev
        final_e[node_id] = e_prev
    return GraphAlignmentResult(
        score=int(best),
        end_node=best_node,
        end_offset=best_offset,
        query_end=best_q,
        cells_computed=cells,
    )


class GSSW:
    """Striped graph Smith–Waterman with a reusable query profile.

    Args:
        query: Query sequence (a read fragment, ~150 bp in the paper).
        scoring: Affine scheme (vg's 1/4/6/1 by default).
        lanes: SIMD lanes per vector word.
        probe: Optional machine probe.
        store_full_matrix: Model GSSW's full-matrix swizzle writes (on by
            default; linear SSW's two-column working set is the off case).
    """

    LANE_BYTES = 2

    def __init__(
        self,
        query: str,
        scoring: AffineScoring = VG_DEFAULT,
        lanes: int = 8,
        probe: MachineProbe = NULL_PROBE,
        store_full_matrix: bool = True,
        address_space: AddressSpace | None = None,
        backend: str = VECTORIZED,
    ) -> None:
        if not query:
            raise AlignmentError("empty query")
        if lanes < 2:
            raise AlignmentError("need at least 2 SIMD lanes")
        self.query = query
        self.scoring = scoring
        self.lanes = lanes
        self.probe = probe
        self.store_full_matrix = store_full_matrix
        self.segment_length = (len(query) + lanes - 1) // lanes
        self._space = address_space or AddressSpace()
        self._word_bytes = lanes * self.LANE_BYTES
        self._profile_base = self._space.alloc(4 * self.segment_length * self._word_bytes)
        self._graph_base = self._space.alloc(1 << 16)
        self._profile = self._build_profile()
        # Per-column striped-row addresses and swizzle scatter offsets are
        # the same for every column; precompute them once for block emission.
        self._profile_row = self._profile_base + self._word_bytes * np.arange(
            self.segment_length, dtype=np.int64
        )
        # Lane l / segment s holds query position l*seg + s, so walking
        # lanes then segments visits query positions 0..len(query)-1.
        self._swizzle_positions = np.arange(len(query), dtype=np.int64)
        # The vectorized column needs open >= extend so that the lazy-F
        # recurrence collapses to a max-plus prefix scan; an incompatible
        # scheme downgrades to the scalar reference and says so on the
        # kernel.backend_fallback counter.
        check_backend(backend, (SCALAR, VECTORIZED), "GSSW", AlignmentError)
        self.backend = backend
        open_cost = scoring.gap_open + scoring.gap_extend
        self.vectorize = (backend == VECTORIZED
                          and open_cost >= scoring.gap_extend)
        if backend == VECTORIZED and not self.vectorize:
            self.backend = SCALAR
            report_backend_fallback("gssw", requested=VECTORIZED,
                                    actual=SCALAR,
                                    reason="scoring-incompatible")

    def _build_profile(self) -> dict[str, np.ndarray]:
        seg = self.segment_length
        profile: dict[str, np.ndarray] = {}
        for base in "ACGT":
            matrix = np.zeros((seg, self.lanes), dtype=np.int64)
            for lane in range(self.lanes):
                for segment in range(seg):
                    position = lane * seg + segment
                    if position < len(self.query):
                        matrix[segment, lane] = self.scoring.substitution(
                            self.query[position], base
                        )
            profile[base] = matrix
        return profile

    def align(self, graph: SequenceGraph) -> GraphAlignmentResult:
        """Local-align the query to an acyclic *graph*.

        A batch of one: see :func:`align_batch`, whose results and probe
        stream equal those of aligning each pair alone.
        """
        return align_batch([(self, graph)])[0]

    def _align_reference(self, graph: SequenceGraph) -> GraphAlignmentResult:
        """Scalar-loop reference with per-column probe emission.

        Kept verbatim as the differential-test oracle for the batched
        path: identical results, op totals and branch streams.
        """
        order = topological_sort(graph)
        seg = self.segment_length
        probe = self.probe
        open_cost = self.scoring.gap_open + self.scoring.gap_extend
        extend_cost = self.scoring.gap_extend

        final_h: dict[int, np.ndarray] = {}
        final_e: dict[int, np.ndarray] = {}
        matrix_base: dict[int, int] = {}
        best = 0
        best_node = best_offset = best_q = 0
        cells = 0
        improved_flags: list[bool] = []
        lazyf_branches: list[bool] = []
        lazyf_alu = [0]

        for node_id in order:
            node = graph.node(node_id)
            parents = graph.predecessors(node_id)
            # Node initialization: indirect graph accesses to each parent's
            # stored final column (the non-SIMD phase the paper describes).
            if parents:
                probe.load(self._graph_base + node_id * 64, 16)  # adjacency
                h_cols = []
                e_cols = []
                for parent in parents:
                    probe.touch_region(matrix_base[parent], seg * self._word_bytes)
                    h_cols.append(final_h[parent])
                    e_cols.append(final_e[parent])
                h_prev = np.maximum.reduce(h_cols)
                e_prev = np.maximum.reduce(e_cols)
                probe.alu(OpClass.VECTOR_ALU, 2 * len(parents) * seg)
            else:
                h_prev = np.zeros((seg, self.lanes), dtype=np.int64)
                e_prev = np.full((seg, self.lanes), _NEG_INF, dtype=np.int64)
            base_address = self._space.alloc(len(node) * seg * self._word_bytes)
            matrix_base[node_id] = base_address

            h_store = h_prev
            e = e_prev
            sequence_base = self._space.alloc(len(node))
            probe.load_block(
                sequence_base + np.arange(len(node), dtype=np.int64), 1
            )
            row_stride = len(node) * self.LANE_BYTES
            swizzle_rows = base_address + self._swizzle_positions * row_stride
            for offset, base in enumerate(node.sequence):
                h_store, e = self._column(
                    h_store, e, self._profile.get(base, self._profile["A"]),
                    open_cost, extend_cost,
                    first=(offset == 0 and not parents),
                    lazyf_branches=lazyf_branches,
                    lazyf_alu=lazyf_alu,
                )
                cells += len(self.query)
                if self.store_full_matrix:
                    # Scatter the packed column into the row-major node
                    # matrix: consecutive stores stride by the node length —
                    # the poor-locality writeback VTune blames for GSSW's
                    # memory stalls.
                    probe.store_block(
                        swizzle_rows + offset * self.LANE_BYTES, self.LANE_BYTES
                    )
                column_best = int(h_store.max())
                improved = column_best > best
                improved_flags.append(improved)
                if improved:
                    best = column_best
                    best_node = node_id
                    best_offset = offset
                    segment, lane = np.unravel_index(
                        int(h_store.argmax()), h_store.shape
                    )
                    best_q = int(lane) * seg + int(segment) + 1
            final_h[node_id] = h_store
            final_e[node_id] = e
        probe.branch_trace(11, lazyf_branches)
        probe.alu_bulk(OpClass.VECTOR_ALU, lazyf_alu[0])
        probe.branch_trace(10, improved_flags)
        return GraphAlignmentResult(
            score=int(best),
            end_node=best_node,
            end_offset=best_offset,
            query_end=best_q,
            cells_computed=cells,
        )

    def _column(
        self,
        h_prev: np.ndarray,
        e_prev: np.ndarray,
        profile: np.ndarray,
        open_cost: int,
        extend_cost: int,
        first: bool,
        lazyf_branches: list[bool],
        lazyf_alu: list[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One striped SW column given the previous column (striped layout).

        Lazy-F's data-dependent exit branches and vector-op counts are
        accumulated into the caller's lists and flushed as one block per
        :meth:`align` call.
        """
        seg = self.segment_length
        probe = self.probe
        h_store = np.zeros((seg, self.lanes), dtype=np.int64)
        e = np.empty((seg, self.lanes), dtype=np.int64)

        h = np.empty(self.lanes, dtype=np.int64)
        h[0] = 0
        h[1:] = h_prev[seg - 1, : self.lanes - 1]
        f = np.full(self.lanes, _NEG_INF, dtype=np.int64)

        for segment in range(seg):
            h = h + profile[segment]
            np.maximum(h, e_prev_col(e_prev, segment, open_cost, extend_cost, h_prev), out=h)
            np.maximum(h, f, out=h)
            np.maximum(h, 0, out=h)
            h_store[segment] = h
            e[segment] = np.maximum(h_prev[segment] - open_cost, e_prev[segment] - extend_cost)
            f = np.maximum(h - open_cost, f - extend_cost)
            h = h_prev[segment].copy()
        probe.load_block(self._profile_row, self._word_bytes)
        # 1 lane shift + 10 dependent vector ops per segment.
        probe.alu(OpClass.VECTOR_ALU, 10 * seg, dependent=True)
        probe.alu(OpClass.VECTOR_ALU, 1)

        done = False
        for _ in range(self.lanes):
            f = np.concatenate(([np.int64(_NEG_INF)], f[:-1]))
            lazyf_alu[0] += 1
            for segment in range(seg):
                np.maximum(h_store[segment], f, out=h_store[segment])
                threshold = h_store[segment] - open_cost
                f = f - extend_cost
                lazyf_alu[0] += 4
                continuing = bool((f > threshold).any())
                lazyf_branches.append(continuing)
                if not continuing:
                    done = True
                    break
            if done:
                break
        return h_store, e


def e_prev_col(
    e_prev: np.ndarray,
    segment: int,
    open_cost: int,
    extend_cost: int,
    h_prev: np.ndarray,
) -> np.ndarray:
    """Current-column E for *segment*: gap opened or extended from the left."""
    return np.maximum(h_prev[segment] - open_cost, e_prev[segment] - extend_cost)


#: Query-profile row per byte of a node label; ``N`` (anything but
#: ``ACGT``) scores against the profile of ``A``, as the reference does.
_PROFILE_ROW = np.zeros(256, dtype=np.intp)
_PROFILE_ROW[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4)


def align_batch(
    pairs: Sequence[tuple[GSSW, SequenceGraph]],
) -> list[GraphAlignmentResult]:
    """Align every ``(aligner, graph)`` pair; vectorized ones in lockstep.

    Vectorized aligners with the same striped shape and gap costs
    advance together, one DP column of each per step on
    ``(batch, seg, lanes)`` arrays, recording only per-column scalars.
    Afterwards each pair emits its probe events in item order: the same
    calls and arrays as aligning it alone.  So the results and the probe
    stream equal ``[aligner.align(graph) for aligner, graph in pairs]``;
    a scalar-backend pair runs the reference loop at its place in that
    order.
    """
    plans = [_Alignment(aligner, graph) if aligner.vectorize else None
             for aligner, graph in pairs]
    groups: dict[tuple[int, int, int, int], list[_Alignment]] = {}
    for plan in plans:
        if plan is not None:
            aligner = plan.aligner
            key = (aligner.segment_length, aligner.lanes,
                   aligner.scoring.gap_open, aligner.scoring.gap_extend)
            groups.setdefault(key, []).append(plan)
    for group in groups.values():
        _lockstep(group)
    return [aligner._align_reference(graph) if plan is None else plan.emit()
            for (aligner, graph), plan in zip(pairs, plans)]


class _Alignment:
    """One pair of a lockstep batch: its column plan, the node columns
    its children merge, and the per-column scalars it emits from."""

    def __init__(self, aligner: GSSW, graph: SequenceGraph) -> None:
        self.aligner = aligner
        self.order = topological_sort(graph)
        self.nodes = [graph.node(node_id) for node_id in self.order]
        self.parents = [graph.predecessors(node_id) for node_id in self.order]
        self.ends = np.cumsum([len(node) for node in self.nodes],
                              dtype=np.int64)
        self.columns = int(self.ends[-1]) if self.nodes else 0
        labels = "".join(node.sequence for node in self.nodes)
        self.bases = _PROFILE_ROW[np.frombuffer(labels.encode("ascii"),
                                                dtype=np.uint8)]
        self.final: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.entered = 0
        self.stops = np.zeros(0, dtype=np.int64)
        self.improved = np.zeros(0, dtype=bool)
        self.best = self.best_column = self.best_q = 0

    def enter(self, h: np.ndarray, e: np.ndarray, row: int) -> None:
        """Start the next node in row *row*: keep the finished node's
        final column and seed H and E with the max over the parents'."""
        k = self.entered
        if k:
            self.final[self.order[k - 1]] = (h[row].copy(), e[row].copy())
        parents = self.parents[k]
        if parents:
            h[row] = np.maximum.reduce([self.final[p][0] for p in parents])
            e[row] = np.maximum.reduce([self.final[p][1] for p in parents])
        else:
            h[row] = 0
            e[row] = _NEG_INF
        self.entered = k + 1

    def emit(self) -> GraphAlignmentResult:
        """Emit this alignment's event blocks and return its result."""
        aligner = self.aligner
        seg = aligner.segment_length
        probe = aligner.probe
        space = aligner._space
        word_bytes = aligner._word_bytes
        lane_bytes = aligner.LANE_BYTES
        region = seg * word_bytes
        touch_full = region // 64
        touch_tail = region - touch_full * 64
        touch_lines = 64 * np.arange(touch_full, dtype=np.int64)

        matrix_base: dict[int, int] = {}
        merge_alu = 0
        adj_addrs: list[int] = []
        touch_line_blocks: list[np.ndarray] = []
        touch_tail_addrs: list[int] = []
        seq_blocks: list[np.ndarray] = []
        store_blocks: list[np.ndarray] = []
        for node_id, node, parents in zip(self.order, self.nodes, self.parents):
            if parents:
                adj_addrs.append(aligner._graph_base + node_id * 64)
                for parent in parents:
                    base = matrix_base[parent]
                    if touch_full:
                        touch_line_blocks.append(base + touch_lines)
                    if touch_tail > 0:
                        touch_tail_addrs.append(base + touch_full * 64)
                merge_alu += 2 * len(parents) * seg
            base_address = space.alloc(len(node) * seg * word_bytes)
            matrix_base[node_id] = base_address
            sequence_base = space.alloc(len(node))
            seq_blocks.append(sequence_base + np.arange(len(node), dtype=np.int64))
            if aligner.store_full_matrix:
                swizzle_rows = (base_address + aligner._swizzle_positions
                                * (len(node) * lane_bytes))
                offsets = lane_bytes * np.arange(len(node), dtype=np.int64)
                store_blocks.append(np.add.outer(offsets, swizzle_rows).ravel())

        columns = self.columns
        _, lazyf_branches, lazyf_alu = lazy_f_trace(self.stops, seg,
                                                    aligner.lanes)
        if adj_addrs:
            probe.load_block(np.asarray(adj_addrs, dtype=np.int64), 16)
        if touch_line_blocks:
            probe.load_block(np.concatenate(touch_line_blocks), 64)
        if touch_tail_addrs:
            probe.load_block(np.asarray(touch_tail_addrs, dtype=np.int64),
                             touch_tail)
        if seq_blocks:
            probe.load_block(np.concatenate(seq_blocks), 1)
        if columns:
            probe.load_block(np.tile(aligner._profile_row, columns), word_bytes)
        if store_blocks:
            probe.store_block(np.concatenate(store_blocks), lane_bytes)
        probe.alu_bulk(
            OpClass.VECTOR_ALU,
            merge_alu + (10 * seg + 1) * columns + lazyf_alu,
            dependent_count=10 * seg * columns,
        )
        probe.branch_trace(11, lazyf_branches)
        probe.branch_trace(10, self.improved)

        best_node = best_offset = 0
        if self.best:
            k = int(np.searchsorted(self.ends, self.best_column, side="right"))
            best_node = self.order[k]
            best_offset = self.best_column - int(self.ends[k] - len(self.nodes[k]))
        return GraphAlignmentResult(
            score=self.best,
            end_node=best_node,
            end_offset=best_offset,
            query_end=self.best_q,
            cells_computed=len(aligner.query) * columns,
        )


def _lockstep(group: list[_Alignment]) -> None:
    """Advance every alignment of *group* one DP column per step.

    Rows are sorted longest-first, so the alignments still running are
    always a prefix of the batch.  Each step is the striped column as
    whole-array ops: ``c`` is a cell's F-independent part, and with
    ``open >= extend`` the in-column recurrence ``f[s+1] = max(h[s] -
    open, f[s] - extend)`` equals ``max(c[s] - open, f[s] - extend)``,
    which ``g[s] = f[s] + s*extend`` turns into a running maximum.  Then
    :func:`lazy_f` finishes the column and the running best is updated.
    """
    rows = sorted((plan for plan in group if plan.columns),
                  key=lambda plan: -plan.columns)
    if not rows:
        return
    aligner = rows[0].aligner
    seg, lanes = aligner.segment_length, aligner.lanes
    open_cost = aligner.scoring.gap_open + aligner.scoring.gap_extend
    extend_cost = aligner.scoring.gap_extend
    batch = len(rows)
    steps = rows[0].columns

    profiles = np.stack([[plan.aligner._profile[base] for base in "ACGT"]
                         for plan in rows])
    bases = np.zeros((steps, batch), dtype=np.intp)
    entries: list[list[int]] = [[] for _ in range(steps)]
    for row, plan in enumerate(rows):
        bases[:plan.columns, row] = plan.bases
        entries[0].append(row)
        for start in plan.ends[:-1].tolist():
            entries[start].append(row)
    row_ids = np.arange(batch)
    ramp = np.arange(seg + 1, dtype=np.int64)[:, None]
    scan_in = extend_cost * ramp[1:] - open_cost
    scan_out = extend_cost * ramp

    stops = np.zeros((steps, batch), dtype=np.int64)
    improved = np.zeros((steps, batch), dtype=bool)
    best = np.zeros(batch, dtype=np.int64)
    best_column = np.zeros(batch, dtype=np.int64)
    best_q = np.zeros(batch, dtype=np.int64)
    h = np.zeros((batch, seg, lanes), dtype=np.int64)
    e = np.full((batch, seg, lanes), _NEG_INF, dtype=np.int64)
    n = batch
    for t in range(steps):
        while rows[n - 1].columns <= t:
            n -= 1
        for row in entries[t]:
            rows[row].enter(h, e, row)
        h_prev = h[:n]
        e = np.maximum(h_prev - open_cost, e[:n] - extend_cost)
        c = profiles[row_ids[:n], bases[t, :n]]
        c[:, 1:] += h_prev[:, :-1]
        c[:, 0, 1:] += h_prev[:, seg - 1, :-1]
        np.maximum(c, e, out=c)
        np.maximum(c, 0, out=c)
        g = np.empty((n, seg + 1, lanes), dtype=np.int64)
        g[:, 0] = _NEG_INF
        np.add(c, scan_in, out=g[:, 1:])
        np.maximum.accumulate(g, axis=1, out=g)
        g -= scan_out
        h = np.maximum(c, g[:, :seg])
        stops[t, :n] = lazy_f(h, g[:, seg], open_cost, extend_cost)
        column_best = h.reshape(n, -1).max(axis=1)
        better = column_best > best[:n]
        if better.any():
            improved[t, :n] = better
            won = np.flatnonzero(better)
            best[won] = column_best[won]
            best_column[won] = t
            flat = h[won].reshape(len(won), -1).argmax(axis=1)
            best_q[won] = (flat % lanes) * seg + flat // lanes + 1

    for row, plan in enumerate(rows):
        plan.stops = stops[:plan.columns, row]
        plan.improved = improved[:plan.columns, row]
        plan.best = int(best[row])
        plan.best_column = int(best_column[row])
        plan.best_q = int(best_q[row])
        plan.final.clear()


def gssw_align(
    query: str,
    graph: SequenceGraph,
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
) -> GraphAlignmentResult:
    """One-shot GSSW alignment (profile built per call)."""
    return GSSW(query, scoring, lanes=lanes, probe=probe).align(graph)
