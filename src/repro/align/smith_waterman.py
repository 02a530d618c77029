"""Smith–Waterman local alignment: scalar reference and striped SIMD model.

The scalar version is the Gotoh affine-gap DP used as a correctness
oracle.  :class:`StripedSmithWaterman` models Farrar's striped algorithm
(the SSW library) the way the paper's SSW/GSSW kernels use it: the query
is laid out in stripes across SIMD lanes, a lazy-F pass fixes the
speculated-away vertical dependencies, and every vector operation /
memory access is reported to an optional :class:`MachineProbe` so the
characterization studies see SSW's true operation mix.

Gap convention: a gap of length L costs ``gap_open + L * gap_extend``.
"""

from __future__ import annotations

import numpy as np

from repro.align.scoring import AffineScoring, AlignmentResult, VG_DEFAULT
from repro.backends import (
    SCALAR,
    VECTORIZED,
    check_backend,
    report_backend_fallback,
)
from repro.errors import AlignmentError
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass

_NEG_INF = -(10**9)

#: Shared space for target windows so successive alignments stream over
#: fresh reference regions (as the real tool does over the genome).
_TARGET_SPACE = AddressSpace(base=1 << 33)


def smith_waterman(
    query: str,
    target: str,
    scoring: AffineScoring = VG_DEFAULT,
) -> AlignmentResult:
    """Scalar affine-gap local alignment (Gotoh).  Correctness oracle.

    Returns the best local score with end coordinates on both sequences.
    """
    if not query or not target:
        raise AlignmentError("smith_waterman requires non-empty sequences")
    m, n = len(query), len(target)
    open_cost = scoring.gap_open + scoring.gap_extend
    extend_cost = scoring.gap_extend

    h_prev = np.zeros(m + 1, dtype=np.int64)
    e_prev = np.full(m + 1, _NEG_INF, dtype=np.int64)
    best = 0
    best_q = best_t = 0
    for j in range(1, n + 1):
        h_curr = np.zeros(m + 1, dtype=np.int64)
        e_curr = np.full(m + 1, _NEG_INF, dtype=np.int64)
        f = _NEG_INF
        for i in range(1, m + 1):
            e_curr[i] = max(h_prev[i] - open_cost, e_prev[i] - extend_cost)
            f = max(h_curr[i - 1] - open_cost, f - extend_cost)
            diag = h_prev[i - 1] + scoring.substitution(query[i - 1], target[j - 1])
            h = max(0, diag, e_curr[i], f)
            h_curr[i] = h
            if h > best:
                best, best_q, best_t = h, i, j
        h_prev, e_prev = h_curr, e_curr
    return AlignmentResult(
        score=int(best), query_end=best_q, target_end=best_t, cells_computed=m * n
    )


def lazy_f(h: np.ndarray, f: np.ndarray, open_cost: int,
           extend_cost: int) -> np.ndarray:
    """Farrar's lazy-F pass over a batch of striped columns, in closed form.

    *h* is ``(batch, seg, lanes)`` and is updated in place; *f* is
    ``(batch, lanes)``, each column's F leaving its last segment.  The
    segment loop this replaces (kept in the scalar backends) shifts F
    one lane per pass, then per segment raises H to F, lowers F by
    ``extend`` and goes on while some lane's F beats ``H - open``.
    Unrolled, pass ``r`` meets segment ``s`` with
    ``shift^(r+1)(f) - (r*seg + s)*extend``, where a lane the shifts
    filled holds ``-inf`` lowered by the extends it has taken since.  So
    a whole pass is a few array ops, and later passes are computed only
    for the columns still going.  Exact int64 arithmetic: H, the stop
    points and everything derived from them equal the segment loop's.

    Returns per column the flat index ``r*seg + s`` of the segment whose
    exit branch fell through, or ``lanes*seg`` if none did (see
    :func:`lazy_f_trace`).
    """
    batch, seg, lanes = h.shape
    stops = np.full(batch, lanes * seg, dtype=np.int64)
    # Left-pad f so that slicing reproduces the loop's fill: each pass
    # shifts -inf into lane 0 and lowers it with the rest, so each pad
    # lane further left starts seg*extend above its right neighbour.
    padded = np.empty((batch, 2 * lanes), dtype=np.int64)
    padded[:, :lanes] = _NEG_INF + seg * extend_cost * np.arange(
        lanes - 1, -1, -1, dtype=np.int64)
    padded[:, lanes:] = f
    decay = extend_cost * np.arange(seg, dtype=np.int64)[:, None]
    # The exit test F - extend > H - open, as F + slack > H.
    slack = open_cost - extend_cost
    reach_all = np.arange(seg)
    rows = np.arange(batch)
    for r in range(lanes):
        f_pass = padded[:, None, lanes - r - 1: 2 * lanes - r - 1] - decay
        current = h if r == 0 else h[rows]
        raised = np.maximum(current, f_pass)
        going = (f_pass + slack > raised).any(axis=2)
        first = going.argmin(axis=1)
        through = going[np.arange(len(rows)), first]
        updated = reach_all <= np.where(through, seg, first)[:, None]
        np.copyto(current, raised, where=updated[:, :, None])
        if r:
            h[rows] = current
        stopped = ~through
        stops[rows[stopped]] = r * seg + first[stopped]
        if not through.any():
            break
        rows = rows[through]
        padded = padded[through]
        decay = decay + seg * extend_cost
    return stops


def lazy_f_trace(stops: np.ndarray, seg: int,
                 lanes: int) -> tuple[np.ndarray, np.ndarray, int]:
    """What the lazy-F segment loop did, from :func:`lazy_f`'s stops.

    Returns the segment steps per column, every column's exit-branch
    outcomes in stream order (taken until the one fall-through), and the
    vector-op count (one lane shift per pass plus four ops per step).
    """
    fell = stops < lanes * seg
    steps = stops + fell
    outcomes = np.ones(int(steps.sum()), dtype=bool)
    outcomes[np.cumsum(steps)[fell] - 1] = False
    alu = int(((steps - 1) // seg + 1).sum()) + 4 * outcomes.size
    return steps, outcomes, alu


class StripedSmithWaterman:
    """Farrar's striped SIMD Smith–Waterman (the SSW library's algorithm).

    Args:
        query: The (short) query sequence; profiled once, reused per target.
        scoring: Affine scheme.
        lanes: SIMD lanes per vector word (8 for 16-bit epi16 SSE2, the
            SSW library default).
        probe: Optional machine probe receiving vector/memory/branch events.
    """

    LANE_BYTES = 2  # 16-bit scores, as in the SSW library's epi16 kernel

    def __init__(
        self,
        query: str,
        scoring: AffineScoring = VG_DEFAULT,
        lanes: int = 8,
        probe: MachineProbe = NULL_PROBE,
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
        self.segment_length = (len(query) + lanes - 1) // lanes
        space = address_space or AddressSpace()
        word_bytes = lanes * self.LANE_BYTES
        self._profile_base = space.alloc(4 * self.segment_length * word_bytes)
        self._h_base = space.alloc(2 * self.segment_length * word_bytes)
        self._e_base = space.alloc(self.segment_length * word_bytes)
        self._word_bytes = word_bytes
        self._profile = self._build_profile()
        # The batched column needs open >= extend so that the in-column F
        # recurrence collapses to a max-plus prefix scan (same condition
        # as GSSW's vectorized column); an incompatible scheme downgrades
        # to the scalar reference and says so on kernel.backend_fallback.
        check_backend(backend, (SCALAR, VECTORIZED), "StripedSmithWaterman",
                      AlignmentError)
        self.backend = backend
        open_cost = scoring.gap_open + scoring.gap_extend
        self.vectorize = (backend == VECTORIZED
                          and open_cost >= scoring.gap_extend)
        if backend == VECTORIZED and not self.vectorize:
            self.backend = SCALAR
            report_backend_fallback("ssw", requested=VECTORIZED,
                                    actual=SCALAR,
                                    reason="scoring-incompatible")
        self._scan_steps = np.arange(self.segment_length + 1, dtype=np.int64)[:, None]

    def _build_profile(self) -> dict[str, np.ndarray]:
        """Striped query profile: profile[base][segment][lane]."""
        seg = self.segment_length
        profile: dict[str, np.ndarray] = {}
        for base_index, base in enumerate("ACGT"):
            matrix = np.full((seg, self.lanes), _NEG_INF, dtype=np.int64)
            for lane in range(self.lanes):
                for segment in range(seg):
                    position = lane * seg + segment
                    if position < len(self.query):
                        matrix[segment, lane] = self.scoring.substitution(
                            self.query[position], base
                        )
                    else:
                        matrix[segment, lane] = 0
            profile[base] = matrix
            self.probe.touch_region(
                self._profile_base + base_index * seg * self._word_bytes,
                seg * self._word_bytes,
            )
        return profile

    def align(self, target: str) -> AlignmentResult:
        """Local-align the profiled query against *target*."""
        if not target:
            raise AlignmentError("empty target")
        best, best_q, best_t = self._run(target)
        return AlignmentResult(
            score=int(best),
            query_end=best_q,
            target_end=best_t,
            cells_computed=len(self.query) * len(target),
        )

    # ------------------------------------------------------------------

    def _run(self, target: str) -> tuple[int, int, int]:
        seg = self.segment_length
        probe = self.probe
        word_bytes = self._word_bytes
        open_cost = self.scoring.gap_open + self.scoring.gap_extend
        extend_cost = self.scoring.gap_extend

        h_store = np.zeros((seg, self.lanes), dtype=np.int64)
        h_load = np.zeros((seg, self.lanes), dtype=np.int64)
        e = np.full((seg, self.lanes), _NEG_INF, dtype=np.int64)
        best = 0
        best_q = 0
        best_t = 0
        # Each target window is a fresh reference region: streaming reads.
        target_base = _TARGET_SPACE.alloc(len(target))
        probe.load_block(target_base + np.arange(len(target), dtype=np.int64), 1)

        # The per-column memory walk is the same every column: striped
        # rows of the profile, H and E arrays.  Emit whole-row address
        # arrays once per column instead of per-segment events.
        segment_offsets = word_bytes * np.arange(seg, dtype=np.int64)
        profile_row = self._profile_base + segment_offsets
        h_store_row = self._h_base + segment_offsets
        e_row = self._e_base + segment_offsets
        h_load_row = self._h_base + seg * word_bytes + segment_offsets
        improved_flags: list[bool] = []
        lazyf_stops: list[int] = []
        lazyf_stores: list[int] = []
        lazyf_branches: list[bool] = []
        lazyf_alu = 0

        for j, base in enumerate(target):
            if base not in self._profile:
                base = "A"  # Ns score as mismatches against the profile of A
            profile = self._profile[base]
            # vH enters shifted by one lane from the last segment's H.
            h = np.empty(self.lanes, dtype=np.int64)
            h[0] = 0
            h[1:] = h_store[seg - 1, : self.lanes - 1]
            h_store, h_load = h_load, h_store
            f = np.full(self.lanes, _NEG_INF, dtype=np.int64)

            if self.vectorize:
                # The whole column as matrix ops.  ``c`` is the
                # F-independent part of each cell; with open >= extend
                # the in-column recurrence ``f[s+1] = max(h[s] - open,
                # f[s] - extend)`` equals ``max(c[s] - open, f[s] -
                # extend)``, and substituting ``g[s] = f[s] + s*extend``
                # turns it into a running maximum over exact int64s —
                # bit-identical to the segment loop.  E is updated from
                # the pre-lazy-F H, exactly as the segment loop does.
                h_in = np.empty((seg, self.lanes), dtype=np.int64)
                h_in[0] = h
                if seg > 1:
                    h_in[1:] = h_load[: seg - 1]
                c = np.maximum(np.maximum(h_in + profile, e), 0)
                g = np.empty((seg + 1, self.lanes), dtype=np.int64)
                g[0] = _NEG_INF
                np.add(c, extend_cost * self._scan_steps[1:] - open_cost,
                       out=g[1:])
                np.maximum.accumulate(g, axis=0, out=g)
                f_all = g - extend_cost * self._scan_steps
                np.maximum(c, f_all[:seg], out=h_store)
                np.maximum(h_store - open_cost, e - extend_cost, out=e)
                f = f_all[seg]
            else:
                for segment in range(seg):
                    h = h + profile[segment]
                    np.maximum(h, e[segment], out=h)
                    np.maximum(h, f, out=h)
                    np.maximum(h, 0, out=h)
                    h_store[segment] = h
                    e[segment] = np.maximum(
                        h - open_cost, e[segment] - extend_cost
                    )
                    f = np.maximum(h - open_cost, f - extend_cost)
                    h = h_load[segment].copy()
            probe.load_block(profile_row, word_bytes)
            probe.store_block(h_store_row, word_bytes)
            probe.load_block(e_row, word_bytes)
            probe.store_block(e_row, word_bytes)
            probe.load_block(h_load_row, word_bytes)
            # 1 lane shift + 10 dependent vector ops per segment (4 for
            # the H recurrence, 6 for the E/F updates).
            probe.alu(OpClass.VECTOR_ALU, 10 * seg, dependent=True)
            probe.alu(OpClass.VECTOR_ALU, 1)

            # Lazy-F: propagate F across stripes until no lane can improve
            # (the vertical dependency Farrar speculates away).  The
            # stores and data-dependent exit branches are accumulated and
            # flushed as blocks after the column sweep.
            if self.vectorize:
                lazyf_stops.append(int(lazy_f(h_store[None], f[None],
                                              open_cost, extend_cost)[0]))
            else:
                done = False
                for _ in range(self.lanes):
                    f = np.concatenate(([np.int64(_NEG_INF)], f[:-1]))
                    lazyf_alu += 1
                    for segment in range(seg):
                        np.maximum(h_store[segment], f, out=h_store[segment])
                        lazyf_stores.append(self._h_base + segment * word_bytes)
                        threshold = h_store[segment] - open_cost
                        f = f - extend_cost
                        lazyf_alu += 4
                        continuing = bool((f > threshold).any())
                        lazyf_branches.append(continuing)
                        if not continuing:
                            done = True
                            break
                    if done:
                        break

            column_best = int(h_store.max())
            improved = column_best > best
            improved_flags.append(improved)
            if improved:
                best = column_best
                best_t = j + 1
                segment, lane = np.unravel_index(int(h_store.argmax()), h_store.shape)
                best_q = int(lane) * seg + int(segment) + 1

        if self.vectorize:
            steps, lazyf_branches, lazyf_alu = lazy_f_trace(
                np.asarray(lazyf_stops, dtype=np.int64), seg, self.lanes)
            # Step i of a column's lazy-F stores segment i mod seg.
            column_start = np.repeat(np.cumsum(steps) - steps, steps)
            step = np.arange(len(lazyf_branches), dtype=np.int64) - column_start
            lazyf_stores = self._h_base + word_bytes * (step % seg)
        probe.store_block(lazyf_stores, word_bytes)
        probe.branch_trace(2, lazyf_branches)
        probe.alu_bulk(OpClass.VECTOR_ALU, lazyf_alu)
        probe.branch_trace(1, improved_flags)
        return best, best_q, best_t


def striped_smith_waterman(
    query: str,
    target: str,
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
) -> AlignmentResult:
    """One-shot striped SW (profile built per call)."""
    return StripedSmithWaterman(query, scoring, lanes=lanes, probe=probe).align(target)
