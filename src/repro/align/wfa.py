"""WFA: the wavefront alignment algorithm (Marco-Sola et al. 2021).

WFA computes alignment distance in O(ns) by tracking, per score s and
diagonal k, only the furthest-reaching (FR) cell, alternating a *Next*
step (push every diagonal one edit further) with an *Extend* step (slide
each diagonal down exact matches for free) — Figure 4d.  Both the
edit-distance and the gap-affine variants are implemented; wfmash-style
all-to-all alignment and the TSU GPU kernel build on them.

Extend-step statistics (how far each diagonal slid) are recorded because
the paper's Figure 9 analysis hinges on their distribution: at 10 kbp,
74% of Extend steps move so little that a 32-thread GPU block wastes
almost all its lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlignmentError
from repro.uarch.events import NULL_PROBE, MachineProbe, OpClass

_NONE = -(10**9)


@dataclass
class WFAStats:
    """Work counters for one WFA run."""

    scores: int = 0
    diagonals_processed: int = 0
    cells_extended: int = 0
    extend_lengths: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class WFAResult:
    """Distance plus work statistics."""

    distance: int
    stats: WFAStats


def wfa_edit_distance(
    a: str, b: str, probe: MachineProbe = NULL_PROBE, record_extends: bool = False
) -> WFAResult:
    """Edit distance of *a* vs *b* with the edit-distance WFA.

    Diagonal convention: ``k = i - j`` with ``i`` an offset in *a*.  The
    FR value stored per diagonal is ``i``.
    """
    if not a or not b:
        raise AlignmentError("wfa requires non-empty sequences")
    n, m = len(a), len(b)
    target_k = n - m
    stats = WFAStats()

    wavefront: dict[int, int] = {0: 0}
    _extend(wavefront, a, b, stats, probe, record_extends)
    score = 0
    while wavefront.get(target_k, _NONE) < n:
        score += 1
        stats.scores += 1
        next_wavefront: dict[int, int] = {}
        low = min(wavefront) - 1
        high = max(wavefront) + 1
        for k in range(low, high + 1):
            best = max(
                wavefront.get(k, _NONE) + 1,       # mismatch
                wavefront.get(k - 1, _NONE) + 1,   # deletion (consume a)
                wavefront.get(k + 1, _NONE),       # insertion (consume b)
            )
            probe.alu(OpClass.SCALAR_ALU, 4)
            probe.load(k * 4, 4)
            if best < 0:
                continue
            i = min(best, n)
            j = i - k
            if j < 0 or j > m:
                continue
            next_wavefront[k] = i
            stats.diagonals_processed += 1
        wavefront = next_wavefront
        _extend(wavefront, a, b, stats, probe, record_extends)
        if not wavefront:
            raise AlignmentError("wavefront died before reaching the target")
    return WFAResult(distance=score, stats=stats)


def _extend(
    wavefront: dict[int, int],
    a: str,
    b: str,
    stats: WFAStats,
    probe: MachineProbe,
    record_extends: bool,
) -> None:
    n, m = len(a), len(b)
    for k in list(wavefront):
        i = wavefront[k]
        j = i - k
        start = i
        while i < n and j < m and a[i] == b[j]:
            i += 1
            j += 1
        probe.alu(OpClass.SCALAR_ALU, 2 * max(1, i - start))
        probe.branch_run(site=40, taken_count=i - start)
        wavefront[k] = i
        stats.cells_extended += i - start
        if record_extends:
            stats.extend_lengths.append(i - start)


@dataclass(frozen=True)
class AffinePenalties:
    """WFA gap-affine penalties (match costs 0)."""

    mismatch: int = 4
    gap_open: int = 6
    gap_extend: int = 2

    def __post_init__(self) -> None:
        if min(self.mismatch, self.gap_extend) <= 0 or self.gap_open < 0:
            raise ValueError("mismatch/gap_extend must be positive")


def wfa_affine(
    a: str,
    b: str,
    penalties: AffinePenalties = AffinePenalties(),
    probe: MachineProbe = NULL_PROBE,
) -> WFAResult:
    """Gap-affine global alignment cost via WFA2's M/I/D wavefronts.

    A gap of length L costs ``gap_open + L * gap_extend``; matches are
    free; mismatches cost ``mismatch``.
    """
    if not a or not b:
        raise AlignmentError("wfa requires non-empty sequences")
    n, m = len(a), len(b)
    target_k = n - m
    x, o, e = penalties.mismatch, penalties.gap_open, penalties.gap_extend
    stats = WFAStats()

    m_waves: dict[int, dict[int, int]] = {}
    i_waves: dict[int, dict[int, int]] = {}
    d_waves: dict[int, dict[int, int]] = {}
    m_waves[0] = {0: 0}
    _extend(m_waves[0], a, b, stats, probe, False)
    score = 0
    max_score = (n + m) * max(x, o + e) + 1
    while m_waves.get(score, {}).get(target_k, _NONE) < n:
        score += 1
        stats.scores += 1
        if score > max_score:
            raise AlignmentError("affine WFA failed to converge")
        m_next: dict[int, int] = {}
        i_next: dict[int, int] = {}
        d_next: dict[int, int] = {}
        source_m_gap = m_waves.get(score - o - e, {})
        source_i = i_waves.get(score - e, {})
        source_d = d_waves.get(score - e, {})
        source_m_sub = m_waves.get(score - x, {})
        ks: set[int] = set()
        for source in (source_m_gap, source_i, source_d, source_m_sub):
            for k in source:
                ks.update((k - 1, k, k + 1))
        for k in sorted(ks):
            # I = gap in b (consume a): from k-1, offset+1.
            i_val = max(source_m_gap.get(k - 1, _NONE), source_i.get(k - 1, _NONE)) + 1
            # D = gap in a (consume b): from k+1, offset unchanged.
            d_val = max(source_m_gap.get(k + 1, _NONE), source_d.get(k + 1, _NONE))
            m_val = max(source_m_sub.get(k, _NONE) + 1, i_val, d_val)
            probe.alu(OpClass.SCALAR_ALU, 6)
            probe.load(k * 4, 12)
            if i_val >= 0 and i_val <= n and 0 <= i_val - k <= m:
                i_next[k] = i_val
            if d_val >= 0 and d_val <= n and 0 <= d_val - k <= m:
                d_next[k] = d_val
            if m_val >= 0 and m_val <= n and 0 <= m_val - k <= m:
                m_next[k] = m_val
                stats.diagonals_processed += 1
        _extend(m_next, a, b, stats, probe, False)
        m_waves[score] = m_next
        i_waves[score] = i_next
        d_waves[score] = d_next
    return WFAResult(distance=score, stats=stats)


def affine_global_cost(
    a: str, b: str, penalties: AffinePenalties = AffinePenalties()
) -> int:
    """O(nm) gap-affine global alignment cost (correctness oracle)."""
    x, o, e = penalties.mismatch, penalties.gap_open, penalties.gap_extend
    big = 10**9
    n, m = len(a), len(b)
    h = [0] + [o + j * e for j in range(1, m + 1)]
    vertical = [big] * (m + 1)  # gaps consuming a (across rows)
    for i in range(1, n + 1):
        diag_prev = h[0]
        h[0] = o + i * e
        horizontal = big  # gaps consuming b (within this row)
        for j in range(1, m + 1):
            vertical[j] = min(h[j] + o + e, vertical[j] + e)
            horizontal = min(h[j - 1] + o + e, horizontal + e)
            sub = diag_prev + (0 if a[i - 1] == b[j - 1] else x)
            diag_prev = h[j]
            h[j] = min(sub, vertical[j], horizontal)
    return h[m]
