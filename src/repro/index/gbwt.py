"""GBWT: the haplotype-aware graph FM-index (Sirén et al. 2020).

Vg Giraffe's filtering stage extends clustered seed hits along graph
paths, but only along walks that are subpaths of some *haplotype*
(Section 3, Figure 4c).  The GBWT supports this with ``find``: given a
node sequence S it returns a search state from which the haplotype-
consistent next nodes can be enumerated.

Structure.  The GBWT is a multi-string BWT over haplotype paths viewed as
strings of node identifiers.  We implement the record-per-node layout of
the real index: every node ``v`` owns a *record* holding its visits in
prefix-sorted order (sorted by the reverse prefix of the path up to the
visit), and for each visit the successor node.  Extension is last-first
mapping between records:

    extend((v, [s, e)), w) = (w, [o + r_s, o + r_e))

where ``o`` is the offset of v's block inside w's record and ``r_i`` is
the rank of successor-w visits among v's first ``i`` visits.  The
prefix-sorted visit order is computed exactly, with a suffix array over
the reversed concatenation of all paths.

The paper's key observation (Section 5.2) — haplotype node sequences
rarely repeat, so a state usually has only a handful of possible
extensions and lookups stay local — emerges naturally from this
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import IndexError_
from repro.graph.model import SequenceGraph
from repro.index.suffix import suffix_array

#: Virtual node id marking "path ends here" (cannot collide: real ids >= 0
#: are shifted by +2 internally; 0 pads the concatenation sentinel).
ENDMARKER = -1


@dataclass(frozen=True)
class GBWTState:
    """A search state: a node and a half-open visit range in its record."""

    node_id: int
    start: int
    end: int

    @property
    def size(self) -> int:
        """Number of haplotype positions matching the searched sequence."""
        return max(0, self.end - self.start)

    @property
    def is_empty(self) -> bool:
        return self.size == 0


@dataclass
class _Record:
    """Per-node record: visits in prefix-sorted order."""

    # successor node id of each visit (ENDMARKER at path ends).
    successors: list[int]
    # (path_index, step_index) provenance of each visit, for locate().
    positions: list[tuple[int, int]]
    # Offset of each predecessor's block inside this record.
    block_offset: dict[int, int]
    # Checkpointed successor-rank counts every `sample` visits:
    # checkpoints[c][w] = number of visits with successor w among the
    # first c*sample visits.
    checkpoints: list[dict[int, int]]
    sample: int

    def rank(self, successor: int, position: int) -> int:
        """Visits in [0, position) whose successor is *successor*."""
        checkpoint = min(position // self.sample, len(self.checkpoints) - 1)
        count = self.checkpoints[checkpoint].get(successor, 0)
        for index in range(checkpoint * self.sample, position):
            if self.successors[index] == successor:
                count += 1
        return count


class GBWT:
    """Multi-string BWT over haplotype node paths.

    Args:
        paths: Haplotype walks as sequences of node ids.
        names: Optional path names (defaults to ``path0 .. pathN``).
        rank_sample: Checkpoint spacing inside records.
    """

    #: Virtual predecessor id for visits that begin a path.
    _PATH_START = -2

    def __init__(
        self,
        paths: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        rank_sample: int = 16,
    ) -> None:
        if not paths:
            raise IndexError_("GBWT needs at least one path")
        if any(len(path) == 0 for path in paths):
            raise IndexError_("GBWT paths must be non-empty")
        if rank_sample < 1:
            raise IndexError_("rank_sample must be positive")
        self._paths: list[tuple[int, ...]] = [tuple(path) for path in paths]
        if names is None:
            names = [f"path{i}" for i in range(len(paths))]
        if len(names) != len(paths):
            raise IndexError_("names/paths length mismatch")
        self._names = list(names)
        self._rank_sample = rank_sample
        self._records: dict[int, _Record] = {}
        self._build()

    @classmethod
    def from_graph(cls, graph: SequenceGraph, rank_sample: int = 16) -> "GBWT":
        """Build from the haplotype paths stored in *graph*."""
        names = graph.path_names()
        if not names:
            raise IndexError_("graph has no paths to index")
        return cls(
            paths=[graph.path(name).nodes for name in names],
            names=names,
            rank_sample=rank_sample,
        )

    # ------------------------------------------------------------------
    # construction

    def _build(self) -> None:
        # Global prefix-sorted order: the reverse prefix of a visit
        # (p, i) is the suffix of reversed(p) starting at len(p)-i.
        # Build one text of all reversed paths separated by sentinels and
        # rank every suffix once.
        min_id = min(min(path) for path in self._paths)
        if min_id < 0:
            raise IndexError_("node ids must be non-negative")
        shift = 2  # reserve 0 for the global terminator, 1 for separators
        text: list[int] = []
        visit_suffix: dict[tuple[int, int], int] = {}
        for path_index, path in enumerate(self._paths):
            for reverse_offset, node_id in enumerate(reversed(path)):
                step_index = len(path) - 1 - reverse_offset
                # Suffix starting at this reversed position spells the
                # reverse prefix *including* the visited node; we want the
                # prefix strictly before the visit, so record the position
                # one past it (suffix of the predecessor chain).
                visit_suffix[(path_index, step_index)] = len(text) + 1
                text.append(node_id + shift)
            text.append(1)  # separator (compares below all real ids)
        text.append(0)  # global terminator
        sa = suffix_array(text)
        suffix_rank = [0] * len(text)
        for rank, position in enumerate(sa):
            suffix_rank[position] = rank

        # Collect visits per node, ordered by (reverse-prefix rank).
        visits: dict[int, list[tuple[int, int, int]]] = {}
        for path_index, path in enumerate(self._paths):
            for step_index, node_id in enumerate(path):
                key = visit_suffix[(path_index, step_index)]
                rank = suffix_rank[key] if key < len(text) else -1
                visits.setdefault(node_id, []).append((rank, path_index, step_index))

        for node_id, node_visits in visits.items():
            node_visits.sort()
            successors: list[int] = []
            positions: list[tuple[int, int]] = []
            predecessor_counts: dict[int, int] = {}
            for _, path_index, step_index in node_visits:
                path = self._paths[path_index]
                successor = path[step_index + 1] if step_index + 1 < len(path) else ENDMARKER
                successors.append(successor)
                positions.append((path_index, step_index))
                predecessor = path[step_index - 1] if step_index > 0 else self._PATH_START
                predecessor_counts[predecessor] = predecessor_counts.get(predecessor, 0) + 1
            block_offset: dict[int, int] = {}
            total = 0
            for predecessor in sorted(predecessor_counts):
                block_offset[predecessor] = total
                total += predecessor_counts[predecessor]
            checkpoints = self._build_checkpoints(successors)
            self._records[node_id] = _Record(
                successors=successors,
                positions=positions,
                block_offset=block_offset,
                checkpoints=checkpoints,
                sample=self._rank_sample,
            )

    def _build_checkpoints(self, successors: list[int]) -> list[dict[int, int]]:
        checkpoints: list[dict[int, int]] = []
        running: dict[int, int] = {}
        for index, successor in enumerate(successors):
            if index % self._rank_sample == 0:
                checkpoints.append(dict(running))
            running[successor] = running.get(successor, 0) + 1
        return checkpoints

    # ------------------------------------------------------------------
    # queries

    @property
    def path_count(self) -> int:
        return len(self._paths)

    @property
    def node_count(self) -> int:
        return len(self._records)

    @property
    def total_visits(self) -> int:
        return sum(len(record.successors) for record in self._records.values())

    def full_state(self, node_id: int) -> GBWTState:
        """State covering every visit of *node_id* (empty if absent)."""
        record = self._records.get(node_id)
        if record is None:
            return GBWTState(node_id, 0, 0)
        return GBWTState(node_id, 0, len(record.successors))

    def extend(self, state: GBWTState, node_id: int) -> GBWTState:
        """Extend *state* by one node via last-first mapping."""
        if state.is_empty:
            return GBWTState(node_id, 0, 0)
        record = self._records[state.node_id]
        target = self._records.get(node_id)
        if target is None:
            return GBWTState(node_id, 0, 0)
        offset = target.block_offset.get(state.node_id)
        if offset is None:
            return GBWTState(node_id, 0, 0)
        start = offset + record.rank(node_id, state.start)
        end = offset + record.rank(node_id, state.end)
        return GBWTState(node_id, start, end)

    def find(self, node_sequence: Iterable[int]) -> GBWTState:
        """Search state of haplotype positions matching *node_sequence*.

        This is the extracted GBWT kernel operation (Section 3): the
        returned state's size is the number of haplotype occurrences, and
        :meth:`successors` enumerates the haplotype-consistent next nodes.
        """
        iterator = iter(node_sequence)
        try:
            first = next(iterator)
        except StopIteration:
            raise IndexError_("find() needs a non-empty node sequence") from None
        state = self.full_state(first)
        for node_id in iterator:
            if state.is_empty:
                return GBWTState(node_id, 0, 0)
            state = self.extend(state, node_id)
        return state

    def successors(self, state: GBWTState) -> dict[int, int]:
        """Haplotype-consistent next nodes of *state*, with visit counts.

        ``ENDMARKER`` counts haplotypes that end at the state.
        """
        if state.is_empty:
            return {}
        record = self._records[state.node_id]
        counts: dict[int, int] = {}
        for index in range(state.start, state.end):
            successor = record.successors[index]
            counts[successor] = counts.get(successor, 0) + 1
        return counts

    def locate(self, state: GBWTState) -> list[tuple[str, int]]:
        """(path name, step index) of each visit in *state*.

        The step index refers to the *last* node of the searched sequence.
        """
        if state.is_empty:
            return []
        record = self._records[state.node_id]
        out = []
        for index in range(state.start, state.end):
            path_index, step_index = record.positions[index]
            out.append((self._names[path_index], step_index))
        return sorted(out)
