"""Path step index for PGSGD sampling.

PGSGD samples pairs of anchors from *paths* and needs, for any two steps
of a path, their nucleotide distance along it.  odgi builds this index in
a sequential preprocessing pass — the serial fraction that bends odgi's
otherwise near-linear thread scaling in the paper's Figure 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import GraphError
from repro.graph.model import SequenceGraph


@dataclass(frozen=True)
class PathStep:
    """One step of a path: the node visited and its cumulative offset."""

    path_index: int
    step_index: int
    node_id: int
    position: int  # nucleotide offset of the node start along the path


class PathIndex:
    """Cumulative-position index over all paths of a graph.

    Build cost is O(total path steps), inherently sequential (prefix
    sums), and is reported via :attr:`build_work` so the thread-scaling
    model can account for it.
    """

    def __init__(self, graph: SequenceGraph) -> None:
        if graph.path_count == 0:
            raise GraphError("path index needs at least one path")
        self.graph = graph
        self.path_names: list[str] = graph.path_names()
        self._steps: list[list[PathStep]] = []
        self._lengths: list[int] = []
        self.build_work = 0
        for path_number, name in enumerate(self.path_names):
            path = graph.path(name)
            steps: list[PathStep] = []
            position = 0
            for step_index, node_id in enumerate(path.nodes):
                steps.append(PathStep(path_number, step_index, node_id, position))
                position += len(graph.node(node_id))
                self.build_work += 1
            self._steps.append(steps)
            self._lengths.append(position)

    @property
    def path_count(self) -> int:
        return len(self._steps)

    def path_length(self, path_index: int) -> int:
        return self._lengths[path_index]

    def steps_of(self, path_index: int) -> list[PathStep]:
        return self._steps[path_index]

    def step(self, path_index: int, step_index: int) -> PathStep:
        return self._steps[path_index][step_index]

    def distance(self, a: PathStep, b: PathStep) -> int:
        """Nucleotide distance between two steps of the same path."""
        if a.path_index != b.path_index:
            raise GraphError("steps belong to different paths")
        return abs(b.position - a.position)

    def sample_step_pair(
        self, rng: random.Random, window: int | None = None, zipf_theta: float = 0.9
    ) -> tuple[PathStep, PathStep]:
        """Sample an anchor pair like odgi's PGSGD.

        A random path, a random first step, and a second step at a
        Zipf-distributed step distance (mostly local pairs with a heavy
        tail of long-range ones), optionally capped by *window*.
        """
        path_index = rng.randrange(len(self._steps))
        steps = self._steps[path_index]
        if len(steps) == 1:
            step = steps[0]
            return step, step
        first = rng.randrange(len(steps))
        max_jump = len(steps) - 1 if window is None else min(window, len(steps) - 1)
        jump = _zipf_sample(rng, max_jump, zipf_theta)
        if rng.random() < 0.5:
            second = max(0, first - jump)
        else:
            second = min(len(steps) - 1, first + jump)
        if second == first:
            second = (first + 1) % len(steps)
        return steps[first], steps[second]


def _zipf_sample(rng: random.Random, max_value: int, theta: float) -> int:
    """Approximate Zipf sample in [1, max_value] via inverse transform."""
    if max_value <= 1:
        return 1
    u = rng.random()
    # Power-law inverse CDF: heavier head for larger theta.
    value = int((max_value ** (1.0 - theta) * u + 1.0) ** (1.0 / (1.0 - theta)))
    return max(1, min(max_value, value))
