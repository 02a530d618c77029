"""Streaming execution mode: bounded-memory derived inputs.

At large scale the derived kernel inputs — not the corpus — dominate
memory: GSSW materializes one subgraph per read, TSU one synthetic pair
per item, GBWT thousands of query tuples.  ``repro run --stream``
activates this module's context, and the kernels that own those inputs
swap their monolithic derivation for a :class:`ChunkedSeries`: a lazy,
re-iterable view that resolves fixed-size *chunks* through the
:class:`~repro.data.store.ArtifactStore` on demand.

Memory stays bounded by construction: the store's strong in-memory ring
holds only the few most recent chunks (older ones fall back to their
disk pickles), so peak residency is ``O(chunk)`` instead of
``O(dataset)`` regardless of scale.  Results stay *identical* by
construction too: chunk generators are range-parameterized over the same
per-item RNG substreams as their monolithic counterparts, so the
concatenation of chunks equals the full derivation element for element
— reports from a streaming run match the in-memory run bit for bit.

Chunk fetches happen while a kernel iterates, i.e. inside its
``prepare``/``execute`` span — the store's ``data/load``/``data/build``
spans nest inside the owning kernel span, keeping the attribution
sum-exactness invariant intact.
"""

from __future__ import annotations

import bisect
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.spec import DatasetSpec

#: Default items per chunk; ``REPRO_STREAM_CHUNK`` overrides.
DEFAULT_CHUNK_ITEMS = 64


@dataclass(frozen=True)
class StreamingConfig:
    """Active streaming parameters (one per :func:`streaming` scope)."""

    chunk_items: int = DEFAULT_CHUNK_ITEMS


_ACTIVE: StreamingConfig | None = None


def streaming_config() -> StreamingConfig | None:
    """The active :class:`StreamingConfig`, or ``None`` when kernels
    should materialize their inputs in memory (the default)."""
    return _ACTIVE


def _default_chunk_items() -> int:
    raw = os.environ.get("REPRO_STREAM_CHUNK", "")
    try:
        value = int(raw) if raw else DEFAULT_CHUNK_ITEMS
    except ValueError:
        return DEFAULT_CHUNK_ITEMS
    return max(1, value)


@contextmanager
def streaming(chunk_items: int | None = None) -> Iterator[StreamingConfig]:
    """Activate streaming mode for the dynamic extent of the block."""
    global _ACTIVE
    config = StreamingConfig(
        chunk_items=chunk_items if chunk_items else _default_chunk_items()
    )
    previous = _ACTIVE
    _ACTIVE = config
    try:
        yield config
    finally:
        _ACTIVE = previous


@contextmanager
def streaming_mode(enabled: bool) -> Iterator[None]:
    """:func:`streaming` gated on a flag (executor convenience)."""
    if enabled:
        with streaming():
            yield
    else:
        yield


class ChunkedSeries:
    """A lazy, re-iterable sequence backed by chunked store derivations.

    ``name`` must be a registered derivation taking ``start``/``stop``
    item indices (plus ``params``) and returning the list of items for
    that range.  ``total`` is the number of *generator* indices; chunks
    may filter items, so ``len(self)`` counts what the chunks actually
    yield (computed with one bounded pass, then cached).

    Supports ``len``/``bool``/iteration/indexing — enough to stand in
    for the materialized list in every kernel path, including
    ``random.sample`` in validators.
    """

    def __init__(self, spec: "DatasetSpec", name: str, total: int,
                 chunk_items: int, params: dict | None = None) -> None:
        if chunk_items < 1:
            raise ValueError("chunk_items must be >= 1")
        self.spec = spec
        self.name = name
        self.total = total
        self.chunk_items = chunk_items
        self.params = dict(params or {})
        self._ends: list[int] | None = None  # cumulative yielded counts

    # -- chunk plumbing ------------------------------------------------

    def _ranges(self) -> list[tuple[int, int]]:
        return [
            (start, min(start + self.chunk_items, self.total))
            for start in range(0, self.total, self.chunk_items)
        ]

    def _fetch(self, start: int, stop: int) -> list:
        from repro.data.store import default_store

        return default_store().derived(
            self.spec, self.name, start=start, stop=stop, **self.params
        )

    def _chunk_ends(self) -> list[int]:
        """Cumulative item counts per chunk (one streaming pass)."""
        if self._ends is None:
            ends: list[int] = []
            count = 0
            for start, stop in self._ranges():
                count += len(self._fetch(start, stop))
                ends.append(count)
            self._ends = ends
        return self._ends

    # -- sequence protocol ---------------------------------------------

    def chunks(self) -> Iterator[list]:
        """Each chunk's items as one list, in order."""
        for start, stop in self._ranges():
            yield self._fetch(start, stop)

    def __iter__(self) -> Iterator:
        for chunk in self.chunks():
            yield from chunk

    def __len__(self) -> int:
        ends = self._chunk_ends()
        return ends[-1] if ends else 0

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: int):
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("ChunkedSeries index out of range")
        ends = self._chunk_ends()
        chunk = bisect.bisect_right(ends, index)
        start, stop = self._ranges()[chunk]
        offset = index - (ends[chunk - 1] if chunk else 0)
        return self._fetch(start, stop)[offset]
