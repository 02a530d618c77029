"""Variant model: typed variants applied to a reference sequence.

A pangenome is synthesized by sampling a set of :class:`Variant` objects
against an ancestral reference and applying a subset of them to each
haplotype.  Variants use reference coordinates (0-based, end-exclusive for
deletions); application resolves coordinate shifts by applying right-to-left.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from repro.errors import SequenceError
from repro.sequence.alphabet import DNA_BASES, reverse_complement, validate_dna


class VariantType(Enum):
    """Kinds of variation supported by the synthesizer."""

    SNP = "snp"
    INSERTION = "insertion"
    DELETION = "deletion"
    INVERSION = "inversion"
    DUPLICATION = "duplication"


@dataclass(frozen=True)
class Variant:
    """A single variant against a reference sequence.

    Attributes:
        kind: The variant type.
        position: 0-based reference position where the variant applies.
        ref: Reference allele (bases consumed on the reference).
        alt: Alternate allele (bases produced on the haplotype).
    """

    kind: VariantType
    position: int
    ref: str
    alt: str

    def __post_init__(self) -> None:
        if self.position < 0:
            raise SequenceError("variant position must be non-negative")
        if self.ref:
            validate_dna(self.ref, name="variant ref allele")
        if self.alt:
            validate_dna(self.alt, name="variant alt allele")
        if not self.ref and not self.alt:
            raise SequenceError("variant must change at least one base")

    @property
    def end(self) -> int:
        """Reference position just past the consumed bases."""
        return self.position + len(self.ref)


def _non_overlapping(variants: Sequence[Variant]) -> list[Variant]:
    """Return variants sorted by position with overlapping ones dropped."""
    kept: list[Variant] = []
    last_end = -1
    for variant in sorted(variants, key=lambda v: (v.position, v.end)):
        if variant.position >= last_end:
            kept.append(variant)
            last_end = max(last_end, variant.end)
    return kept


def apply_variants(reference: str, variants: Iterable[Variant]) -> str:
    """Apply *variants* to *reference* and return the mutated haplotype.

    Overlapping variants are resolved by keeping the first in position
    order.  Variants extending past the reference end are rejected.
    """
    ordered = _non_overlapping(list(variants))
    for variant in ordered:
        if variant.end > len(reference):
            raise SequenceError(
                f"variant at {variant.position} extends past reference end "
                f"({variant.end} > {len(reference)})"
            )
        actual = reference[variant.position : variant.end]
        if variant.ref and actual != variant.ref:
            raise SequenceError(
                f"variant ref allele {variant.ref!r} does not match reference "
                f"{actual!r} at position {variant.position}"
            )
    pieces: list[str] = []
    cursor = 0
    for variant in ordered:
        pieces.append(reference[cursor : variant.position])
        pieces.append(variant.alt)
        cursor = variant.end
    pieces.append(reference[cursor:])
    return "".join(pieces)


@dataclass(frozen=True)
class VariantRates:
    """Per-base probabilities used when sampling a variant set.

    The defaults approximate human inter-haplotype divergence scaled up
    slightly so that small synthetic genomes still produce interesting
    graphs (the paper's graphs average ~27 bp per node).
    """

    snp: float = 0.01
    insertion: float = 0.0015
    deletion: float = 0.0015
    inversion: float = 0.0001
    duplication: float = 0.0001
    indel_mean_length: float = 3.0
    sv_mean_length: float = 120.0

    def total(self) -> float:
        return self.snp + self.insertion + self.deletion + self.inversion + self.duplication


def sample_variants(
    reference: str,
    rates: VariantRates | None = None,
    rng: random.Random | None = None,
) -> list[Variant]:
    """Sample a non-overlapping variant set against *reference*.

    The number of variants is Poisson-like: each position independently
    seeds a variant with probability ``rates.total()``; types are chosen
    proportionally to their individual rates.
    """
    rates = rates or VariantRates()
    rng = rng or random.Random(0)
    total = rates.total()
    if total <= 0:
        return []
    weights = [rates.snp, rates.insertion, rates.deletion, rates.inversion, rates.duplication]
    kinds = [
        VariantType.SNP,
        VariantType.INSERTION,
        VariantType.DELETION,
        VariantType.INVERSION,
        VariantType.DUPLICATION,
    ]
    n_sites = max(0, int(rng.gauss(total * len(reference), max(1.0, (total * len(reference)) ** 0.5))))
    variants: list[Variant] = []
    for _ in range(n_sites):
        position = rng.randrange(len(reference))
        kind = rng.choices(kinds, weights=weights)[0]
        variant = _make_variant(reference, kind, position, rates, rng)
        if variant is not None:
            variants.append(variant)
    return _non_overlapping(variants)


def _geometric_length(mean: float, rng: random.Random) -> int:
    """Sample a geometric length with the given mean, at least 1."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    length = 1
    while rng.random() > p and length < int(mean * 10):
        length += 1
    return length


def _random_bases(length: int, rng: random.Random) -> str:
    return "".join(rng.choice(DNA_BASES) for _ in range(length))


def _make_variant(
    reference: str,
    kind: VariantType,
    position: int,
    rates: VariantRates,
    rng: random.Random,
) -> Variant | None:
    """Build a concrete variant of *kind* at *position*, or None if it
    would not fit on the reference."""
    ref_base = reference[position]
    if kind is VariantType.SNP:
        alternatives = [base for base in DNA_BASES if base != ref_base]
        return Variant(kind, position, ref_base, rng.choice(alternatives))
    if kind is VariantType.INSERTION:
        length = _geometric_length(rates.indel_mean_length, rng)
        return Variant(kind, position, ref_base, ref_base + _random_bases(length, rng))
    if kind is VariantType.DELETION:
        length = _geometric_length(rates.indel_mean_length, rng)
        end = min(position + 1 + length, len(reference))
        if end - position < 2:
            return None
        return Variant(kind, position, reference[position:end], ref_base)
    if kind is VariantType.INVERSION:
        length = max(8, _geometric_length(rates.sv_mean_length, rng))
        end = min(position + length, len(reference))
        if end - position < 8:
            return None
        segment = reference[position:end]
        return Variant(kind, position, segment, reverse_complement(segment))
    if kind is VariantType.DUPLICATION:
        length = max(8, _geometric_length(rates.sv_mean_length, rng))
        end = min(position + length, len(reference))
        if end - position < 8:
            return None
        segment = reference[position:end]
        return Variant(kind, position, segment, segment + segment)
    raise SequenceError(f"unknown variant kind {kind!r}")
