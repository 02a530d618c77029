"""Declarative dataset specifications (the Table 2/3 analog, reified).

The paper derives every kernel's input from one upstream corpus by
running each tool "up until the kernel"; its graph-variation study
(Figure 11) then sweeps *corpus parameters* — haplotype count,
divergence, read profiles.  A :class:`DatasetSpec` captures exactly
those axes as data: every field that influences corpus content is part
of the spec, the spec is content-hashable, and the hash (together with
:data:`GENERATOR_VERSION`) keys the on-disk artifact store in
:mod:`repro.data.store`.

Kernels, tools and pipelines *declare* the spec they want instead of
calling a generator inline; the store turns equal specs into one shared
build.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.errors import DatasetError
from repro.sequence.mutate import VariantRates

#: Bump whenever corpus *content* for an unchanged spec changes (a
#: generator algorithm or RNG-stream change).  Part of every artifact
#: digest, so stale on-disk corpora are never served silently;
#: ``repro data gc`` reclaims them.
GENERATOR_VERSION = 1

#: Rates tuned so the graph's mean node length lands near the paper's
#: M-graph (~27 bp/node) for the default population size.
SUITE_RATES = VariantRates(snp=0.004, insertion=0.0008, deletion=0.0008,
                           inversion=0.00005, duplication=0.00005)


def field_dict(instance) -> dict:
    """A dataclass's fields as a shallow dict: ``asdict`` without the
    deep copy, for content keys built on every cache lookup."""
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


@dataclass(frozen=True)
class DatasetSpec:
    """Everything that determines the content of one suite corpus.

    ``scenario`` names the installed manifest cell the spec came from
    (:mod:`repro.data.manifest`); ``scale``/``seed`` are the two
    per-run axes the harness sweeps.  The remaining fields are the
    corpus parameters themselves, all expressed at ``scale == 1.0``:

    * ``genome_length`` — ancestral genome length in bases;
    * ``n_haplotypes`` — population size threaded into the graph (the
      sample-count axis of the reference-pangenome design space);
    * ``rates`` — the population's variant model (the divergence axis);
    * ``short_reads`` / ``long_reads`` — read counts per unit scale;
    * ``long_read_length`` — mean long-read length before scaling;
    * ``held_out_divergence`` — multiplier on the SNP/indel rates of the
      held-out assembly (the new-sample mapping input);
    * ``tsu_error_rate`` — pairwise divergence of the TSU sequence
      pairs (the paper's generator uses 1%).
    """

    scenario: str = "default"
    scale: float = 1.0
    seed: int = 0
    genome_length: int = 20_000
    n_haplotypes: int = 8
    rates: VariantRates = SUITE_RATES
    short_reads: int = 60
    long_reads: int = 10
    long_read_length: int = 1500
    held_out_divergence: float = 2.0
    tsu_error_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise DatasetError("spec scale must be positive")
        if self.genome_length <= 0:
            raise DatasetError("spec genome_length must be positive")
        if self.n_haplotypes < 1:
            raise DatasetError("spec needs at least one haplotype")

    def key(self) -> dict:
        """The canonical content-key payload (JSON-able, sorted)."""
        payload = field_dict(self)
        payload["rates"] = field_dict(self.rates)
        payload["generator_version"] = GENERATOR_VERSION
        return payload

    def digest(self) -> str:
        """16-hex content digest identifying this spec's corpus."""
        canonical = json.dumps(self.key(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_run_axes(self, scale: float, seed: int) -> "DatasetSpec":
        """The same corpus parameters at different run axes."""
        return replace(self, scale=scale, seed=seed)
