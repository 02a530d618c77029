"""Result-store keys: what a cached report is addressed by.

Reports are cached on disk keyed by a content digest of everything that
determines a job's outcome: kernel name, the (order-normalized) study
set, scale, seed, dataset scenario and its content digest, backend, the
cache-hierarchy configuration, and the package version.  This module
owns that key (:func:`job_key` / :func:`job_digest`) and the default
store location (``benchmarks/results/cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable).  The store itself is
:class:`~repro.serve.shards.ShardedResultStore`, and
:class:`~repro.serve.service.BenchService` is the only code that loads
or saves a job's report through it, so ``run_suite(..., reuse=True)``,
sweeps and ``repro serve`` share one cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import repro

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.executor import Job
    from repro.serve.shards import ShardedResultStore


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``<repo>/benchmarks/results/cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    # store.py -> harness -> repro -> src -> repository root
    return Path(__file__).parents[3] / "benchmarks" / "results" / "cache"


def job_key(job: "Job") -> dict:
    """The canonical key payload a job is cached under.

    ``dataset`` is the :class:`~repro.data.DatasetSpec` content digest
    the scenario resolves to *now*: scenarios are manifest-defined, so
    a name alone would go stale the moment a manifest edit (or a
    same-named cell from a different manifest) changed the corpus
    behind it.  Keying on the content digest makes such edits cache
    misses instead of silently-served stale reports.

    ``backend`` is resolved through the kernel registry before hashing,
    so a job carrying ``""`` (kernel default) and one carrying the
    explicit default name share an entry, while distinct backends of
    the same kernel never collide.
    """
    from repro.data import scenario_spec
    from repro.errors import KernelError
    from repro.kernels.base import resolve_backend

    requested = getattr(job, "backend", "")
    try:
        backend = resolve_backend(job.kernel, requested or None)
    except KernelError:
        # Unregistered kernel (test doubles, foreign job records): key
        # on the raw request — there is no default to resolve to.
        backend = requested
    return {
        "kernel": job.kernel,
        "studies": sorted(set(job.studies)),
        "scale": job.scale,
        "seed": job.seed,
        "scenario": job.scenario,
        "backend": backend,
        "dataset": scenario_spec(
            job.scenario, scale=job.scale, seed=job.seed
        ).digest(),
        "cache_config": asdict(job.cache_config),
        "package_version": repro.__version__,
    }


def job_digest(job: "Job") -> str:
    """Content digest (hex) identifying a job's cached report."""
    canonical = json.dumps(job_key(job), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def default_result_store() -> "ShardedResultStore":
    """The store ``reuse=True`` runs and the CLI default to: a
    :class:`~repro.serve.shards.ShardedResultStore` over
    :func:`default_cache_dir` (lazy import — the serve layer builds on
    the harness, not the other way around)."""
    from repro.serve.shards import ShardedResultStore

    return ShardedResultStore()
