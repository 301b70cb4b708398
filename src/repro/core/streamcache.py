"""Stream-level cache: launch streams and their digests, keyed on workload identity.

The result cache (:mod:`repro.core.cache`) memoizes *characterizations*
under ``(device, options, workload, stream-digest)`` keys — one entry
per (workload, device) pair.  Stream **generation**, however, is
completely device-independent and dominates a cold run's wall clock, so
a device sweep that misses the result cache for a new device would
regenerate every stream even though nothing about the stream changed.

:class:`StreamCache` fills that gap with two kinds of entry, both keyed
on the workload identity (name/abbr/suite/domain), its scale/seed, its
public constructor settings and the steady-state flag — **no device, no
simulation options**:

* the **stream payload** (tag ``"launch-stream"``): the steady-state
  launch stream itself, which sweeps store so a new device never
  regenerates it;
* the **stream-digest record** (tag ``"stream-digest"``):
  ``{"digest", "launches"}``, about 100 bytes.  It is all a warm run
  needs to rebuild every device's result-cache key, so a run whose
  results are all cached never generates, loads or hashes a stream.

Keys are deliberately disjoint from
:func:`repro.core.cache.characterization_key` material (different tag,
own schema version), so result-cache keys stay backward-compatible.

Staleness contract: a key cannot hash the stream *content* (that would
require generating it, defeating the point).  Instead every key folds in
:func:`generator_fingerprint` — a sha256 over the source of
``repro/workloads/``, ``repro/profiler/`` and ``repro/gpu/kernel.py``
plus the numpy version — so any edit to the code that generates or
crops a stream moves every key and the old entries are simply never
read again.  Only workloads whose class lives under ``repro.workloads``
are covered by that fingerprint, so only they use this cache
(:func:`uses_stream_cache`); any other workload is generated and hashed
on every run.  As a last line of defence the characterization path
re-checks a record whenever it has the stream in hand anyway (a result
miss): it hashes the stream, and on a mismatch rewrites the record,
counts ``streamcache.digest_mismatch`` and keys the results on the
recomputed digest.

Serialization is lossless: floats survive the JSON round trip
bit-for-bit (repr-based encoding), kernels are stored once in a
first-appearance table, and launches as ``(kernel_index, stream_id,
phase)`` triples — so a deserialized stream has the same content digest
and at least the same kernel-object sharing as the generated one.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.cache import ResultCache
from repro.gpu.digest import CACHE_SCHEMA_VERSION, canonicalize, stable_digest
from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    KernelLaunch,
    MemoryFootprint,
)

#: Bump when the stream payload schema — or any workload model whose
#: streams may be cached — changes incompatibly.
STREAM_CACHE_SCHEMA_VERSION = 1

#: Key tags of the two entry kinds a :class:`StreamCache` holds.
STREAM_TAG = "launch-stream"
DIGEST_RECORD_TAG = "stream-digest"

__all__ = [
    "DIGEST_RECORD_TAG",
    "STREAM_CACHE_SCHEMA_VERSION",
    "STREAM_TAG",
    "StreamCache",
    "generator_fingerprint",
    "launches_from_payload",
    "launches_to_payload",
    "stream_key",
    "uses_stream_cache",
    "workload_settings",
]

_REPRO_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def generator_fingerprint() -> str:
    """sha256 of everything that determines a generated stream's content.

    Covers every source file under ``repro/workloads/`` and
    ``repro/profiler/``, ``repro/gpu/kernel.py`` and the numpy version
    (the generators draw from numpy's RNGs).  Computed once per process
    (a few milliseconds), on first use.
    """
    import numpy

    files = sorted(
        [
            *(_REPRO_ROOT / "workloads").rglob("*.py"),
            *(_REPRO_ROOT / "profiler").rglob("*.py"),
            _REPRO_ROOT / "gpu" / "kernel.py",
        ]
    )
    hasher = hashlib.sha256()
    for path in files:
        hasher.update(path.relative_to(_REPRO_ROOT).as_posix().encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    hasher.update(f"numpy {numpy.__version__}".encode())
    return hasher.hexdigest()


def uses_stream_cache(workload: Any) -> bool:
    """Whether *workload*'s stream is covered by :func:`generator_fingerprint`.

    True only for workload classes defined under ``repro.workloads``; a
    workload from anywhere else is generated and hashed every time.
    """
    return type(workload).__module__.startswith("repro.workloads.")


def workload_settings(workload: Any) -> Dict[str, Any]:
    """Public constructor settings of *workload* beyond identity/scale/seed.

    Workloads accept settings such as ``iterations`` or ``source``; two
    instances that differ in one must never share a stream key.  Every
    public attribute with a canonical (hashable) form is included;
    derived model objects (layers, optimizers) have none and are left
    out — they follow from the settings that are in.
    """
    settings: Dict[str, Any] = {}
    for name, value in sorted(vars(workload).items()):
        if name.startswith("_") or name in ("info", "scale", "seed"):
            continue
        try:
            settings[name] = canonicalize(value)
        except TypeError:
            continue
    return settings


def stream_key(
    workload_identity: Dict[str, Any],
    scale: float,
    seed: int,
    steady_state: bool = True,
    settings: Optional[Dict[str, Any]] = None,
    tag: str = STREAM_TAG,
) -> str:
    """Cache key for one workload's (cropped) launch stream.

    Device-free by design: the same entry serves every device of a
    sweep.  ``steady_state`` is part of the key because the profiler's
    cropping changes which launches are measured.  *tag* selects the
    entry kind: the stream payload (:data:`STREAM_TAG`) or its digest
    record (:data:`DIGEST_RECORD_TAG`).
    """
    return stable_digest(
        [
            tag,
            CACHE_SCHEMA_VERSION,
            STREAM_CACHE_SCHEMA_VERSION,
            generator_fingerprint(),
            workload_identity,
            scale,
            seed,
            steady_state,
            settings or {},
        ]
    )


def _kernel_to_dict(kernel: KernelCharacteristics) -> Dict[str, Any]:
    mix = kernel.mix
    memory = kernel.memory
    return {
        "name": kernel.name,
        "grid_blocks": kernel.grid_blocks,
        "threads_per_block": kernel.threads_per_block,
        "warp_insts": kernel.warp_insts,
        "mix": {
            "fp32": mix.fp32,
            "ld_st": mix.ld_st,
            "branch": mix.branch,
            "sync": mix.sync,
        },
        "memory": {
            "bytes_read": memory.bytes_read,
            "bytes_written": memory.bytes_written,
            "reuse_factor": memory.reuse_factor,
            "l1_locality": memory.l1_locality,
            "coalescence": memory.coalescence,
            "l2_carry_in": memory.l2_carry_in,
            "working_set_bytes": memory.working_set_bytes,
        },
        "ilp": kernel.ilp,
        "mlp": kernel.mlp,
        "tags": list(kernel.tags),
    }


def _kernel_from_dict(payload: Dict[str, Any]) -> KernelCharacteristics:
    return KernelCharacteristics(
        name=payload["name"],
        grid_blocks=payload["grid_blocks"],
        threads_per_block=payload["threads_per_block"],
        warp_insts=payload["warp_insts"],
        mix=InstructionMix(**payload["mix"]),
        memory=MemoryFootprint(**payload["memory"]),
        ilp=payload["ilp"],
        mlp=payload["mlp"],
        tags=tuple(payload["tags"]),
    )


def launches_to_payload(launches: Iterable[KernelLaunch]) -> Dict[str, Any]:
    """Serialize a launch stream: kernel table + per-launch triples.

    Kernels are deduplicated by *equality* (like the simulator's memo),
    so the payload stores each distinct kernel once regardless of how
    many launch objects share (or merely equal) it.
    """
    index_of: Dict[KernelCharacteristics, int] = {}
    kernels: List[Dict[str, Any]] = []
    triples: List[List[Any]] = []
    for launch in launches:
        kernel = launch.kernel
        idx = index_of.get(kernel)
        if idx is None:
            idx = len(kernels)
            index_of[kernel] = idx
            kernels.append(_kernel_to_dict(kernel))
        triples.append([idx, launch.stream_id, launch.phase])
    return {
        "schema": STREAM_CACHE_SCHEMA_VERSION,
        "kernels": kernels,
        "launches": triples,
    }


def launches_from_payload(payload: Dict[str, Any]) -> List[KernelLaunch]:
    """Rebuild the stream written by :func:`launches_to_payload`.

    Raises ``KeyError``/``TypeError``/``ValueError`` on any schema
    mismatch (including dataclass validation), which callers treat as a
    cache miss.
    """
    if payload.get("schema") != STREAM_CACHE_SCHEMA_VERSION:
        raise ValueError(
            f"stream payload schema {payload.get('schema')!r} != "
            f"{STREAM_CACHE_SCHEMA_VERSION}"
        )
    kernels = [_kernel_from_dict(item) for item in payload["kernels"]]
    launches: List[KernelLaunch] = []
    for idx, stream_id, phase in payload["launches"]:
        launches.append(
            KernelLaunch(
                kernel=kernels[idx], stream_id=stream_id, phase=phase
            )
        )
    return launches


@dataclass
class StreamCache:
    """Persistent launch-stream and stream-digest store (a thin :class:`ResultCache` skin).

    Lives under its own directory (conventionally
    ``<cache_dir>/streams``) so stream entries and characterization
    entries never share a namespace, and reuses the result cache's
    two-tier LRU + atomic-write + quarantine machinery wholesale.
    """

    cache_dir: Optional[Union[str, Any]] = None
    backend: ResultCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.backend = ResultCache(cache_dir=self.cache_dir)

    @property
    def stats(self) -> Any:
        return self.backend.stats

    @property
    def tracer(self) -> Optional[Any]:
        return self.backend.tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self.backend.tracer = value

    def get(self, key: str) -> Optional[List[KernelLaunch]]:
        """The cached stream under *key*, or ``None`` on a miss.

        A payload that fails validation is reported as a miss (the
        caller regenerates and overwrites it).
        """
        payload = self.backend.get(key)
        if payload is None:
            return None
        try:
            return launches_from_payload(payload)
        except (KeyError, TypeError, ValueError, IndexError):
            return None

    def put(self, key: str, launches: Sequence[KernelLaunch]) -> None:
        """Store *launches* under *key* (atomic, crash-safe)."""
        self.backend.put(key, launches_to_payload(launches))

    def get_digest(self, key: str) -> Optional[str]:
        """The stream digest recorded under *key*, or ``None`` on a miss.

        A record of the wrong shape is a miss (rewritten by the caller).
        """
        record = self.backend.get(key)
        digest = record.get("digest") if record is not None else None
        return digest if isinstance(digest, str) else None

    def put_digest(self, key: str, digest: str, launches: int) -> None:
        """Record *digest* (of a stream of *launches* launches) under *key*."""
        self.backend.put(key, {"digest": digest, "launches": launches})
