"""Per-workload characterization: the full Section V treatment.

``characterize(workload)`` runs the workload through the profiler and
bundles every per-application analysis of the paper: Table I row,
cumulative time curve, aggregate and per-kernel roofline points, and
the dominant-kernel selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.distribution import Table1Row, table1_row
from repro.analysis.roofline import (
    RooflinePoint,
    application_roofline,
    kernel_roofline,
)
from repro.core.streamcache import (
    DIGEST_RECORD_TAG,
    StreamCache,
    stream_key,
    uses_stream_cache,
    workload_settings,
)
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.digest import launch_stream_digest
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import GPUSimulator
from repro.profiler.profiler import Profiler
from repro.profiler.records import ApplicationProfile
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ResultCache


@dataclass
class Characterization:
    """Everything the paper derives from one workload."""

    abbr: str
    profile: ApplicationProfile
    table1: Table1Row
    cumulative_curve: List[Tuple[int, float]]
    aggregate_point: RooflinePoint
    kernel_points: List[RooflinePoint]
    dominant_points: List[RooflinePoint]

    @property
    def is_memory_intensive(self) -> bool:
        return not self.aggregate_point.is_compute_intensive

    @property
    def dominant_sides(self) -> Tuple[int, int]:
        """(compute-intensive, memory-intensive) counts among the
        dominant kernels."""
        compute = sum(1 for p in self.dominant_points if p.is_compute_intensive)
        return compute, len(self.dominant_points) - compute


def build_characterization(
    abbr: str, profile: ApplicationProfile, device: DeviceSpec = RTX_3080
) -> Characterization:
    """Derive every Section-V analysis from an existing profile."""
    from repro.analysis.distribution import cumulative_time_curve

    return Characterization(
        abbr=abbr,
        profile=profile,
        table1=table1_row(profile, abbr=abbr),
        cumulative_curve=cumulative_time_curve(profile, max_kernels=14),
        aggregate_point=application_roofline(profile, device),
        kernel_points=kernel_roofline(profile, device=device),
        dominant_points=kernel_roofline(
            profile, profile.dominant_kernels, device=device
        ),
    )


@dataclass
class StreamMemo:
    """One workload's launch stream and digest, each filled in when first needed.

    The engine keeps one per workload object, so characterizing the
    same object again (say, on another device) neither regenerates nor
    rehashes its stream.  ``digest`` is only ever a digest computed from
    ``launches`` — never one read from a record.
    """

    launches: Optional[List[KernelLaunch]] = None
    digest: Optional[str] = None


@dataclass
class _Resolution:
    """What the caches already hold for one workload across devices."""

    results: Dict[str, Characterization]
    missing: List[DeviceSpec]
    keys: Dict[str, str]


def _probe(
    cache: "ResultCache",
    digest: str,
    devices: Sequence[DeviceSpec],
    options: Any,
    identity: Dict[str, str],
    tracer: Any,
) -> _Resolution:
    """Look every device's result up under the key built from *digest*."""
    from repro.core.cache import characterization_key_for_digest
    from repro.core.serialize import characterization_from_dict

    found = _Resolution({}, [], {})
    with tracer.span(
        "cache-lookup",
        category="phase",
        workload=identity["abbr"],
        devices=len(devices),
    ) as sp:
        for device in devices:
            key = characterization_key_for_digest(
                device, options, identity, digest
            )
            found.keys[device.name] = key
            payload = cache.get(key)
            if payload is not None:
                try:
                    found.results[device.name] = characterization_from_dict(
                        payload
                    )
                    continue
                except (KeyError, TypeError, ValueError):
                    pass  # schema-corrupt entry → recompute and rewrite
            found.missing.append(device)
        sp.set_attr("hits", len(found.results))
    return found


def _resolve(
    workload: Workload,
    devices: Sequence[DeviceSpec],
    options: Any,
    steady_state: bool,
    cache: Optional["ResultCache"],
    stream_cache: Optional[StreamCache],
    tracer: Any,
    memo: StreamMemo,
    generate: Callable[[], List[KernelLaunch]],
    store_stream: bool,
) -> _Resolution:
    """Resolve *workload* on *devices*: digest record → per-device keys → result cache.

    The stream is loaded (stream cache) or generated only when some
    device misses, and then left in ``memo.launches`` for the caller to
    simulate.  Its digest is computed at most once, and only when there
    is a result cache to key; the digest record is written right after.
    When the stream is in hand anyway, a record that disagrees with it
    is rewritten, counted (``streamcache.digest_mismatch``) and ignored:
    results are keyed on the recomputed digest.
    """
    abbr = workload.abbr
    identity = {
        "name": workload.name,
        "abbr": abbr,
        "suite": workload.suite,
        "domain": workload.domain,
    }
    skey = rkey = None
    if stream_cache is not None and uses_stream_cache(workload):
        material = (
            identity, workload.scale, workload.seed, steady_state,
            workload_settings(workload),
        )
        skey = stream_key(*material)
        rkey = stream_key(*material, tag=DIGEST_RECORD_TAG)
    else:
        stream_cache = None

    recorded: Optional[str] = None
    if cache is not None and memo.digest is None and rkey is not None:
        with tracer.span(
            "stream-record-lookup", category="phase", workload=abbr
        ):
            recorded = stream_cache.get_digest(rkey)
    digest = memo.digest or recorded
    found: Optional[_Resolution] = None
    if cache is not None and digest is not None:
        found = _probe(cache, digest, devices, options, identity, tracer)
        if not found.missing:
            return found

    # Some device misses (or nothing is cached): the stream is needed.
    if memo.launches is None:
        if stream_cache is not None:
            with tracer.span(
                "stream-cache-lookup", category="phase", workload=abbr
            ):
                memo.launches = stream_cache.get(skey)
        if memo.launches is None:
            with tracer.span(
                "stream-gen", category="phase", workload=abbr
            ) as sp:
                memo.launches = generate()
                sp.set_attr("launches", len(memo.launches))
            if store_stream and stream_cache is not None:
                with tracer.span(
                    "stream-cache-store", category="phase", workload=abbr
                ):
                    stream_cache.put(skey, memo.launches)
    if cache is None:
        return _Resolution({}, list(devices), {})

    if memo.digest is None:
        memo.digest = launch_stream_digest(memo.launches)
        if rkey is not None and memo.digest != recorded:
            if recorded is not None:
                tracer.incr("streamcache.digest_mismatch")
                tracer.event(
                    "streamcache.digest-mismatch",
                    category="cache",
                    workload=abbr,
                    recorded=recorded[:16],
                    computed=memo.digest[:16],
                )
            stream_cache.put_digest(rkey, memo.digest, len(memo.launches))
    if found is not None and memo.digest == digest:
        return found
    return _probe(cache, memo.digest, devices, options, identity, tracer)


def characterize(
    workload: Workload,
    device: DeviceSpec = RTX_3080,
    profiler: Optional[Profiler] = None,
    cache: Optional["ResultCache"] = None,
    tracer=None,
    stream_cache: Optional[StreamCache] = None,
    memo: Optional[StreamMemo] = None,
) -> Characterization:
    """Run the full per-workload characterization pipeline.

    With a *cache*, the result is memoized under a content-addressed key
    of ``(device, simulation options, launch-stream digest)`` — a warm
    hit skips the simulation and every analysis step and deserializes a
    result that compares equal to a fresh computation.

    With a *stream_cache* as well, the stream digest comes from its
    digest record (see :mod:`repro.core.streamcache`), so a warm hit
    does not generate, load or hash the stream either.  The stream
    payload is never written here; only sweeps store payloads.

    *memo* carries a stream (and digest) a previous characterization of
    the *same workload instance* already prepared, and receives the ones
    this call prepares (the engine keeps one per workload object).

    *tracer* (see :mod:`repro.obs`) wraps each phase — ``stream-gen``,
    ``cache-lookup``, ``simulate``, ``analyze``, ``cache-store`` — in a
    span.  Pure observation: the stream, the cache key, and the result
    are bit-for-bit identical with tracing on or off.
    """
    from repro.obs import NULL_TRACER

    tracer = tracer or NULL_TRACER
    profiler = profiler or Profiler(
        simulator=GPUSimulator(device, cache=cache)
    )
    memo = memo if memo is not None else StreamMemo()
    abbr = workload.abbr
    found = _resolve(
        workload,
        [device],
        profiler.simulator.options,
        profiler.steady_state,
        cache,
        stream_cache,
        tracer,
        memo,
        lambda: profiler.prepare_stream(workload),
        store_stream=False,
    )
    if not found.missing:
        return found.results[device.name]

    with tracer.span("simulate", category="phase", workload=abbr):
        profile = profiler.profile_launches(
            memo.launches,
            workload=workload.name,
            suite=workload.suite,
            domain=workload.domain,
        )
    with tracer.span("analyze", category="phase", workload=abbr):
        result = build_characterization(workload.abbr, profile, device)
    if cache is not None:
        from repro.core.serialize import characterization_to_dict

        with tracer.span("cache-store", category="phase", workload=abbr):
            cache.put(found.keys[device.name], characterization_to_dict(result))
    return result


def characterize_devices(
    workload: Workload,
    devices,
    options=None,
    cache: Optional["ResultCache"] = None,
    stream_cache=None,
    tracer=None,
    steady_state: bool = True,
    proxy_bank=None,
) -> "dict[str, Characterization]":
    """Characterize one workload across N devices from ONE stream.

    The device-sweep inner loop, resolved like :func:`characterize`:
    the stream digest comes from the *stream_cache*'s digest record when
    there is one, and every device's result cache entry is probed under
    the **same** content-addressed key the scalar path uses (so suite
    runs warm sweeps and vice versa).  Only when some device misses is
    the stream acquired — from the stream cache, or by fresh generation
    under a ``stream-gen`` span, after which its payload is stored — and
    hashed, once for all devices.  Only the missing devices go through
    the batched device-axis simulator
    (:func:`repro.gpu.batched.simulate_devices`) — a single broadcast
    pass instead of N scalar walks.

    Returns ``{device.name: Characterization}`` in *devices* order.
    Every entry is bit-for-bit identical to what
    :func:`characterize` would produce for that device alone.

    *proxy_bank* (see :class:`repro.core.proxy.ProxyBank`) is the
    opt-in similarity-proxy tier: with it attached, each device's
    simulate pass may substitute near-duplicate metrics from that
    device's proxy corpus.  ``None`` (default) keeps the bit-exact
    contract above.
    """
    from repro.gpu.batched import simulate_devices
    from repro.gpu.simulator import SimulationOptions
    from repro.obs import NULL_TRACER

    tracer = tracer or NULL_TRACER
    options = options or SimulationOptions()
    memo = StreamMemo()
    abbr = workload.abbr
    found = _resolve(
        workload,
        devices,
        options,
        steady_state,
        cache,
        stream_cache,
        tracer,
        memo,
        lambda: Profiler(steady_state=steady_state).prepare_stream(workload),
        store_stream=True,
    )
    results = found.results
    missing = found.missing
    stream = memo.launches

    # -- batched simulate + per-device analysis for the misses ---------
    if missing:
        with tracer.span(
            "simulate-devices",
            category="phase",
            workload=abbr,
            devices=len(missing),
        ) as sp:
            per_device = simulate_devices(
                stream,
                missing,
                options=options,
                tracer=tracer,
                proxy_bank=proxy_bank,
            )
            sp.set_attr("launches", len(stream))
        aggregator = Profiler(steady_state=steady_state)
        with tracer.span(
            "analyze", category="phase", workload=abbr, devices=len(missing)
        ):
            fresh = {}
            for device, metrics in zip(missing, per_device):
                profile = aggregator.profile_metrics(
                    stream,
                    metrics,
                    workload=workload.name,
                    suite=workload.suite,
                    domain=workload.domain,
                )
                fresh[device.name] = build_characterization(
                    workload.abbr, profile, device
                )
        if cache is not None:
            from repro.core.serialize import characterization_to_dict

            with tracer.span(
                "cache-store",
                category="phase",
                workload=abbr,
                devices=len(fresh),
            ):
                for name, result in fresh.items():
                    cache.put(
                        found.keys[name], characterization_to_dict(result)
                    )
        results.update(fresh)

    return {device.name: results[device.name] for device in devices}
