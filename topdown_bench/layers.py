"""What the traced run wraps, and how its spans become per-layer metrics.

Each :class:`~tracing.Target` names one public function or method of a
pipeline module and the span it records.  :func:`summarize` folds a
span list into the per-layer metrics listed in ``BENCHMARK.json``:
times are self times (a layer's span duration minus what its child
spans cover), so the layer times of one pass add up to the pass.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List

from tracing import Span, Target, ancestors, self_times

PRT_SUITES = ("Parboil", "Rodinia", "Tango")

#: Workload domain -> the ``workloads.gen_s.<group>`` it is billed to.
DOMAIN_GROUPS = {
    "Molecular": "molecular",
    "Graph": "graphs",
    "GraphML": "graphs",
    "MachineLearning": "ml",
}

#: Per-layer metrics: (name, unit, better).  ``BENCHMARK.json`` lists
#: exactly these, in this order; a traced run reports every one of them
#: on every workload (0 where the workload does not reach the layer).
PER_LAYER = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.gen_s.molecular", "s", "lower"),
    ("workloads.gen_s.graphs", "s", "lower"),
    ("workloads.gen_s.ml", "s", "lower"),
    ("workloads.gen_s.prt", "s", "lower"),
    ("workloads.init_s", "s", "lower"),
    ("workloads.streams", "count", "lower"),
    ("workloads.launches", "count", "lower"),
    ("profiler.prepare_s", "s", "lower"),
    ("profiler.aggregate_s", "s", "lower"),
    ("gpu.simulate_s", "s", "lower"),
    ("gpu.launches_simulated", "count", "lower"),
    ("gpu.distinct_kernels", "count", "lower"),
    ("gpu.sim_launches_per_s", "1/s", "higher"),
    ("gpu.digest_s", "s", "lower"),
    ("gpu.digests", "count", "lower"),
    ("gpu.digests_per_workload", "ratio", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.put_s", "s", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("streamcache.get_s", "s", "lower"),
    ("streamcache.gets", "count", "lower"),
    ("streamcache.hit_ratio", "ratio", "higher"),
    ("streamcache.put_s", "s", "lower"),
    ("serialize.encode_s", "s", "lower"),
    ("serialize.decode_s", "s", "lower"),
    ("serialize.decodes", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("analysis.characterize_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("analysis.sweep_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.poll_lag_s", "s", "lower"),
    ("service.similar_s", "s", "lower"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("service.engine_runs_per_key", "ratio", "lower"),
    ("service.rejected", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.unattributed_s", "s", "lower"),
    ("obs.spans", "count", "lower"),
]

#: The span the benchmark itself opens around one pass; its self time
#: is the pass time no pipeline layer accounts for.
PASS_SPAN = "bench.pass"


def _hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _stream_made(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    workload = args[0]
    group = "prt" if workload.suite in PRT_SUITES else DOMAIN_GROUPS.get(workload.domain, "other")
    span.attrs["group"] = group
    span.attrs["launches"] = len(result)


def _bytes_written(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    cache, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
    try:
        path = cache._path(key)
        span.attrs["bytes"] = os.stat(path).st_size if path is not None else 0
    except (AttributeError, OSError):
        payload = args[2] if len(args) > 2 else kwargs["payload"]
        span.attrs["bytes"] = len(json.dumps(payload, separators=(",", ":")))


def _simulated(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # run_stream returns one metrics record per launch, simulate_devices
    # one such list per device; repeated launches of a kernel share one
    # record, so distinct record ids count distinct kernels.
    per_device = result if result and isinstance(result[0], list) else [result]
    span.attrs["launches"] = sum(len(records) for records in per_device)
    span.attrs["distinct"] = sum(len({id(r) for r in records}) for records in per_device)


def _workload_abbr(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["abbr"] = result.abbr


def workload_classes() -> List[type]:
    """Every loaded Workload class that defines its own launch_stream."""
    import repro.workloads.suites  # noqa: F401  (registers every suite)
    from repro.workloads.base import Workload

    found: List[type] = []
    pending = list(Workload.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "launch_stream" in cls.__dict__ and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def targets() -> List[Target]:
    """The public callables a traced run wraps, one span name each."""
    fixed = [
        Target("repro.core.engine:CharacterizationEngine", "run_suite", "engine.run"),
        Target("repro.core.engine:CharacterizationEngine", "run_sweep", "engine.run"),
        Target("repro.workloads.registry", "get_workload", "workloads.init", _workload_abbr),
        Target("repro.profiler.profiler:Profiler", "prepare_stream", "profiler.prepare_stream"),
        Target("repro.profiler.profiler:Profiler", "profile_launches", "profiler.aggregate"),
        Target("repro.profiler.profiler:Profiler", "profile_metrics", "profiler.aggregate"),
        Target("repro.gpu.simulator:GPUSimulator", "run_stream", "gpu.simulate", _simulated),
        Target("repro.gpu.batched", "simulate_devices", "gpu.simulate", _simulated),
        Target("repro.gpu.digest", "launch_stream_digest", "gpu.digest"),
        Target("repro.core.cache:ResultCache", "get", "cache.get", _hit),
        Target("repro.core.cache:ResultCache", "put", "cache.put", _bytes_written),
        Target("repro.core.streamcache:StreamCache", "get", "streamcache.get", _hit),
        Target("repro.core.streamcache:StreamCache", "put", "streamcache.put"),
        Target("repro.core.serialize", "characterization_to_dict", "serialize.encode"),
        Target("repro.core.serialize", "characterization_from_dict", "serialize.decode"),
        Target("repro.core.characterize", "build_characterization", "analysis.characterize"),
        Target("repro.core.report", "generate_report", "analysis.report"),
        Target("repro.analysis.sweep", "analyze_sweep", "analysis.sweep"),
    ]
    streams = [
        Target(cls, "launch_stream", "workloads.launch_stream", _stream_made)
        for cls in workload_classes()
    ]
    return fixed + streams


def summarize(spans: Iterable[Span], units: float) -> Dict[str, float]:
    """Per-layer metrics of *spans*, divided by *units* (passes or jobs).

    Times and counts are per unit; ratios are taken over the totals.
    The ``service.*`` and ``obs.trace_overhead_ratio`` entries are left
    at 0 here; the workload that measures them fills them in.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    get_hits = get_total = sget_hits = sget_total = 0
    launches_simulated = 0
    distinct = 0
    bytes_written = 0
    workloads = set()

    def under(span: Span, name: str) -> bool:
        return any(a.name == name for a in ancestors(span, by_id))

    for s in spans:
        t = own[s.id]
        name = s.name
        if name == "engine.run":
            out["engine.self_s"] += t
            out["engine.runs"] += 1
        elif name == "workloads.launch_stream":
            out["workloads.gen_s"] += t
            group = s.attrs.get("group", "other")
            if f"workloads.gen_s.{group}" in out:
                out[f"workloads.gen_s.{group}"] += t
            if not under(s, "workloads.launch_stream"):
                out["workloads.streams"] += 1
                out["workloads.launches"] += s.attrs.get("launches", 0)
        elif name == "workloads.init":
            out["workloads.init_s"] += t
            workloads.add(s.attrs.get("abbr"))
        elif name == "profiler.prepare_stream":
            out["profiler.prepare_s"] += t
        elif name == "profiler.aggregate":
            out["profiler.aggregate_s"] += t
        elif name == "gpu.simulate":
            out["gpu.simulate_s"] += t
            launches_simulated += s.attrs.get("launches", 0)
            distinct += s.attrs.get("distinct", 0)
        elif name == "gpu.digest":
            out["gpu.digest_s"] += t
            out["gpu.digests"] += 1
        elif name in ("cache.get", "cache.put"):
            in_stream = under(s, "streamcache.get") or under(s, "streamcache.put")
            if name == "cache.get":
                if in_stream:
                    out["streamcache.get_s"] += t
                else:
                    out["cache.get_s"] += t
                    get_total += 1
                    get_hits += bool(s.attrs.get("hit"))
            elif in_stream:
                out["streamcache.put_s"] += t
            else:
                out["cache.put_s"] += t
                out["cache.puts"] += 1
                bytes_written += s.attrs.get("bytes", 0)
        elif name == "streamcache.get":
            out["streamcache.get_s"] += t
            sget_total += 1
            sget_hits += bool(s.attrs.get("hit"))
        elif name == "streamcache.put":
            out["streamcache.put_s"] += t
        elif name == "serialize.encode":
            out["serialize.encode_s"] += t
        elif name == "serialize.decode":
            out["serialize.decode_s"] += t
            out["serialize.decodes"] += 1
        elif name == "analysis.characterize":
            out["analysis.characterize_s"] += t
        elif name == "analysis.report":
            out["analysis.report_s"] += t
        elif name == "analysis.sweep":
            out["analysis.sweep_s"] += t
        elif name == PASS_SPAN:
            out["obs.unattributed_s"] += t
        out["obs.spans"] += 1

    out["cache.gets"] = float(get_total)
    out["streamcache.gets"] = float(sget_total)
    out["gpu.launches_simulated"] = float(launches_simulated)
    out["gpu.distinct_kernels"] = float(distinct)
    out["cache.bytes_written"] = float(bytes_written)
    out["cache.hit_ratio"] = get_hits / get_total if get_total else 0.0
    out["streamcache.hit_ratio"] = sget_hits / sget_total if sget_total else 0.0
    out["gpu.sim_launches_per_s"] = (
        launches_simulated / out["gpu.simulate_s"] if out["gpu.simulate_s"] > 0 else 0.0
    )
    digests = out["gpu.digests"]
    out["gpu.digests_per_workload"] = digests / len(workloads) if workloads else 0.0
    ratios = {
        "cache.hit_ratio", "streamcache.hit_ratio", "gpu.sim_launches_per_s",
        "gpu.digests_per_workload",
    }
    if units > 0:
        for key in out:
            if key not in ratios:
                out[key] /= units
    return out


def layer_time(summary: Dict[str, float]) -> float:
    """Sum of every layer self time in *summary* (one pass, no overlap)."""
    keys = [
        "workloads.gen_s", "workloads.init_s", "profiler.prepare_s",
        "profiler.aggregate_s", "gpu.simulate_s", "gpu.digest_s", "cache.get_s",
        "cache.put_s", "streamcache.get_s", "streamcache.put_s",
        "serialize.encode_s", "serialize.decode_s", "engine.self_s",
        "analysis.characterize_s", "analysis.report_s", "analysis.sweep_s",
    ]
    return sum(summary[k] for k in keys)

