"""Self-time arithmetic, layer attribution and wrapper install/restore."""

import math

import layers
from tracing import Recorder, Span, Target, covered, patched, self_times


def span(id, name, parent, start, end, **attrs):
    return Span(id, name, parent, start, end, attrs)


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5 s)
    # and [8, 12] (clipped to the root: 2 s); child 1 has a grandchild
    # [2, 3] that must not count against the root.
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),
        span(3, "c", 0, 8.0, 12.0),
        span(4, "d", 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert math.isclose(own[0], 10.0 - 5.0 - 2.0)
    assert math.isclose(own[1], 3.0 - 1.0)
    assert math.isclose(own[2], 3.0)
    assert math.isclose(own[4], 1.0)


def test_covered_merges_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(-5, 1), (2, 3), (2.5, 4), (9, 20)]) == 1 + 2 + 1
    assert covered(0, 10, [(11, 12)]) == 0


def test_summary_adds_up_and_bills_stream_cache_reads_to_the_stream_layer():
    spans = [
        span(0, layers.PASS_SPAN, None, 0.0, 10.0),
        span(1, "engine.run", 0, 0.5, 9.5),
        span(2, "workloads.launch_stream", 1, 1.0, 5.0, group="molecular", launches=7),
        span(3, "streamcache.get", 1, 5.0, 6.0, hit=True),
        span(4, "cache.get", 3, 5.2, 5.8, hit=True),
        span(5, "cache.get", 1, 6.0, 6.5, hit=False),
        span(6, "gpu.digest", 1, 7.0, 8.0),
        span(7, "workloads.init", 1, 0.6, 0.8, abbr="GMS"),
    ]
    out = layers.summarize(spans, units=1)
    assert set(out) == {name for name, _, _ in layers.PER_LAYER}
    assert math.isclose(out["streamcache.get_s"], 1.0)
    assert math.isclose(out["cache.get_s"], 0.5)
    assert out["cache.gets"] == 1 and out["cache.hit_ratio"] == 0.0
    assert out["streamcache.gets"] == 1 and out["streamcache.hit_ratio"] == 1.0
    assert math.isclose(out["workloads.gen_s.molecular"], 4.0)
    assert out["workloads.launches"] == 7
    assert out["gpu.digests_per_workload"] == 1.0
    assert math.isclose(out["engine.self_s"], 9.0 - 4.0 - 1.0 - 0.5 - 1.0 - 0.2)
    assert math.isclose(layers.layer_time(out) + out["obs.unattributed_s"], 10.0)


def test_patched_wraps_every_lookup_site_and_restores_them():
    import repro.core.cache as cache_mod
    import repro.gpu.digest as digest_mod

    original = digest_mod.launch_stream_digest
    assert cache_mod.launch_stream_digest is original
    recorder = Recorder()
    with patched(recorder, [Target("repro.gpu.digest", "launch_stream_digest", "gpu.digest")]):
        assert cache_mod.launch_stream_digest is not original
        assert cache_mod.launch_stream_digest([]) == original([])
    assert digest_mod.launch_stream_digest is original
    assert cache_mod.launch_stream_digest is original
    assert [s.name for s in recorder.spans] == ["gpu.digest"]
    assert recorder.spans[0].parent is None and recorder.spans[0].end >= recorder.spans[0].start


def test_every_workload_class_is_wrapped():
    from repro.workloads.registry import get_workload, list_workloads

    wrapped = set(layers.workload_classes())
    for abbr in list_workloads():
        cls = type(get_workload(abbr, scale=0.01))
        owner = next(c for c in cls.__mro__ if "launch_stream" in c.__dict__)
        assert owner in wrapped, abbr


def test_hooks_keep_scalars_not_the_pipeline_data(tmp_path):
    from repro.core.cache import ResultCache

    cache = ResultCache(cache_dir=str(tmp_path))
    payload = {"a": [1, 2, 3], "b": "x"}
    recorder = Recorder()
    target = Target("repro.core.cache:ResultCache", "put", "cache.put", layers._bytes_written)
    with patched(recorder, [target]):
        cache.put("ab" + "0" * 62, payload)
    (put,) = recorder.spans
    assert put.attrs == {"bytes": len('{"a":[1,2,3],"b":"x"}')}

    shared = object()
    per_device = [[shared, shared, object()], [object()]]
    sim = span(0, "gpu.simulate", None, 0.0, 1.0)
    layers._simulated(sim, (), {}, per_device)
    assert sim.attrs == {"launches": 4, "distinct": 3}
    layers._simulated(sim, (), {}, per_device[0])
    assert sim.attrs == {"launches": 3, "distinct": 2}
