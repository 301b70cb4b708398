"""Stream cache: lossless round trips, disjoint keys, schema safety."""

import pytest

from repro.core.cache import characterization_key
from repro.core import streamcache
from repro.core.streamcache import (
    DIGEST_RECORD_TAG,
    STREAM_CACHE_SCHEMA_VERSION,
    StreamCache,
    launches_from_payload,
    launches_to_payload,
    stream_key,
    workload_settings,
)
from repro.gpu.digest import launch_stream_digest
from repro.workloads import get_workload

IDENTITY = {
    "name": "Gromacs",
    "abbr": "GMS",
    "suite": "Cactus",
    "domain": "MD",
}


@pytest.fixture(scope="module")
def stream():
    return list(get_workload("GMS", scale=0.05, seed=7).launch_stream())


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self, stream):
        rebuilt = launches_from_payload(launches_to_payload(stream))
        assert rebuilt == stream
        # Bit-exactness in one shot: the content digest the result
        # cache keys on is computed from every float in the stream.
        assert launch_stream_digest(rebuilt) == launch_stream_digest(stream)

    def test_rebuilt_stream_shares_kernel_objects(self, stream):
        """Equal kernels deserialize to one object — the simulator's
        per-kernel memo and metric sharing rely on cheap equality."""
        rebuilt = launches_from_payload(launches_to_payload(stream))
        distinct = {id(ln.kernel) for ln in rebuilt}
        assert len(distinct) == len({ln.kernel for ln in stream})

    def test_disk_round_trip(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key(IDENTITY, 0.05, 7)
        assert cache.get(key) is None
        cache.put(key, stream)
        # A fresh handle (fresh process in real life) sees it.
        again = StreamCache(cache_dir=tmp_path).get(key)
        assert again == stream

    def test_digest_record_round_trip(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key(IDENTITY, 0.05, 7, tag=DIGEST_RECORD_TAG)
        assert cache.get_digest(key) is None
        cache.put_digest(key, launch_stream_digest(stream), len(stream))
        again = StreamCache(cache_dir=tmp_path)
        assert again.get_digest(key) == launch_stream_digest(stream)
        assert again.backend.get(key) == {
            "digest": launch_stream_digest(stream),
            "launches": len(stream),
        }

    def test_malformed_record_is_a_miss(self, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key(IDENTITY, 0.05, 7, tag=DIGEST_RECORD_TAG)
        cache.backend.put(key, {"digest": 12, "launches": 3})
        assert cache.get_digest(key) is None


class TestKeys:
    def test_key_varies_with_every_component(self):
        base = stream_key(IDENTITY, 0.05, 7, steady_state=True)
        assert base != stream_key(IDENTITY, 0.06, 7)
        assert base != stream_key(IDENTITY, 0.05, 8)
        assert base != stream_key(IDENTITY, 0.05, 7, steady_state=False)
        other = dict(IDENTITY, abbr="LMR")
        assert base != stream_key(other, 0.05, 7)
        assert base != stream_key(IDENTITY, 0.05, 7, settings={"steps": 9})
        assert base != stream_key(IDENTITY, 0.05, 7, tag=DIGEST_RECORD_TAG)

    def test_generator_fingerprint_is_folded_in(self, monkeypatch):
        """An edit to the generator code moves every stream key, so a
        stale stream or digest record is never read."""
        base = stream_key(IDENTITY, 0.05, 7)
        record = stream_key(IDENTITY, 0.05, 7, tag=DIGEST_RECORD_TAG)
        monkeypatch.setattr(
            streamcache, "generator_fingerprint", lambda: "edited"
        )
        assert stream_key(IDENTITY, 0.05, 7) != base
        assert stream_key(IDENTITY, 0.05, 7, tag=DIGEST_RECORD_TAG) != record

    def test_generator_fingerprint_is_computed_once(self):
        first = streamcache.generator_fingerprint()
        assert len(first) == 64
        assert streamcache.generator_fingerprint.cache_info().currsize == 1
        assert streamcache.generator_fingerprint() == first

    def test_workload_settings_cover_constructor_arguments(self):
        default = get_workload("GST", scale=0.05)
        moved = type(default)(scale=0.05, source=7)
        assert workload_settings(default) != workload_settings(moved)
        assert "source" in workload_settings(default)

    def test_disjoint_from_characterization_keys(self, stream):
        """Stream keys can never collide with result-cache keys even in
        a shared backend — different digest tag and schema axis."""
        from repro.gpu.device import RTX_3080
        from repro.gpu.simulator import SimulationOptions

        skey = stream_key(IDENTITY, 0.05, 7)
        ckey = characterization_key(
            RTX_3080, SimulationOptions(), IDENTITY, stream
        )
        assert skey != ckey


class TestSchemaSafety:
    def test_schema_mismatch_is_a_miss(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key(IDENTITY, 0.05, 7)
        payload = launches_to_payload(stream)
        payload["schema"] = STREAM_CACHE_SCHEMA_VERSION + 1
        cache.backend.put(key, payload)
        assert cache.get(key) is None

    def test_corrupt_payload_is_a_miss(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key(IDENTITY, 0.05, 7)
        payload = launches_to_payload(stream)
        del payload["kernels"][0]["mix"]
        cache.backend.put(key, payload)
        assert cache.get(key) is None

    def test_from_payload_raises_on_bad_schema(self, stream):
        payload = launches_to_payload(stream)
        payload["schema"] = "banana"
        with pytest.raises(ValueError):
            launches_from_payload(payload)
