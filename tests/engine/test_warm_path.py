"""Warm runs resolve results through the stream-digest record.

A run whose results are all cached must not generate, load or hash a
single stream: the stream cache's digest record (see
:mod:`repro.core.streamcache`) gives each workload's stream digest, and
the digest gives every device's result key.  These cases pin that down
on count — ``stream-gen`` spans from the run profile, and
``launch_stream_digest`` calls — at the laptop preset.
"""

import hashlib
import importlib
import json
import shutil

import pytest

from repro.core import CharacterizationEngine, ResultCache, run_suite, run_sweep
from repro.core import streamcache as streamcache_mod
from repro.core.config import LAPTOP_SCALE
from repro.core.serialize import characterization_to_dict
from repro.gpu import DEVICE_ZOO, V100
from repro.gpu.digest import launch_stream_digest
from repro.workloads import get_workload
from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.registry import _REGISTRY, _SUITES, register_workload

# The module, not the function ``repro.core`` re-exports under its name.
characterize_mod = importlib.import_module("repro.core.characterize")

WLS = ["GMS", "GST", "DCG"]
ZOO = list(DEVICE_ZOO.values())


def result_digest(char):
    payload = json.dumps(
        characterization_to_dict(char), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digests(report):
    return {abbr: result_digest(char) for abbr, char in report.results.items()}


def stream_entries(cache_dir):
    """Every payload under ``<cache_dir>/streams``, parsed."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((cache_dir / "streams").rglob("*.json"))
    ]


@pytest.fixture
def count_digests(monkeypatch):
    """Count ``launch_stream_digest`` calls on the characterization path."""
    calls = []

    def counting(launches, *args, **kwargs):
        calls.append(1)
        return launch_stream_digest(launches, *args, **kwargs)

    monkeypatch.setattr(characterize_mod, "launch_stream_digest", counting)
    return calls


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold serial run into a persistent cache: (cache_dir, report)."""
    cache_dir = tmp_path_factory.mktemp("cold") / "cache"
    report = run_suite(
        workloads=WLS, preset=LAPTOP_SCALE, cache_dir=str(cache_dir)
    )
    return cache_dir, report


@pytest.fixture
def warm_dir(cold, tmp_path):
    """A private copy of the cold cache, free to modify."""
    copy = tmp_path / "cache"
    shutil.copytree(cold[0], copy)
    return copy


class TestWarmSuite:
    def test_serial_warm_run_never_generates_or_hashes(
        self, cold, warm_dir, count_digests
    ):
        cache = ResultCache(cache_dir=str(warm_dir))
        warm = run_suite(workloads=WLS, preset=LAPTOP_SCALE, cache=cache)
        assert "span.stream-gen_s" not in warm.run_profile.histograms
        assert count_digests == []
        assert cache.stats.misses == 0 and cache.stats.stores == 0
        assert digests(warm) == digests(cold[1])

    def test_pool_warm_run_never_generates_or_hashes(
        self, cold, warm_dir, monkeypatch
    ):
        # Forked pool workers inherit this patch, so a worker that
        # hashed a stream would fail its workload (and the strict run).
        def forbidden(*args, **kwargs):
            raise AssertionError("a warm run hashed a stream")

        monkeypatch.setattr(characterize_mod, "launch_stream_digest", forbidden)
        warm = run_suite(
            workloads=WLS, preset=LAPTOP_SCALE, cache_dir=str(warm_dir), jobs=2
        )
        profile = warm.run_profile
        assert "span.stream-gen_s" not in profile.histograms
        assert profile.counter("cache.misses") == 0
        assert digests(warm) == digests(cold[1])

    def test_cache_without_records_still_hits_and_writes_them(
        self, cold, warm_dir, count_digests
    ):
        """A cache laid out before digest records existed (no
        ``streams/``): every result still hits, each workload is
        generated and hashed once, and the records are written."""
        shutil.rmtree(warm_dir / "streams")
        cache = ResultCache(cache_dir=str(warm_dir))
        warm = run_suite(workloads=WLS, preset=LAPTOP_SCALE, cache=cache)
        assert cache.stats.misses == 0 and cache.stats.stores == 0
        assert warm.run_profile.histograms["span.stream-gen_s"]["count"] == len(
            WLS
        )
        assert len(count_digests) == len(WLS)
        assert digests(warm) == digests(cold[1])
        records = stream_entries(warm_dir)
        assert len(records) == len(WLS)
        assert all(set(r) == {"digest", "launches"} for r in records)

        count_digests.clear()
        again = run_suite(workloads=WLS, preset=LAPTOP_SCALE, cache_dir=str(warm_dir))
        assert "span.stream-gen_s" not in again.run_profile.histograms
        assert count_digests == []

    def test_cold_suite_writes_records_not_stream_payloads(self, cold):
        entries = stream_entries(cold[0])
        assert len(entries) == len(WLS)
        for entry in entries:
            assert set(entry) == {"digest", "launches"}
            assert len(entry["digest"]) == 64 and entry["launches"] > 0


class TestRecordCheck:
    def test_hand_edited_record_is_detected_and_rewritten(
        self, cold, warm_dir, count_digests
    ):
        paths = sorted((warm_dir / "streams").rglob("*.json"))
        target = paths[0]
        record = json.loads(target.read_text(encoding="utf-8"))
        true_digest = record["digest"]
        record["digest"] = "0" * 64
        target.write_text(json.dumps(record), encoding="utf-8")

        cache = ResultCache(cache_dir=str(warm_dir))
        warm = run_suite(workloads=WLS, preset=LAPTOP_SCALE, cache=cache)
        # The bogus digest keys nothing, so that workload is generated,
        # hashed, found stale, and keyed on the recomputed digest.
        profile = warm.run_profile
        assert profile.counter("streamcache.digest_mismatch") == 1
        assert profile.histograms["span.stream-gen_s"]["count"] == 1
        assert len(count_digests) == 1
        assert cache.stats.stores == 0
        assert digests(warm) == digests(cold[1])
        rewritten = json.loads(target.read_text(encoding="utf-8"))
        assert rewritten["digest"] == true_digest


class TestSweepDigests:
    def test_cold_zoo_sweep_hashes_once_per_workload(
        self, tmp_path, count_digests
    ):
        report = run_sweep(
            ZOO,
            workloads=WLS,
            preset=LAPTOP_SCALE,
            cache_dir=str(tmp_path / "cache"),
        )
        assert len(count_digests) == len(WLS)
        assert sorted(report.results) == sorted(WLS)

    def test_warm_zoo_sweep_never_generates_or_hashes(
        self, tmp_path, count_digests
    ):
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(ZOO, workloads=WLS, preset=LAPTOP_SCALE, cache_dir=cache_dir)
        count_digests.clear()
        warm = run_sweep(ZOO, workloads=WLS, preset=LAPTOP_SCALE, cache_dir=cache_dir)
        assert "span.stream-gen_s" not in warm.run_profile.histograms
        assert "span.stream-cache-lookup_s" not in warm.run_profile.histograms
        assert count_digests == []
        for abbr in WLS:
            assert warm.results[abbr] == cold.results[abbr]


class TestSingleWorkloadEntryPoint:
    def test_engine_characterize_warm_needs_no_stream(self, tmp_path):
        """``CharacterizationEngine.characterize`` uses the same resolver."""
        cache_dir = str(tmp_path / "cache")
        calls = {"n": 0}

        def fresh_gst():
            workload = get_workload(
                "GST",
                scale=LAPTOP_SCALE.for_workload("GST"),
                seed=LAPTOP_SCALE.seed,
            )
            original = workload.launch_stream

            def counting():
                calls["n"] += 1
                return original()

            workload.launch_stream = counting
            return workload

        engine = CharacterizationEngine(cache=ResultCache(cache_dir=cache_dir))
        first = engine.characterize(fresh_gst())
        assert calls["n"] == 1
        # A new engine (a new process in real life) on the same cache.
        engine = CharacterizationEngine(cache=ResultCache(cache_dir=cache_dir))
        again = engine.characterize(fresh_gst())
        assert calls["n"] == 1
        assert again == first
        # A miss on a new device needs the stream itself: a suite-style
        # call stores no payload, so it is generated once more.
        engine.device = V100
        on_v100 = engine.characterize(fresh_gst())
        assert calls["n"] == 2
        assert on_v100.profile.total_time_s != first.profile.total_time_s

    def test_settings_beyond_scale_and_seed_get_their_own_record(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        scale = LAPTOP_SCALE.for_workload("GST")
        engine = CharacterizationEngine(cache=ResultCache(cache_dir=cache_dir))
        default = engine.characterize(get_workload("GST", scale=scale))
        other = type(get_workload("GST", scale=scale))(scale=scale, source=7)
        moved = engine.characterize(other)
        fresh = CharacterizationEngine().characterize(
            type(other)(scale=scale, source=7)
        )
        assert moved == fresh
        assert moved != default


class _ForeignWorkload(Workload):
    """A workload class defined outside ``repro.workloads``."""

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        info = WorkloadInfo(
            name="Foreign NN", abbr="XTESTNN", suite="XTestSuite", domain="Test"
        )
        super().__init__(info, scale=scale, seed=seed)

    def launch_stream(self):
        return get_workload("NN", scale=self.scale, seed=self.seed).launch_stream()


@pytest.fixture
def foreign_suite():
    register_workload("XTESTNN", "XTestSuite", _ForeignWorkload)
    yield "XTestSuite"
    del _REGISTRY["XTESTNN"]
    del _SUITES["XTestSuite"]


class TestForeignWorkloads:
    def test_registered_elsewhere_never_reads_a_record(
        self, foreign_suite, tmp_path, monkeypatch
    ):
        reads = []
        original = streamcache_mod.StreamCache.get_digest

        def spying(self, key):
            reads.append(key)
            return original(self, key)

        monkeypatch.setattr(streamcache_mod.StreamCache, "get_digest", spying)
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            report = run_suite(
                suites=[foreign_suite], preset=LAPTOP_SCALE, cache_dir=cache_dir
            )
            # Content-addressed every time: generate, then hash.
            assert report.run_profile.histograms["span.stream-gen_s"]["count"] == 1
        assert reads == []
        assert not (tmp_path / "cache" / "streams").exists()
        assert report.run_profile.counter("cache.disk_hits") == 1
