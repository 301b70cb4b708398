"""The cold-report and warm-rerun workloads: whole top-down passes.

A report pass is the work of ``repro --preset observation --cache-dir D
report --with-prt``: ``run_suite`` over Cactus, then over
Parboil+Rodinia+Tango, then ``generate_report``.  The warm-rerun pass
adds the eight-device zoo ``run_sweep`` and ``analyze_sweep`` that
``repro sweep --all-devices`` runs.  Every pass is gated: results must be
digest-equal pass to pass (and warm to cold).  At seed 0 they must
also equal the committed reference digests (``reference.json``), the
Cactus streams must hash to the pinned golden digests, and the
Observations 1-12 scoreboard must hold the reference count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import reference
from common import ROOT, characterization_digest, dir_mb, note, percentile
from tracing import Recorder, patched

PRT = ["Parboil", "Rodinia", "Tango"]
GOLDEN = ROOT / "tests" / "golden" / "fixtures" / "stream_digests.json"
#: Fewest passes a run reports a median over.
MIN_PASSES = 3


def preset_for(seed: int) -> Any:
    from repro.core.config import OBSERVATION_SCALE

    return dataclasses.replace(OBSERVATION_SCALE, seed=seed)


def report_pass(cache_dir: Path, preset: Any) -> Tuple[Any, Any, Any]:
    """One ``report --with-prt`` pass into *cache_dir*: (cactus, prt, cache)."""
    from repro.core import cache as cache_mod
    from repro.core import report as report_mod
    from repro.core import suite as suite_mod

    cache = cache_mod.ResultCache(cache_dir=str(cache_dir))
    cactus = suite_mod.run_suite(["Cactus"], preset=preset, cache=cache, keep_going=True)
    prt = suite_mod.run_suite(PRT, preset=preset, cache=cache, keep_going=True)
    report_mod.generate_report(cactus, prt, cache_stats=cache.stats)
    return cactus, prt, cache


def sweep_pass(cache_dir: Path, preset: Any) -> Tuple[Any, Any]:
    """One zoo sweep plus its analysis over *cache_dir*: (report, cache)."""
    from repro.analysis import sweep as analysis_mod
    from repro.core import cache as cache_mod
    from repro.core import sweep as sweep_mod
    from repro.gpu.device import DEVICE_ZOO

    devices = list(DEVICE_ZOO.values())
    cache = cache_mod.ResultCache(cache_dir=str(cache_dir))
    report = sweep_mod.run_sweep(devices, preset=preset, cache=cache, keep_going=True)
    analysis_mod.render_sweep_markdown(analysis_mod.analyze_sweep(report.results, devices))
    return report, cache


# -- correctness gates --------------------------------------------------


def report_digests(cactus: Any, prt: Any) -> Dict[str, str]:
    out = {}
    for run in (cactus, prt):
        if run.failures:
            raise GateError(f"workloads failed: {[f.abbr for f in run.failures]}")
        for abbr, char in run.results.items():
            out[abbr] = characterization_digest(char)
    return out


def sweep_digests(report: Any) -> Dict[str, str]:
    if report.failures:
        raise GateError(f"sweep workloads failed: {[f.abbr for f in report.failures]}")
    return {
        f"{abbr}@{device}": characterization_digest(char)
        for abbr, per_device in report.results.items()
        for device, char in per_device.items()
    }


class GateError(Exception):
    """A pass produced output that differs from what it must be."""


def check_golden(cache_dir: Path, cactus: Any) -> None:
    """At seed 0, each Cactus result is stored under the key of its golden stream.

    ``characterization_key`` hashes (device, options, identity, stream
    digest); rebuilding it from the pinned digest and finding the entry
    proves the generated stream hashed to that digest.
    """
    from repro.core.cache import ResultCache
    from repro.gpu.device import RTX_3080
    from repro.gpu.digest import CACHE_SCHEMA_VERSION, stable_digest
    from repro.gpu.simulator import SimulationOptions

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["presets"]["observation"]
    probe = ResultCache(cache_dir=str(cache_dir), max_memory_entries=0)
    if sorted(cactus.results) != sorted(golden):
        raise GateError(f"Cactus workloads {sorted(cactus.results)} != golden {sorted(golden)}")
    for abbr, char in cactus.results.items():
        identity = {
            "name": char.profile.workload,
            "abbr": char.abbr,
            "suite": char.profile.suite,
            "domain": char.profile.domain,
        }
        key = stable_digest([
            "characterization", CACHE_SCHEMA_VERSION, RTX_3080, SimulationOptions(),
            identity, golden[abbr]["digest"],
        ])
        if probe.get(key) is None:
            raise GateError(f"{abbr}: stream digest differs from the golden fixture")


def observations_passed(cactus: Any, prt: Any) -> int:
    from repro.core.compare import check_observations

    return check_observations(cactus, prt).passed


class Gate:
    """Reference outputs of a run; every pass is compared against them.

    At seed 0 the references are the committed digests; at other seeds
    they are the first results the run produces.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.report: Optional[Dict[str, str]] = None
        self.sweep: Optional[Dict[str, str]] = None
        self.observations: Optional[int] = None
        self.source = "the first pass"
        if seed == 0:
            committed = reference.load()["observation_seed0"]
            self.report = committed["report"]
            self.sweep = committed["sweep"]
            self.observations = committed["observations_passed"]
            self.source = "the committed reference"

    def check_report(self, cache_dir: Path, cactus: Any, prt: Any, cold: bool) -> None:
        digests = report_digests(cactus, prt)
        if self.report is None:
            self.report = digests
        elif digests != self.report:
            bad = sorted(set(digests) ^ set(self.report) | {
                k for k in digests if digests[k] != self.report.get(k)
            })
            raise GateError(f"results differ from {self.source}: {bad}")
        if cold and self.seed == 0:
            check_golden(cache_dir, cactus)
        passed = observations_passed(cactus, prt)
        if self.observations is None:
            self.observations = passed
        elif passed != self.observations:
            raise GateError(f"Observations passed {passed}, expected {self.observations}")

    def check_sweep(self, report: Any) -> None:
        digests = sweep_digests(report)
        for key, digest in digests.items():
            abbr, device = key.split("@")
            if device == "RTX 3080" and self.report and self.report.get(abbr) != digest:
                raise GateError(f"{abbr}: sweep on RTX 3080 differs from run_suite")
        if self.sweep is None:
            self.sweep = digests
        elif digests != self.sweep:
            bad = sorted(set(digests) ^ set(self.sweep) | {
                k for k in digests if digests[k] != self.sweep.get(k)
            })
            raise GateError(f"sweep results differ from {self.source}: {bad}")


# -- measurement loop -----------------------------------------------------


@dataclasses.dataclass
class Passes:
    untraced: List[float] = dataclasses.field(default_factory=list)
    traced: List[float] = dataclasses.field(default_factory=list)
    recorder: Recorder = dataclasses.field(default_factory=Recorder)
    attempted: int = 0
    failed: int = 0


def measure(seconds: float, trace: bool, one_pass, check, prepare=None) -> Passes:
    """Run passes for about *seconds*, and at least MIN_PASSES of them.

    Traced runs alternate untraced and traced passes.  ``prepare()`` and
    a file-system sync run untimed before each pass; ``one_pass()`` does the timed work and
    returns what ``check`` gates; ``check`` raises :class:`GateError` on
    a mismatch.
    """
    out = Passes()
    targets = layers.targets() if trace else []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        # At least MIN_PASSES passes, then none that would end more than
        # half a pass past the end.
        enough = len(out.untraced) + len(out.traced) >= MIN_PASSES
        if enough and elapsed + last / 2 >= seconds:
            break
        if elapsed >= seconds and out.failed >= 3:
            break  # passes of one kind keep failing their gate
        traced = trace and len(out.traced) < len(out.untraced)
        out.attempted += 1
        if prepare is not None:
            prepare()
        # Flush what earlier passes wrote, so its write-back does not
        # compete with this pass's own cache writes.
        os.sync()
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(patched(out.recorder, targets))
                    stack.enter_context(out.recorder.span(layers.PASS_SPAN))
                t0, cpu0 = time.perf_counter(), os.times()
                produced = one_pass()
                took, cpu1 = time.perf_counter() - t0, os.times()
            check(produced)
            del produced  # the next pass must not hold this one's results
        except GateError as exc:
            out.failed += 1
            note(f"[gate] pass {out.attempted} failed: {exc}")
            continue
        (out.traced if traced else out.untraced).append(took)
        last = took
        note(
            f"[pass] {out.attempted}: {took:.3f}s (user {cpu1.user - cpu0.user:.2f}s, "
            f"sys {cpu1.system - cpu0.system:.2f}s){' traced' if traced else ''}"
        )
    return out


def end_to_end(passes: Passes, setup_s: float, rss_mb: float, disk_mb: float) -> Dict[str, float]:
    times = passes.untraced
    median = statistics.median(times)
    note(f"[samples] pass_s, latency_p50_s, latency_p90_s, jobs_per_s: {len(times)} passes")
    return {
        "setup_s": setup_s,
        "pass_s": median,
        "latency_p50_s": median,
        "latency_p90_s": percentile(times, 90),
        "jobs_per_s": 1.0 / median,
        "peak_rss_mb": rss_mb,
        "cache_disk_mb": disk_mb,
    }


def per_layer(passes: Passes) -> Dict[str, float]:
    summary = layers.summarize(passes.recorder.spans, units=len(passes.traced))
    untraced = statistics.median(passes.untraced)
    traced = statistics.median(passes.traced)
    summary["obs.trace_overhead_ratio"] = traced / untraced
    attributed = layers.layer_time(summary)
    note(
        f"[trace] traced pass {traced:.3f}s, untraced {untraced:.3f}s, layer self "
        f"times {attributed:.3f}s, unattributed {summary['obs.unattributed_s']:.4f}s"
    )
    return summary


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- the two workloads ------------------------------------------------------


def cold_report(seed: int, seconds: float, trace: bool, run_dir: Path, import_s: float):
    """Fresh, empty cache directory per pass; set-up is only the import."""
    preset = preset_for(seed)
    gate = Gate(seed)
    dirs: List[Path] = []

    def prepare():
        # A new directory per pass, none deleted until the run ends, so no
        # pass shares the disk with the deletion of the one before.
        dirs.append(fresh_dir(run_dir, f"cache-{len(dirs)}"))

    def one_pass():
        return report_pass(dirs[-1], preset)

    def check(produced):
        cactus, prt, cache = produced
        gate.check_report(dirs[-1], cactus, prt, cold=True)
        if cache.stats.stores == 0:
            raise GateError("a cold pass stored nothing")

    passes = measure(seconds, trace, one_pass, check, prepare)
    return passes, import_s, dir_mb(dirs[-1])


def warm_rerun(seed: int, seconds: float, trace: bool, run_dir: Path, import_s: float):
    """Set-up runs the cold report and a cold zoo sweep into one cache;
    every pass repeats both and must be served entirely from it."""
    preset = preset_for(seed)
    gate = Gate(seed)
    cache_dir = fresh_dir(run_dir, "cache")
    t0 = time.perf_counter()
    cactus, prt, _ = report_pass(cache_dir, preset)
    sweep, _ = sweep_pass(cache_dir, preset)
    prefill_s = time.perf_counter() - t0
    note(f"[setup] cold report + zoo sweep prefill {prefill_s:.3f}s")
    gate.check_report(cache_dir, cactus, prt, cold=True)
    gate.check_sweep(sweep)
    del cactus, prt, sweep

    def one_pass():
        return report_pass(cache_dir, preset), sweep_pass(cache_dir, preset)

    def check(produced):
        (cactus, prt, report_cache), (sweep, sweep_cache) = produced
        gate.check_report(cache_dir, cactus, prt, cold=False)
        gate.check_sweep(sweep)
        stores = report_cache.stats.stores + sweep_cache.stats.stores
        if stores:
            raise GateError(f"warm pass stored {stores} result entries")

    passes = measure(seconds, trace, one_pass, check)
    return passes, import_s + prefill_s, dir_mb(cache_dir)

