"""The service-mix workload: a closed loop against ``repro serve``.

Set-up fills a result cache with every Cactus workload on every zoo
device at the laptop preset (three times, into separate caches, for a
median set-up time) and checks it against the committed reference
digests, then starts ``repro serve --workers 1`` on it with a quota
far above the offered load.  Two client threads of this
process each send the next request of one seeded stream as soon as
their previous request completes (a closed loop): laptop-preset suite
and sweep jobs over 1-3 workloads, resubmissions of earlier jobs (which
coalesce onto the first), and ``/v1/similar`` queries.

A job's latency runs from sending its POST to the client seeing it
``done``.  Clients poll ``GET /v1/jobs/{id}?result=0`` with a backoff
from 1 ms capped at 5 ms, so completion is seen within a few ms of
``finished_unix``; ``service.poll_lag_s`` reports the lag.  After the
window every distinct job's result is fetched and compared, digest for
digest, with the set-up results for the same (workload, device), and
``/healthz`` must show one engine run per distinct job key.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    dir_mb,
    note,
    peak_rss_mb,
    payload_digest,
    percentile,
    process_peak_rss_mb,
    wait_all,
)

CLIENTS = 2
#: The traffic shares below are chosen, not measured: the repository has
#: no record of service traffic.  Keep them fixed so runs compare.
#: One round of the request deck: 1 similarity query, 2 resubmissions
#: and 7 fresh jobs in every 10 requests.
REQUEST_DECK = ["similar"] + ["resubmit"] * 2 + ["fresh"] * 7
#: Fresh jobs: 3 suite jobs to 2 sweeps; 1-3 workloads, 2-4 devices.
KIND_DECK = ["suite"] * 3 + ["sweep"] * 2
WORKLOAD_COUNTS = [1, 2, 3]
DEVICE_COUNTS = [2, 3, 4]
POLL_FIRST_S = 0.001
POLL_CAP_S = 0.005
JOB_TIMEOUT_S = 60.0
#: Set-up prefills per run; ``setup_s`` takes their median.
PREFILL_SAMPLES = 3
#: Completed jobs per window for ``pass_s`` on this workload.
JOBS_PER_PASS = 8
#: A set-up job over every workload: it loads what the first jobs would
#: otherwise load inside the measured window.  Stream jobs name at most
#: three workloads, so they never coalesce with it.
WARMUP = {"kind": "suite", "suites": ["Cactus"], "preset": "laptop"}
BENCH_DIR = Path(__file__).resolve().parent


# -- the request stream -------------------------------------------------------


class Deck:
    """Deals *items* in a fresh seeded shuffle per round.

    Every round deals each item once, so any window of requests holds
    nearly the same mix whatever the seed; the seed decides the order.
    """

    def __init__(self, rng: random.Random, items: Sequence[Any]) -> None:
        self.rng = rng
        self.items = list(items)
        self.hand: List[Any] = []

    def draw(self) -> Any:
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()

    def draw_distinct(self, count: int) -> set:
        chosen: set = set()
        while len(chosen) < count:
            chosen.add(self.draw())
        return chosen


def request_stream(
    seed: int,
    workloads: Sequence[str],
    devices: Sequence[str],
    kernels: Dict[str, Sequence[str]],
) -> Iterator[Dict[str, Any]]:
    """The seeded, endless request sequence of one run.

    Items are ``{"kind": "job", "payload": ...}`` (a POST body, workloads
    in registration order and devices in zoo order, so equal payloads
    mean equal job keys) or ``{"kind": "similar", "ref": i, "key": ...}``
    asking for neighbours of a kernel that job ``i`` (an earlier item)
    characterizes.  The first request is always a fresh job.
    """
    rng = random.Random(seed)
    decks = {
        name: Deck(rng, items)
        for name, items in [
            ("request", REQUEST_DECK), ("kind", KIND_DECK), ("workload", workloads),
            ("workload_count", WORKLOAD_COUNTS), ("device", devices),
            ("device_count", DEVICE_COUNTS),
        ]
    }
    jobs: List[int] = []
    history: List[Dict[str, Any]] = []
    while True:
        action = decks["request"].draw() if jobs else "fresh"
        if action == "similar":
            ref = rng.choice(jobs)
            payload = history[ref]["payload"]
            abbr = rng.choice(payload["workloads"])
            kernel = rng.choice(list(kernels[abbr]))
            if payload["kind"] == "sweep":
                key = f"{abbr}@{rng.choice(payload['devices'])}:{kernel}"
            else:
                key = f"{abbr}:{kernel}"
            item: Dict[str, Any] = {"kind": "similar", "ref": ref, "key": key}
        elif action == "resubmit":
            item = {"kind": "job", "payload": dict(history[rng.choice(jobs)]["payload"])}
        else:
            chosen = decks["workload"].draw_distinct(decks["workload_count"].draw())
            payload = {
                "kind": decks["kind"].draw(),
                "suites": ["Cactus"],
                "preset": "laptop",
                "workloads": [w for w in workloads if w in chosen],
            }
            if payload["kind"] == "sweep":
                picked = decks["device"].draw_distinct(decks["device_count"].draw())
                payload["devices"] = [d for d in devices if d in picked]
            else:
                payload["device"] = decks["device"].draw()
            item = {"kind": "job", "payload": payload}
        if item["kind"] == "job":
            jobs.append(len(history))
        history.append(item)
        yield item


# -- the server -----------------------------------------------------------------


class Server:
    """``repro serve`` in a child process over a prefilled cache."""

    def __init__(self, state_dir: Path, cache_dir: Path, env: Dict[str, str],
                 spans_path: Optional[Path] = None, spans_out: Optional[Path] = None) -> None:
        args = [
            "--cache-dir", str(cache_dir), "serve", "--state-dir", str(state_dir),
            "--port", "0", "--workers", "1",
            "--quota-burst", "1000000", "--quota-rate", "1000000",
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "traced_server.py"),
                str(spans_path), str(spans_out), *args,
            ]
        self.state_dir = state_dir
        self.spans_path = spans_path
        self.log_path = state_dir.with_suffix(".log")
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, env=env, cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.client = self._wait_ready()
        except BaseException:
            wait_all([self.proc])
            raise
        self.start_s = time.perf_counter() - start
        self.peak_rss_mb = 0.0

    def _wait_ready(self):
        from repro.service.client import ServiceClient, ServiceError

        deadline = time.monotonic() + 60.0
        discovery = self.state_dir / "server.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()[-2000:]}")
            if discovery.is_file():
                try:
                    client = ServiceClient.from_state_dir(self.state_dir)
                    client.healthz()
                    return client
                except (OSError, ValueError, ServiceError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become ready within 60 s")

    def client_for(self, name: str):
        from repro.service.client import ServiceClient

        return ServiceClient(self.client.host, self.client.port, client_id=name)

    def stop(self, since: float) -> Dict[str, float]:
        """SIGTERM, wait for the drain; return the layer summary of the
        traced work that started after *since* (a perf_counter reading)."""
        self.peak_rss_mb = process_peak_rss_mb(self.proc.pid)
        if self.spans_path is not None:
            self.spans_path.with_suffix(".since").write_text(repr(since))
        wait_all([self.proc])
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        if self.spans_path is None:
            return {}
        return json.loads(self.spans_path.with_suffix(".summary.json").read_text())


# -- the closed loop --------------------------------------------------------------


@dataclass
class Outcome:
    """What the clients saw during one window."""

    latencies: List[float] = field(default_factory=list)
    completions: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    poll_lag_s: List[float] = field(default_factory=list)
    similar_s: List[float] = field(default_factory=list)
    submitted: int = 0
    coalesced: int = 0
    similar: int = 0
    rejected: int = 0
    failed: int = 0
    ids: Dict[str, str] = field(default_factory=dict)  # job id -> payload digest
    created: int = 0  # submissions answered coalesced=false
    payloads: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    window_s: float = 0.0


class ClosedLoop:
    def __init__(self, server: Server, stream: Iterator[Dict[str, Any]]) -> None:
        self.server = server
        self.stream = enumerate(stream)
        self.lock = threading.Lock()
        self.done: Dict[int, threading.Event] = {}
        self.ok: Dict[int, bool] = {}
        self.out = Outcome()

    def _next(self) -> Tuple[int, Dict[str, Any]]:
        with self.lock:
            index, item = next(self.stream)
            if item["kind"] == "job":
                self.done[index] = threading.Event()
            return index, item

    def _finish(self, index: int, ok: bool) -> None:
        self.ok[index] = ok
        self.done[index].set()

    def _fail(self, message: str) -> None:
        with self.lock:
            self.out.failed += 1
        note(f"[service] {message}")

    def run(self, seconds: float) -> Outcome:
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._client, args=(f"bench-{n}", deadline), daemon=True)
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")
        self.out.window_s = time.perf_counter() - start
        return self.out

    def _client(self, name: str, deadline: float) -> None:
        client = self.server.client_for(name)
        while time.perf_counter() < deadline:
            index, item = self._next()
            ok = False
            try:
                if item["kind"] == "job":
                    ok = self._job(client, item["payload"])
                else:
                    self._similar(client, item)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self._fail(f"request {index} raised {exc!r}")
            finally:
                if item["kind"] == "job":
                    self._finish(index, ok)

    def _job(self, client, payload: Dict[str, Any]) -> bool:
        from repro.service.client import ServiceError

        t0 = time.perf_counter()
        status, body = client.submit_raw(payload)
        submit_s = time.perf_counter() - t0
        with self.lock:
            self.out.submitted += 1
        if status != 202:
            if status == 429 or status >= 500:
                with self.lock:
                    self.out.rejected += 1
            self._fail(f"submit answered {status}: {body}")
            return False
        job_id, coalesced, summary = body["id"], bool(body["coalesced"]), body
        delay = POLL_FIRST_S
        try:
            while summary["state"] in ("queued", "running"):
                if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                    self._fail(f"job {job_id} not done after {JOB_TIMEOUT_S}s")
                    return False
                time.sleep(delay)
                delay = min(delay * 1.5, POLL_CAP_S)
                summary = client.job(job_id, include_result=False)
        except ServiceError as exc:
            self._fail(f"poll of {job_id} failed: {exc}")
            return False
        seen = time.perf_counter()
        seen_unix = time.time()
        if summary["state"] != "done":
            self._fail(f"job {job_id} ended {summary['state']}: {summary.get('error')}")
            return False
        digest = payload_digest(payload)
        with self.lock:
            out = self.out
            out.latencies.append(seen - t0)
            out.completions.append(seen)
            out.submit_s.append(submit_s)
            if out.ids.setdefault(job_id, digest) != digest:
                self.out.failed += 1
                note(f"[service] job {job_id} answered two different requests")
            out.payloads[job_id] = payload
            if coalesced:
                out.coalesced += 1
            else:
                out.created += 1
                started, finished = summary["started_unix"], summary["finished_unix"]
                out.queue_wait_s.append(started - summary["submitted_unix"])
                # The state turns done just before finished_unix is stamped.
                if finished is not None:
                    out.run_s.append(finished - started)
                    out.poll_lag_s.append(max(0.0, seen_unix - finished))
        return True

    def _similar(self, client, item: Dict[str, Any]) -> None:
        from repro.service.client import ServiceError

        with self.lock:
            self.out.similar += 1
        ref = item["ref"]
        if not self.done[ref].wait(JOB_TIMEOUT_S) or not self.ok[ref]:
            self._fail(f"similar query {item['key']}: its job did not complete")
            return
        t0 = time.perf_counter()
        try:
            answer = client.similar(item["key"], k=5)
        except ServiceError as exc:
            self._fail(f"similar query {item['key']} failed: {exc}")
            return
        elapsed = time.perf_counter() - t0
        if answer.get("query") != item["key"] or not answer.get("neighbors"):
            self._fail(f"similar query {item['key']} answered {answer}")
            return
        with self.lock:
            self.out.similar_s.append(elapsed)


# -- verification -------------------------------------------------------------------


def verify(server: Server, out: Outcome, expected: Dict[str, str]) -> int:
    """Exact checks after the window; returns the number of failures."""
    failures = 0
    client = server.client
    for job_id, payload in out.payloads.items():
        record = client.job(job_id)
        results = record["result"]["results"]
        if payload["kind"] == "sweep":
            pairs = [
                (f"{abbr}@{device}", entry)
                for abbr, per_device in results.items()
                for device, entry in per_device.items()
            ]
            wanted = {f"{a}@{d}" for a in payload["workloads"] for d in payload["devices"]}
        else:
            device = record["result"]["device"]["name"]
            pairs = [(f"{abbr}@{device}", entry) for abbr, entry in results.items()]
            wanted = {f"{a}@{payload['device']}" for a in payload["workloads"]}
        got = {key: payload_digest(entry) for key, entry in pairs}
        runs = record["result"].get("run_profile", {}).get("counters", {}).get("engine.runs")
        if set(got) != wanted or any(got[k] != expected[k] for k in got) or runs != 1.0:
            failures += 1
            note(f"[service] job {job_id} result differs from set-up ({sorted(wanted)})")
    health = client.healthz()
    distinct = len(set(out.ids.values()))
    started = health["engine_runs"]["started"] - 1  # the set-up job
    states = health["jobs"]
    if not (started == distinct == len(out.ids) == out.created):
        failures += 1
        note(
            f"[service] engine runs started {started}, distinct keys {distinct}, "
            f"job ids {len(out.ids)}, created {out.created}"
        )
    if states != {"done": len(out.ids) + 1}:
        failures += 1
        note(f"[service] job states {states}, expected {len(out.ids) + 1} done")
    return failures


# -- set-up and the workload ----------------------------------------------------------


def prefill(cache_dir: Path) -> Tuple[Dict[str, str], Dict[str, List[str]], List[str], List[str]]:
    """Laptop zoo sweep of every Cactus workload into *cache_dir*."""
    from repro.core.config import LAPTOP_SCALE
    from repro.core.serialize import characterization_to_dict
    from repro.core.sweep import run_sweep
    from repro.gpu.device import DEVICE_ZOO

    devices = list(DEVICE_ZOO.values())
    report = run_sweep(devices, ["Cactus"], preset=LAPTOP_SCALE, cache_dir=str(cache_dir))
    if report.failures:
        raise RuntimeError(f"prefill failed: {[f.abbr for f in report.failures]}")
    expected = {
        f"{abbr}@{device}": payload_digest(json.loads(json.dumps(characterization_to_dict(c))))
        for abbr, per_device in report.results.items()
        for device, c in per_device.items()
    }
    kernels = {
        abbr: [k.name for k in per_device[devices[0].name].profile.kernels]
        for abbr, per_device in report.results.items()
    }
    return expected, kernels, list(report.results), [d.name for d in devices]


def warm_up(server: Server) -> float:
    """Run the set-up job to completion; returns its wall time."""
    t0 = time.perf_counter()
    job = server.client.submit(WARMUP)
    if server.client.wait(job["id"], timeout_s=JOB_TIMEOUT_S, poll_s=POLL_CAP_S)["state"] != "done":
        raise RuntimeError("the set-up job did not complete")
    return time.perf_counter() - t0


def pass_blocks(out: Outcome) -> List[float]:
    """Times to complete each successive JOBS_PER_PASS jobs."""
    done = sorted(out.completions)
    return [
        done[i + JOBS_PER_PASS - 1] - done[i - 1]
        for i in range(1, len(done) - JOBS_PER_PASS + 1, JOBS_PER_PASS)
    ]


def window_metrics(out: Outcome) -> Dict[str, float]:
    lat = out.latencies
    blocks = pass_blocks(out)
    return {
        "pass_s": statistics.median(blocks) if blocks else out.window_s,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": percentile(lat, 90),
        "jobs_per_s": len(lat) / out.window_s,
    }


def service_layers(out: Outcome, started_runs: int) -> Dict[str, float]:
    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    distinct = len(set(out.ids.values()))
    return {
        "service.submit_s": med(out.submit_s),
        "service.queue_wait_s": med(out.queue_wait_s),
        "service.run_s": med(out.run_s),
        "service.poll_lag_s": med(out.poll_lag_s),
        "service.similar_s": med(out.similar_s),
        "service.coalesced_ratio": out.coalesced / out.submitted if out.submitted else 0.0,
        "service.engine_runs_per_key": started_runs / distinct if distinct else 0.0,
        "service.rejected": float(out.rejected),
    }


def check_reference(expected: Dict[str, str]) -> int:
    """Mismatches between set-up results and the committed laptop digests."""
    import reference

    committed = reference.load()["laptop_zoo"]
    bad = sorted(set(expected) ^ set(committed) | {
        k for k in expected if expected[k] != committed.get(k)
    })
    if bad:
        note(f"[service] set-up results differ from the committed reference: {bad}")
    return len(bad)


def service_mix(seed: int, seconds: float, trace: bool, run_dir: Path,
                import_s: float, env: Dict[str, str], spans_out: Path):
    """Returns (metrics, attempted, failed)."""
    import layers

    # Set-up is sampled PREFILL_SAMPLES times into separate caches; the
    # server runs on the last one.
    attempted = failed = 0
    prefill_samples = []
    for n in range(PREFILL_SAMPLES):
        cache_dir = run_dir / f"cache-{n}"
        t0 = time.perf_counter()
        expected, kernels, workloads, devices = prefill(cache_dir)
        prefill_samples.append(time.perf_counter() - t0)
        attempted += 1
        failed += min(1, check_reference(expected))
    prefill_s = statistics.median(prefill_samples)
    note("[setup] laptop zoo prefill " + " ".join(f"{t:.3f}s" for t in prefill_samples))

    windows = [("plain", seconds / 2 if trace else seconds)]
    if trace:
        windows.append(("traced", seconds / 2))
    results: Dict[str, Tuple[Outcome, Dict[str, float], int, float, float]] = {}
    servers: List[Server] = []
    try:
        for name, window in windows:
            spans = run_dir / f"spans-{name}.json" if name == "traced" else None
            server = Server(run_dir / f"state-{name}", cache_dir, env, spans, spans_out)
            servers.append(server)
            warm_up_s = warm_up(server)
            os.sync()  # set-up's cache writes must not be flushed inside the window
            since = time.perf_counter()
            out = ClosedLoop(server, request_stream(seed, workloads, devices, kernels)).run(window)
            failed += out.failed + verify(server, out, expected)
            started = server.client.healthz()["engine_runs"]["started"] - 1
            summary = server.stop(since)
            servers.remove(server)
            attempted += out.submitted + out.similar
            results[name] = (
                out, summary, started, server.start_s + warm_up_s, server.peak_rss_mb
            )
            deciles = statistics.quantiles(out.latencies, n=10)
            note(f"[service] {name}: latency deciles (s) " + " ".join(f"{q:.3f}" for q in deciles))
            note(
                f"[service] {name}: {out.submitted} jobs ({out.coalesced} coalesced, "
                f"{len(out.ids)} distinct), {out.similar} similar, server start "
                f"{server.start_s:.3f}s, warm-up job {warm_up_s:.3f}s, engine runs {started}"
            )
    finally:
        for server in servers:
            wait_all([server.proc])

    plain, _, plain_started, server_setup_s, server_rss_mb = results["plain"]
    if not trace:
        metrics = window_metrics(plain)
        note(
            f"[samples] setup_s: {PREFILL_SAMPLES} prefills; pass_s: "
            f"{len(pass_blocks(plain))} blocks of {JOBS_PER_PASS} jobs; latency_p50_s, "
            f"latency_p90_s: {len(plain.latencies)} jobs; jobs_per_s: "
            f"{plain.window_s:.1f}s window"
        )
        metrics.update({
            "setup_s": import_s + prefill_s + server_setup_s,
            "peak_rss_mb": peak_rss_mb() + server_rss_mb,
            "cache_disk_mb": dir_mb(cache_dir),
        })
        return metrics, attempted, failed

    traced, layer_summary = results["traced"][:2]
    summary = {name: 0.0 for name, _, _ in layers.PER_LAYER}
    summary.update({k: v for k, v in layer_summary.items() if k in summary})
    summary.update(service_layers(plain, plain_started))
    summary["obs.trace_overhead_ratio"] = (
        window_metrics(traced)["latency_p50_s"] / window_metrics(plain)["latency_p50_s"]
    )
    return summary, attempted, failed
