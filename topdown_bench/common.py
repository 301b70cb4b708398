"""Paths, environment, statistics and digests shared by the workloads.

The benchmark runs from the root of a checkout and keeps everything it
writes under ``<root>/.topdown_work``: the compiled pair-counter cache
(kept between runs), and one directory per run for caches, service
state, temporary files and traces (removed when the run ends).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".topdown_work"

#: What a user's ``repro`` command imports before it does any work.
IMPORT_PROBE = "import repro.cli, repro.analysis.sweep"


def checkout_ok() -> bool:
    """True when the working directory holds the program's source."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment for this process's children: checkout source, local temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env["REPRO_CELLKERNEL_DIR"] = str(WORK / "cellkernel")
    for name in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_JOBS", "REPRO_PROXY_TOL",
                 "REPRO_RETRIES", "REPRO_TIMEOUT", "REPRO_STATE_DIR"):
        env.pop(name, None)
    return env


def import_seconds(env: Dict[str, str], repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
            cwd=str(ROOT), stdout=subprocess.DEVNULL, timeout=60,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process in MiB (0 when /proc cannot tell)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def dir_mb(path: Path) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total / (1024.0 * 1024.0)


def payload_digest(payload: Any) -> str:
    """sha256 of a JSON payload in canonical form (key order, no spaces)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def characterization_digest(result: Any) -> str:
    """Digest of a Characterization's serialized form."""
    from repro.core.serialize import characterization_to_dict

    return payload_digest(characterization_to_dict(result))


def result(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any],
           units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def wait_all(procs: List[subprocess.Popen], timeout: float = 30.0) -> None:
    """Terminate, then kill, every child still alive; reap each one."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
