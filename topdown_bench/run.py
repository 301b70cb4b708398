"""Top-down pipeline benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 topdown_bench/run.py --workload cold-report --seed 0 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced passes (or server windows)
and reports the per-layer metrics instead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; progress and
gate messages go to standard error.  The exit code is 0 only when every
correctness gate held.  See ``topdown_bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    WORK,
    checkout_ok,
    child_env,
    import_seconds,
    note,
    peak_rss_mb,
    result,
)

WORKLOADS = ("cold-report", "warm-rerun", "service-mix")

#: End-to-end metrics: (name, unit, better).  Every workload reports all
#: of them; ``BENCHMARK.json`` lists the same names with their bounds.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cache_disk_mb", "MB", "lower"),
]


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not checkout_ok():
        note(f"error: no program source at {SRC}; run from the root of a checkout")
        return 2
    seed = args.seed % 2**32
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    # This process runs the pipeline too: same temp dir, same kernel
    # cache, and no REPRO_* setting inherited from the caller.
    os.environ.update({k: env[k] for k in ("TMPDIR", "REPRO_CELLKERNEL_DIR")})
    for name in set(os.environ) - set(env):
        del os.environ[name]
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    try:
        return run(args, seed, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def spans_path(workload: str) -> Path:
    """Where a traced run leaves its spans; the next traced run of the
    same workload replaces the file."""
    return WORK / f"spans-{workload}.json"


def run(args, seed: int, run_dir: Path, env) -> int:
    import repro.cli  # noqa: F401  (compiles bytecode before import timing)
    from repro.workloads.molecular import cellkernel

    cellkernel.load_kernel()  # build step: compiled once per checkout
    import_s = import_seconds(env)
    trace = bool(args.trace)

    if args.workload == "service-mix":
        from service_mix import service_mix

        metrics, attempted, failed = service_mix(
            seed, args.seconds, trace, run_dir, import_s, env, spans_path(args.workload)
        )
    else:
        import pipeline

        workload = pipeline.cold_report if args.workload == "cold-report" else pipeline.warm_rerun
        passes, setup_s, disk_mb = workload(seed, args.seconds, trace, run_dir, import_s)
        attempted, failed = passes.attempted, passes.failed
        if not passes.untraced or (trace and not passes.traced):
            metrics = {}
        elif trace:
            metrics = pipeline.per_layer(passes)
            passes.recorder.dump(str(spans_path(args.workload)))
        else:
            metrics = pipeline.end_to_end(passes, setup_s, peak_rss_mb(), disk_mb)

    import layers

    wanted = layers.PER_LAYER if trace else END_TO_END
    units = {name: unit for name, unit, _ in wanted}
    correct = failed == 0 and set(metrics) >= set(units)
    if not correct:
        note(f"[bench] {failed} of {attempted} operations failed")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    note(f"[bench] {args.workload} seed {args.seed}: failed_ratio 0 of {attempted}")
    print(json.dumps(result(True, attempted, 0, {k: metrics[k] for k in units}, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
