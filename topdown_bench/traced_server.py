"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python topdown_bench/traced_server.py CONTROL SPANS.json <repro CLI args>``.
Runs the CLI in this process; when the server drains (SIGTERM) it writes
every span to ``SPANS.json`` and the per-engine-run layer summary to
``CONTROL.summary.json``.  If ``CONTROL.since`` holds a ``perf_counter``
reading (a system-wide monotonic clock on Linux), the summary covers
only span trees that started after it, leaving out set-up work.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    control, spans_out = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from tracing import Recorder, ancestors, patched

    from repro.cli import main as cli_main

    recorder = Recorder()
    with patched(recorder, layers.targets()):
        code = cli_main(sys.argv[3:])
    since_path = control.with_suffix(".since")
    since = float(since_path.read_text()) if since_path.is_file() else float("-inf")
    by_id = {s.id: s for s in recorder.spans}
    roots = {s.id for s in recorder.spans if s.parent is None and s.start >= since}
    kept = [
        s for s in recorder.spans
        if s.id in roots or any(a.id in roots for a in ancestors(s, by_id))
    ]
    runs = sum(1 for s in kept if s.name == "engine.run")
    summary = layers.summarize(kept, units=max(runs, 1))
    recorder.dump(spans_out)
    control.with_suffix(".summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
