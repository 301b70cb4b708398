"""Reference digests of every simulated result the gates check.

``reference.json`` (next to this file) holds the sha256 of each
serialized characterization that the benchmark's workloads produce, as
the program produced them at the commit this benchmark was written
against:

- ``observation_seed0.report``: Cactus and Parboil+Rodinia+Tango on the
  default device, observation preset, seed 0 (cold-report, warm-rerun);
- ``observation_seed0.sweep``: Cactus on every zoo device, same preset
  (the warm-rerun sweep), keyed ``ABBR@DEVICE``;
- ``observation_seed0.observations_passed``: the Observations 1-12 count;
- ``laptop_zoo``: Cactus on every zoo device at the laptop preset (the
  service-mix cache), keyed ``ABBR@DEVICE``.

Passes at seed 0 and every service-mix run are gated against these, so a
change that moves any simulated figure fails the benchmark even when it
is consistent within one run.  Remake the file only for a change that is
meant to alter simulated results, from the root of a checkout::

    python3 topdown_bench/reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

PATH = Path(__file__).resolve().parent / "reference.json"


def load() -> Dict[str, Any]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def compute(work: Path) -> Dict[str, Any]:
    """Run the reference workloads into fresh caches under *work*."""
    import pipeline
    import service_mix

    preset = pipeline.preset_for(0)
    cactus, prt, _ = pipeline.report_pass(work / "observation", preset)
    sweep, _ = pipeline.sweep_pass(work / "observation", preset)
    laptop = service_mix.prefill(work / "laptop")[0]
    return {
        "observation_seed0": {
            "report": pipeline.report_digests(cactus, prt),
            "sweep": pipeline.sweep_digests(sweep),
            "observations_passed": pipeline.observations_passed(cactus, prt),
        },
        "laptop_zoo": laptop,
    }


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import SRC, WORK, child_env

    sys.path.insert(0, str(SRC))
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work / "tmp")
    for name in set(os.environ) - set(env):
        del os.environ[name]
    os.environ.update(env)
    tempfile.tempdir = str(work / "tmp")
    try:
        data = compute(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
