"""The committed reference digests cover what the gates compare."""

import reference
from service_mix import WARMUP


def test_reference_covers_every_gated_result():
    data = reference.load()
    seed0 = data["observation_seed0"]
    report, sweep = seed0["report"], seed0["sweep"]
    devices = {key.split("@")[1] for key in sweep}
    cactus = {key.split("@")[0] for key in sweep}
    assert len(devices) == 8 and cactus <= set(report) and len(report) > len(cactus)
    assert set(sweep) == {f"{a}@{d}" for a in cactus for d in devices}
    for abbr in cactus:  # the zoo's RTX 3080 column is the run_suite result
        assert sweep[f"{abbr}@RTX 3080"] == report[abbr]
    assert 0 < seed0["observations_passed"] <= 12
    assert set(data["laptop_zoo"]) == set(sweep)
    assert WARMUP["suites"] == ["Cactus"]
    for digest in list(report.values()) + list(sweep.values()) + list(data["laptop_zoo"].values()):
        assert len(digest) == 64 and int(digest, 16) >= 0
