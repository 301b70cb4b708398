"""The service-mix request stream is a pure function of the seed."""

import itertools

from service_mix import REQUEST_DECK, request_stream

WORKLOADS = ["GMS", "LMR", "LMC", "GST", "GRU", "DCG", "NST", "RFL", "SPT", "LGT"]
DEVICES = ["EdgeGPU", "P100", "V100", "RTX 3080", "RTX 3090", "A100", "RTX 4090", "H100"]
KERNELS = {abbr: [f"{abbr.lower()}_k{i}" for i in range(4)] for abbr in WORKLOADS}


def take(seed, n=400):
    return list(itertools.islice(request_stream(seed, WORKLOADS, DEVICES, KERNELS), n))


def test_same_seed_same_stream_other_seed_other_stream():
    assert take(7) == take(7)
    assert take(7) != take(8)
    assert take(0)[:5] != take(1)[:5]


def test_requests_are_canonical_and_refer_backwards():
    items = take(3)
    kinds = [item["kind"] for item in items]
    assert kinds.count("similar") > 0 and kinds.count("job") > 0
    share = kinds.count("similar") / len(items)
    assert abs(share - REQUEST_DECK.count("similar") / len(REQUEST_DECK)) < 0.01
    payloads = [item["payload"] for item in items if item["kind"] == "job"]
    repeats = len(payloads) - len({str(sorted(p.items())) for p in payloads})
    assert repeats >= REQUEST_DECK.count("resubmit") / len(REQUEST_DECK) * len(items) * 0.9
    for index, item in enumerate(items):
        if item["kind"] == "similar":
            assert item["ref"] < index and items[item["ref"]]["kind"] == "job"
            continue
        payload = item["payload"]
        assert 1 <= len(payload["workloads"]) <= 3
        assert payload["workloads"] == [w for w in WORKLOADS if w in payload["workloads"]]
        if payload["kind"] == "sweep":
            assert 2 <= len(payload["devices"]) <= 4
            assert payload["devices"] == [d for d in DEVICES if d in payload["devices"]]
        else:
            assert payload["device"] in DEVICES


def test_every_seed_deals_the_same_mix():
    def mix(seed):  # workloads over first submissions (resubmits repeat them)
        firsts = {str(sorted(i["payload"].items())): i["payload"]
                  for i in reversed(take(seed, 300)) if i["kind"] == "job"}
        return [w for p in firsts.values() for w in p["workloads"]]

    counts = [{w: mix(seed).count(w) for w in WORKLOADS} for seed in (0, 1, 2)]
    for per_seed in counts:
        assert max(per_seed.values()) - min(per_seed.values()) <= 0.25 * max(per_seed.values())
