"""Batch-1 serving is pinned to recorded goldens.

``golden_batch1_serve.json`` holds the token clocks and load metrics of a
few small ``max_batch_size=1`` serves, recorded before rounds were costed
as one shared pass.  A one-member pass must reduce exactly to the
unbatched pass, so every scenario must reproduce its golden to 1e-9 on
both timeline engines (replay off, so every round is executed).

Regenerate (only when a change is *meant* to move batch-1 numbers)::

    PYTHONPATH=src python tests/serving/test_batch1_golden.py
"""

import json
import os

import pytest

from repro.moe import get_config
from repro.serving import make_scheduler
from repro.system import SSD_SYSTEM
from repro.workloads import TimedRequest, TraceGenerator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_batch1_serve.json")
CONFIG = "switch_base_64"

#: name -> (design, scheduler knobs).  Covers the single-GPU path, the
#: expert-parallel path with residency and DRAM staging, and the design
#: whose plans ignore which experts are active.
SCENARIOS = {
    "pregated": ("pregated", {}),
    "ondemand_ssd_2gpu_cached": ("ondemand", {
        "system": SSD_SYSTEM, "num_gpus": 2, "shard_policy": "round_robin",
        "cache_policy": "lru", "cache_capacity": 8,
        "stage_policy": "lru", "stage_capacity": 16}),
    "prefetch_all": ("prefetch_all", {}),
}


def requests():
    gen = TraceGenerator(get_config(CONFIG), skew=1.2, seed=3)
    arrivals = [0.0, 0.05, 0.3, 0.31, 1.5]
    return [TimedRequest(request_id=i, arrival_time=t,
                         trace=gen.request_trace(input_length=8,
                                                 output_length=10))
            for i, t in enumerate(arrivals)]


def serve(name, engine="array"):
    design, knobs = SCENARIOS[name]
    scheduler = make_scheduler(design, CONFIG, max_batch_size=1,
                               timeline_engine=engine, round_replay=False,
                               **knobs)
    return scheduler.serve(requests())


def snapshot(result):
    """The simulated outputs a golden pins."""
    return {
        "makespan": result.makespan,
        "peak_gpu_bytes": result.peak_gpu_bytes,
        "expert_bytes_transferred": result.expert_bytes_transferred,
        "alltoall_bytes": result.alltoall_bytes,
        "timeline_total_ops": result.timeline_total_ops,
        "device_utilisation": list(result.device_utilisation),
        "cache_stats": (result.cache_stats.as_dict()
                        if result.cache_stats is not None else None),
        "tier_stats": (result.tier_stats.as_dict()
                       if result.tier_stats is not None else None),
        "requests": [{"request_id": r.request_id,
                      "first_scheduled_time": r.first_scheduled_time,
                      "token_times": list(r.token_times)}
                     for r in result.requests],
    }


def assert_close(golden, got, path="", rel=1e-9):
    if isinstance(golden, dict):
        assert set(golden) == set(got), path
        for key in golden:
            assert_close(golden[key], got[key], f"{path}.{key}", rel)
    elif isinstance(golden, list):
        assert len(golden) == len(got), path
        for i, (a, b) in enumerate(zip(golden, got)):
            assert_close(a, b, f"{path}[{i}]", rel)
    elif isinstance(golden, float):
        assert got == pytest.approx(golden, rel=rel, abs=1e-15), path
    else:
        assert got == golden, path


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ["array", "scalar"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch1_serve_matches_golden(goldens, name, engine):
    assert_close(goldens[name], snapshot(serve(name, engine)), name)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({name: snapshot(serve(name)) for name in sorted(SCENARIOS)},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
