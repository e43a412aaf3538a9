"""``ServingEngine.run_request`` and the Fig 9 timelines are pinned to goldens.

``golden_engine_requests.json`` holds, for every design on a fixed
switch_base_64 trace, the encoder/decode/total time, peak GPU bytes,
tier-transfer counters and every per-MoE-block latency record of one
served request, under five placements: DRAM offload, SSD offload, SSD
with a DRAM stage, a two-GPU round-robin replica and a per-request LRU
expert cache.  It also holds a digest of each design's Figure 9
one-iteration timeline (``ExecutionTimeline.to_records``).  Every number
must match at 1e-9 and every digest exactly.

Regenerate (only when a change is *meant* to move these numbers)::

    PYTHONPATH=src python tests/serving/test_engine_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.moe import get_config
from repro.serving import EngineConfig, make_engine
from repro.system import SSD_SYSTEM, ExecutionTimeline
from repro.workloads import TraceGenerator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_engine_requests.json")
CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")

#: name -> make_engine knobs.
PLACEMENTS = {
    "dram": {},
    "ssd": {"system": SSD_SYSTEM},
    "ssd_stage32": {"system": SSD_SYSTEM, "stage_policy": "lru",
                    "stage_capacity": 32},
    "2gpu_round_robin": {"num_gpus": 2, "shard_policy": "round_robin"},
    "lru16": {"cache_policy": "lru", "cache_capacity": 16},
}


def request_snapshot(design, placement):
    trace = TraceGenerator(CONFIG, skew=1.2, seed=5).request_trace(
        input_length=16, output_length=6)
    engine = make_engine(design, CONFIG, **PLACEMENTS[placement])
    result = engine.run_request(trace)
    return {
        "encoder_time": result.encoder_time,
        "decode_time": result.decode_time,
        "total_time": result.total_time,
        "peak_gpu_bytes": result.peak_gpu_bytes,
        "tier_stats": engine.placement.transfers.as_dict(),
        "blocks": [[r.part, r.iteration, r.block_index, r.latency,
                    r.num_active_experts, r.exposed_transfer_time]
                   for r in result.block_latencies()],
    }


def fig09_digest(design):
    """SHA-256 of one Figure 9 decoder iteration's timeline records."""
    activations = TraceGenerator(CONFIG, seed=0).iteration_activations(
        num_tokens=1, num_moe_blocks=CONFIG.num_moe_blocks("decoder"))
    engine = make_engine(design, CONFIG,
                         engine_config=EngineConfig(activation_level=1))
    timeline = ExecutionTimeline()
    engine.run_decoder_iteration(activations, timeline=timeline)
    blob = json.dumps(timeline.to_records(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def snapshot():
    return {
        "requests": {f"{design}/{placement}": request_snapshot(design, placement)
                     for design in DESIGNS for placement in PLACEMENTS},
        "fig09_digests": {design: fig09_digest(design) for design in DESIGNS},
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


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("design", DESIGNS)
def test_run_request_matches_golden(goldens, design, placement):
    key = f"{design}/{placement}"
    got = json.loads(json.dumps(request_snapshot(design, placement)))
    assert_close(goldens["requests"][key], got, key)


@pytest.mark.parametrize("design", DESIGNS)
def test_fig09_timeline_matches_golden(goldens, design):
    assert fig09_digest(design) == goldens["fig09_digests"][design]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
