"""The serving-simulator workloads: ``decode_b1`` and ``batch8_offload``.

Each run builds one open-loop request stream and serves it through
``ContinuousBatchingScheduler.serve`` with default run options (array
timeline, round replay on, no trace, no probes), on a fresh scheduler per
serve call so no residency state carries from one call into the next.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.moe.configs import get_config
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.system.hardware import PAPER_SYSTEM, SSD_SYSTEM, SystemSpec
from repro.workloads.arrivals import TimedRequest
from repro.workloads.traces import TraceGenerator

from . import calibrate, layers
from .gate import check_served, compare_load, digest, load_metrics
from .report import Report
from .spans import SpanRecorder, instrument

MODEL = "switch_base_128"
DESIGN = "pregated"
ROUTING_SKEW = 1.2
#: The Poisson arrival path is fixed; ``--seed`` draws the routing.  The TTFT
#: p50 and p90 of independently seeded Poisson paths spread 25% and 72% from
#: seed to seed (1000 requests of decode_b1), far beyond any usable bound.
ARRIVAL_SEED = 0
#: Set-ups per run: at least this many, and more until :data:`SETUP_MIN_S`
#: seconds have passed; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: Fewest timed serve calls per run.
MIN_SERVES = 2


@dataclass(frozen=True)
class SimWorkload:
    name: str
    num_requests: int
    input_length: int
    output_length: int
    #: Offered load of the open-loop generator, requests per simulated second.
    rate: float
    max_batch_size: int
    system: SystemSpec = PAPER_SYSTEM
    placement: Tuple[Tuple[str, object], ...] = ()
    #: Requests served twice (replay on / off) by the replay audit; 0 = none.
    audit_prefix: int = 0


#: Batch 1, DRAM offload, no cache: ~95% of decode rounds are fast-forwarded
#: by round replay.  0.8 req/s is ~75% of the ~1.08 req/s simulated capacity.
DECODE_B1 = SimWorkload("decode_b1", num_requests=500, input_length=8, output_length=96,
                        rate=0.8, max_batch_size=1, audit_prefix=40)

#: Batch 8 on SSD offload over two GPUs with an expert cache and a DRAM
#: stage: batch membership keeps changing, so replay stands down and emit,
#: commit, routing and residency carry the run.  1.2 req/s is ~73% of the
#: ~1.65 req/s simulated capacity; at 1.6 req/s the TTFT p90 spread 25%
#: from routing seed to routing seed.
BATCH8_OFFLOAD = SimWorkload(
    "batch8_offload", num_requests=200, input_length=32, output_length=32, rate=1.2,
    max_batch_size=8, system=SSD_SYSTEM,
    placement=(("num_gpus", 2), ("shard_policy", "round_robin"), ("cache_policy", "lru"),
               ("cache_capacity", 256), ("stage_policy", "lru"), ("stage_capacity", 512)))


def arrival_times(num_requests: int, rate: float) -> np.ndarray:
    gaps = np.random.default_rng(ARRIVAL_SEED).exponential(1.0 / rate, size=num_requests)
    return np.cumsum(gaps)


def make_requests(wl: SimWorkload, seed: int) -> List[TimedRequest]:
    """The workload's request stream; ``seed`` draws every request's routing."""
    traces = TraceGenerator(get_config(MODEL), skew=ROUTING_SKEW, seed=seed).workload(
        wl.num_requests, input_length=wl.input_length, output_length=wl.output_length)
    arrivals = arrival_times(wl.num_requests, wl.rate)
    return [TimedRequest(request_id=i, arrival_time=float(arrivals[i]), trace=trace)
            for i, trace in enumerate(traces)]


def make_scheduler(wl: SimWorkload, **options) -> ContinuousBatchingScheduler:
    return ContinuousBatchingScheduler(DESIGN, MODEL, system=wl.system,
                                       max_batch_size=wl.max_batch_size,
                                       **dict(wl.placement), **options)


def sim_metrics(result) -> Dict[str, Tuple[float, str]]:
    """The simulated-time end-to-end metrics of one serve call."""
    ttft, tbt = result.ttft_stats, result.tbt_stats
    return {
        "sim_tok_per_s": (result.sustained_tokens_per_second, "tok/sim_s"),
        "sim_ttft_p50_s": (ttft.p50, "sim_s"),
        "sim_ttft_p90_s": (ttft.p90, "sim_s"),
        "sim_tbt_p50_ms": (tbt.p50 * 1e3, "sim_ms"),
        "sim_tbt_p99_ms": (tbt.p99 * 1e3, "sim_ms"),
        "sim_peak_hbm_gb": (result.peak_gpu_bytes / 1e9, "GB"),
    }


def sim_counts(result) -> Dict[str, int]:
    """Sample counts behind :func:`sim_metrics`' percentiles."""
    return {"ttft_samples": result.ttft_stats.count, "tbt_samples": result.tbt_stats.count}


def _stats(result) -> None:
    # The statistics a caller builds from a result (what ``metrics.stats``
    # times in the traced run).
    for kind in ("ttft", "tbt", "queueing", "e2e"):
        getattr(result, f"{kind}_stats")


@dataclass
class _Served:
    walls: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    first: Optional[object] = None
    digest: str = ""


def _serve_until(wl: SimWorkload, requests, seconds: float, report: Report) -> _Served:
    """Serve the stream on fresh schedulers while another serve fits in ``seconds``.

    Serves at least :data:`MIN_SERVES` times; every serve must simulate the
    same thing (equal digests).
    """
    served = _Served()
    phase = report.phase("serve")
    started = time.perf_counter()
    while True:
        scheduler = make_scheduler(wl)
        result, wall, scaled = calibrate.timed(
            lambda: scheduler.serve(requests, offered_load=wl.rate))
        served.walls.append(wall)
        served.scaled.append(scaled)
        check_served(requests, result, phase)
        d = digest(result)
        if served.first is None:
            served.first, served.digest = result, d
        elif d != served.digest:
            report.fail(f"serve is not deterministic: digest {d} != {served.digest}")
        elapsed = time.perf_counter() - started
        mean_wall = sum(served.walls) / len(served.walls)
        if len(served.walls) >= MIN_SERVES and elapsed + mean_wall > seconds:
            return served


def replay_audit(wl: SimWorkload, requests, report: Report) -> None:
    """Serve a prefix with replay on and off; every load metric must agree."""
    prefix = requests[:wl.audit_prefix]
    with_replay = make_scheduler(wl).serve(prefix, offered_load=wl.rate)
    without = make_scheduler(wl, round_replay=False).serve(prefix, offered_load=wl.rate)
    phase = report.phase("audit")
    problems = compare_load(load_metrics(without), load_metrics(with_replay))
    phase.record(not problems, "replay changed: " + "; ".join(problems[:3]))
    # An audit in which replay never fired compares a run with itself.
    phase.record(with_replay.replay_rounds > 0, "replay never fired on the audit prefix")
    report.info["audit"] = {"requests": len(prefix), "replay_rounds": with_replay.replay_rounds,
                            "mismatches": len(problems)}


def _setup(wl: SimWorkload, seed: int, report: Report):
    """Build the stream and a scheduler repeatedly (see :data:`SETUP_REPEATS`)."""
    setups, scaled_setups, gens = [], [], []
    phase = report.phase("setup")
    requests = None

    def build():
        t0 = time.perf_counter()
        stream = make_requests(wl, seed)
        gens.append(time.perf_counter() - t0)
        make_scheduler(wl)
        return stream

    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        requests, wall, scaled = calibrate.timed(build)
        setups.append(wall)
        scaled_setups.append(scaled)
        phase.record(len(requests) == wl.num_requests, "request stream has the wrong size")
    report.info["gen_s"] = statistics.median(gens)
    report.time("setup_s", setups, scaled_setups)
    return requests


def run(wl: SimWorkload, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(wl.name)
    requests = _setup(wl, seed, report)
    if wl.audit_prefix:
        replay_audit(wl, requests, report)
    served = _serve_until(wl, requests, seconds / 2 if trace else seconds, report)
    result = served.first
    serve = report.time("serve_s", served.walls, served.scaled)
    report.info["digest"] = served.digest
    report.info["sim_counts"] = sim_counts(result)
    report.info["replay_rounds"] = result.replay_rounds
    if trace:
        report.metrics.update(_traced(wl, requests, report))
        return report
    tokens = sum(r.trace.output_length for r in requests)
    report.metrics.update({
        "setup_s": (report.timings["setup_s"]["median"], "s"),
        "host_req_per_s": (len(requests) / serve["median"], "req/s"),
        "host_tok_per_s": (tokens / serve["median"], "tok/s"),
    })
    report.metrics.update(sim_metrics(result))
    return report


def _traced(wl: SimWorkload, requests, report: Report) -> Dict[str, Tuple[float, str]]:
    rec = SpanRecorder(f"{wl.name}-traced")
    scheduler = make_scheduler(wl)

    def traced():
        with instrument(rec, layers.sim_patches()):
            with rec.span(layers.ROOT):
                result = scheduler.serve(requests, offered_load=wl.rate)
                with rec.span("metrics.stats"):
                    _stats(result)
        return result

    result, raw, scaled = calibrate.timed(traced)
    check_served(requests, result, report.phase("traced_serve"))
    if digest(result) != report.info["digest"]:
        report.fail("the traced serve simulated something else than the untraced one")
    report.info["spans"] = rec
    serve_s = sum(e - s for n, s, e in zip(rec.names, rec.starts, rec.ends)
                  if n == "scheduler.serve")
    untraced_s = report.timings["serve_s_raw"]["median"]
    out = layers.layer_metrics(rec, report.timings["serve_s"]["median"],
                               serve_s * scaled / raw)
    out["workloads.gen_s"] = report.info["gen_s"]
    out["scheduler.sim_queue_p50_s"] = result.queueing_stats.p50
    out["timeline.host_us_per_op"] = untraced_s / result.timeline_total_ops * 1e6
    attempts = out["replay.attempts"]
    out["replay.apply_ratio"] = out["replay.applied"] / attempts if attempts else 0.0
    rounds = out["scheduler.rounds"] + result.replay_rounds
    out["replay.round_share"] = result.replay_rounds / rounds if rounds else 0.0
    out["placement.alltoall_gb"] = result.alltoall_bytes / 1e9
    out["placement.shard_imbalance"] = result.shard_imbalance or 0.0
    out["tiers.stage_hit_rate"] = result.stage_hit_rate or 0.0
    out["tiers.ssd_gb_read"] = result.ssd_bytes_read / 1e9
    if result.cache_stats is not None:
        out["residency.hit_rate"] = result.cache_stats.hit_rate
        out["residency.evictions"] = float(result.cache_stats.evictions)
    out["sim.expert_gb_moved"] = result.expert_bytes_transferred / 1e9
    return {name: (out[name], unit) for name, unit in layers.PER_LAYER}
