"""Per-layer metrics: which calls the traced run wraps, and what it reports.

Each wrapped call becomes a span named ``<layer>.<what>``; a layer's time
is the self time of its spans (duration minus the spans nested inside).
Every workload reports every metric of :data:`PER_LAYER`; a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .spans import Patch, SpanRecorder

#: The primitives reported by name: the eight with the most traced time on
#: ``pregated_finetune``.  The rest are pooled under ``primitives.other``.
TOP_PRIMITIVES = ("matmul", "layer_norm", "sdpa", "relu", "reshape", "softmax", "add",
                  "sum")

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("workloads.gen_s", "s"),
    ("scheduler.serve_s", "s"),
    ("scheduler.rounds", "count"),
    ("scheduler.mean_batch", "req"),
    ("scheduler.sim_queue_p50_s", "sim_s"),
    ("simulator.plan_s", "s"),
    ("simulator.plan_calls", "count"),
    ("simulator.emit_prefill_s", "s"),
    ("simulator.emit_decode_s", "s"),
    ("simulator.emit_calls", "count"),
    ("prefetch.register_s", "s"),
    ("prefetch.drain_s", "s"),
    ("timeline.commit_s", "s"),
    ("timeline.commit_calls", "count"),
    ("timeline.ops_committed", "count"),
    ("timeline.retire_s", "s"),
    ("timeline.host_us_per_op", "us"),
    ("replay.detect_s", "s"),
    ("replay.apply_s", "s"),
    ("replay.attempts", "count"),
    ("replay.applied", "count"),
    ("replay.apply_ratio", "share"),
    ("replay.round_share", "share"),
    ("placement.route_fetch_s", "s"),
    ("placement.route_fetch_calls", "count"),
    ("placement.alltoall_gb", "GB"),
    ("placement.shard_imbalance", "ratio"),
    ("tiers.stage_hit_rate", "share"),
    ("tiers.ssd_gb_read", "GB"),
    ("residency.pin_s", "s"),
    ("residency.pin_calls", "count"),
    ("residency.hit_rate", "share"),
    ("residency.evictions", "count"),
    ("sim.expert_gb_moved", "GB"),
    ("metrics.stats_s", "s"),
]
for _prim in TOP_PRIMITIVES + ("other",):
    PER_LAYER += [(f"primitives.{_prim}.fwd_s", "s"), (f"primitives.{_prim}.vjp_s", "s"),
                  (f"primitives.{_prim}.calls", "count")]
PER_LAYER += [
    # Computed from operand shapes, not measured by a counter.
    ("primitives.matmul.gflops", "computed_GFLOP/s"),
    ("primitives.gb_moved", "computed_GB"),
    ("autograd.backward_s", "s"),
    ("optim.adam_step_s", "s"),
    ("optim.clip_s", "s"),
    ("pregate.moe_s", "s"),
    ("attention.mha_s", "s"),
    ("pregated_model.encode_s", "s"),
    ("pregated_model.decode_s", "s"),
    ("pregated_model.decode_step_s", "s"),
    ("pregated_model.decode_steps", "count"),
    ("training.fit_s", "s"),
    ("training.evaluate_s", "s"),
    ("training.eval_exact_match", "points"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
]

#: Span names whose self time each ``*_s`` metric sums.  Every span name the
#: wrappers below can produce appears exactly once, so the reported self
#: times plus ``trace.unattributed_s`` add up to ``trace.wall_s``.
SELF_TIME: Dict[str, Sequence[str]] = {
    "scheduler.serve_s": ("scheduler.serve", "scheduler.round"),
    "simulator.plan_s": ("simulator.plan",),
    "simulator.emit_prefill_s": ("simulator.emit_prefill",),
    "simulator.emit_decode_s": ("simulator.emit_decode",),
    "prefetch.register_s": ("prefetch.register",),
    "prefetch.drain_s": ("prefetch.drain",),
    "timeline.commit_s": ("timeline.commit",),
    "timeline.retire_s": ("timeline.retire",),
    "replay.detect_s": ("replay.detect",),
    "replay.apply_s": ("replay.apply",),
    "placement.route_fetch_s": ("placement.route_fetch",),
    "residency.pin_s": ("residency.pin",),
    "metrics.stats_s": ("metrics.stats",),
    "autograd.backward_s": ("autograd.backward",),
    "optim.adam_step_s": ("optim.adam_step",),
    "optim.clip_s": ("optim.clip",),
    "pregate.moe_s": ("pregate.moe",),
    "attention.mha_s": ("attention.mha",),
    "pregated_model.encode_s": ("pregated_model.encode",),
    "pregated_model.decode_s": ("pregated_model.decode",),
    # greedy_decode's own loop (argmax, finished-row bookkeeping) is decode-step work.
    "pregated_model.decode_step_s": ("pregated_model.decode_step", "pregated_model.greedy"),
    "training.fit_s": ("training.fit",),
    "training.evaluate_s": ("training.evaluate",),
}

ROOT = "run"


def _count_batch(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("scheduler.batch_members", len(args[2]))


def _counter(name: str):
    def hook(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.count(name)
    return hook


def _count_ops(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("timeline.ops_committed", len(args[1].stream))


def sim_patches() -> List[Patch]:
    """Layer boundaries of the serving simulator."""
    from repro.serving import placement, prefetch, scheduler, simulator
    from repro.system import residency, timeline

    sched, replay = scheduler.ContinuousBatchingScheduler, scheduler._RoundReplay
    sim, place = simulator.IterationSimulator, placement.ShardedPlacement
    return [
        (sched, "serve", "scheduler.serve", None),
        (sched, "_run_round_batched", "scheduler.round", _count_batch),
        (sim, "make_plan", "simulator.plan", None),
        (sim, "emit_encoder_pass", "simulator.emit_prefill", None),
        (sim, "emit_decoder_iteration", "simulator.emit_decode", None),
        (simulator.SharedExpertRound, "register_plan", "prefetch.register", None),
        (prefetch.PrefetchRound, "register_plan", "prefetch.register", None),
        (simulator.SharedExpertRound, "drain", "prefetch.drain", None),
        (prefetch.PrefetchRound, "drain", "prefetch.drain", None),
        (timeline.ArrayTimeline, "commit_batch", "timeline.commit", _count_ops),
        (timeline.ArrayTimeline, "retire_completed", "timeline.retire", None),
        (replay, "observe", "replay.detect", None),
        (replay, "try_apply", "replay.detect", _counter("replay.attempts")),
        (timeline.ArrayTimeline, "replay_snapshot", "replay.detect", None),
        (place, "replay_counters", "replay.detect", None),
        (place, "replay_residency_state", "replay.detect", None),
        (replay, "_apply", "replay.apply", _counter("replay.applied")),
        (place, "route_fetch", "placement.route_fetch", None),
        (residency.ExpertResidency, "pin", "residency.pin", None),
    ]


def _nbytes(values) -> int:
    return sum(getattr(v, "nbytes", 0) for v in values)


def _primitive_hook(prim_name: str):
    def hook(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.count("primitives.bytes", _nbytes(args) + getattr(result, "nbytes", 0))
        if prim_name == "matmul":
            # (..., m, k) @ (..., k, n): 2*m*k*n per broadcast batch element.
            rec.count("primitives.matmul.flops",
                      2.0 * args[0].shape[-1] * math.prod(result.shape))
    return hook


def _decode_name(args, kwargs) -> str:
    cached = kwargs.get("kv_caches") if "kv_caches" in kwargs else (
        args[4] if len(args) > 4 else None)
    return "pregated_model.decode_step" if cached is not None else "pregated_model.decode"


def tensor_patches() -> List[Patch]:
    """Layer boundaries of the numpy engine and the fine-tuning harness."""
    from repro.core.pregate import PreGatedMoEBlock
    from repro.core.pregated_model import PreGatedSwitchTransformer
    from repro.tensor import attention, autograd, optim, primitives
    from repro.training import trainer

    patches: List[Patch] = []
    for name, prim in primitives.REGISTRY.items():
        label = name if name in TOP_PRIMITIVES else "other"
        patches.append((prim, "forward", f"primitives.{label}.fwd", _primitive_hook(name)))
        if prim.vjp is not None:
            patches.append((prim, "vjp", f"primitives.{label}.vjp", None))
    model = PreGatedSwitchTransformer
    patches += [
        (autograd.Tensor, "backward", "autograd.backward", None),
        (optim.Adam, "step", "optim.adam_step", None),
        (trainer, "clip_grad_norm", "optim.clip", None),
        (PreGatedMoEBlock, "forward", "pregate.moe", None),
        (PreGatedMoEBlock, "select_first", "pregate.moe", None),
        (PreGatedMoEBlock, "select_next", "pregate.moe", None),
        (attention.MultiHeadAttention, "forward", "attention.mha", None),
        (model, "encode", "pregated_model.encode", None),
        (model, "decode", _decode_name, None),
        (model, "greedy_decode", "pregated_model.greedy", None),
        (trainer.Trainer, "fit", "training.fit", None),
        (trainer.Trainer, "evaluate", "training.evaluate", None),
    ]
    return patches


def layer_metrics(rec: SpanRecorder, untraced_median_s: float,
                  traced_s: float) -> Dict[str, float]:
    """Self times, call counts and trace bookkeeping from one traced run.

    ``traced_s`` and ``untraced_median_s`` time the same work with and
    without the wrappers, both at the reference host speed (see
    :mod:`.calibrate`); their ratio is the tracing overhead.
    """
    own = rec.self_times()
    calls = rec.calls()
    counts = rec.counts
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(own.get(s, 0.0) for s in spans)
    for prim in TOP_PRIMITIVES + ("other",):
        for kind in ("fwd", "vjp"):
            out[f"primitives.{prim}.{kind}_s"] = own.get(f"primitives.{prim}.{kind}", 0.0)
        out[f"primitives.{prim}.calls"] = float(calls.get(f"primitives.{prim}.fwd", 0))
    fwd = own.get("primitives.matmul.fwd", 0.0)
    out["primitives.matmul.gflops"] = (counts["primitives.matmul.flops"] / fwd / 1e9
                                       if fwd > 0 else 0.0)
    out["primitives.gb_moved"] = counts["primitives.bytes"] / 1e9
    rounds = calls.get("scheduler.round", 0)
    out["scheduler.rounds"] = float(rounds)
    out["scheduler.mean_batch"] = (counts["scheduler.batch_members"] / rounds
                                   if rounds else 0.0)
    out["simulator.plan_calls"] = float(calls.get("simulator.plan", 0))
    out["simulator.emit_calls"] = float(calls.get("simulator.emit_prefill", 0)
                                        + calls.get("simulator.emit_decode", 0))
    out["timeline.commit_calls"] = float(calls.get("timeline.commit", 0))
    out["timeline.ops_committed"] = counts["timeline.ops_committed"]
    out["replay.attempts"] = counts["replay.attempts"]
    out["replay.applied"] = counts["replay.applied"]
    out["placement.route_fetch_calls"] = float(calls.get("placement.route_fetch", 0))
    out["residency.pin_calls"] = float(calls.get("residency.pin", 0))
    out["pregated_model.decode_steps"] = float(calls.get("pregated_model.decode_step", 0))
    wall = sum(e - s for n, s, e in zip(rec.names, rec.starts, rec.ends) if n == ROOT)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = own.get(ROOT, 0.0)
    out["trace.overhead"] = traced_s / untraced_median_s if untraced_median_s > 0 else 0.0
    out["trace.spans"] = float(len(rec.names))
    return out


def attributed_total(metrics: Dict[str, float]) -> float:
    """Reported self times plus the unattributed remainder (equals the wall)."""
    total = metrics["trace.unattributed_s"]
    total += sum(metrics[m] for m in SELF_TIME)
    for prim in TOP_PRIMITIVES + ("other",):
        total += metrics[f"primitives.{prim}.fwd_s"] + metrics[f"primitives.{prim}.vjp_s"]
    return total
