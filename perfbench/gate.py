"""Correctness gate and digest for simulated serving results."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Phase:
    """Attempted / succeeded / failed units of one phase of a run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "succeeded": self.succeeded,
                "failed": self.failed, "problems": list(self.problems)}


def check_served(requests: Sequence, result, phase: Phase) -> None:
    """Record one unit per request in ``phase``: did it come back correct?

    A request fails when the run reported an OOM, when it did not
    complete, when its token count differs from its trace's
    ``output_length``, when its token times decrease, or when its first
    token precedes its arrival.
    """
    served = {r.request_id: r for r in result.requests}
    for req in requests:
        rid = req.request_id
        if result.oom:
            phase.record(False, f"request {rid}: OOM ({result.oom_reason})")
            continue
        got = served.get(rid)
        if got is None:
            phase.record(False, f"request {rid}: never completed")
            continue
        times = got.token_times
        expected = req.trace.output_length
        if len(times) != expected:
            phase.record(False, f"request {rid}: {len(times)} tokens, trace says {expected}")
        elif any(b < a for a, b in zip(times, times[1:])):
            phase.record(False, f"request {rid}: token times decrease")
        elif not times[0] >= req.arrival_time:
            phase.record(False, f"request {rid}: first token {times[0]} before arrival "
                                f"{req.arrival_time}")
        elif not all(math.isfinite(t) for t in times):
            phase.record(False, f"request {rid}: non-finite token time")
        else:
            phase.record(True)


def digest(result) -> str:
    """SHA-256 prefix over every simulated output of a serve call.

    Covers each request's arrival and token times plus the run-level
    simulated aggregates, so a host-only change leaves it bit-identical.
    """
    h = hashlib.sha256()
    for r in sorted(result.requests, key=lambda r: r.request_id):
        h.update(struct.pack("<qd", r.request_id, r.arrival_time))
        h.update(struct.pack(f"<{len(r.token_times)}d", *r.token_times))
    h.update(struct.pack("<dqq?", result.makespan, result.peak_gpu_bytes,
                         result.expert_bytes_transferred, result.oom))
    h.update(repr(result.cache_stats).encode())
    h.update(repr(result.tier_stats).encode())
    return h.hexdigest()[:16]


def load_metrics(result) -> Dict[str, Dict[str, float]]:
    """Simulated load metrics of a serve call, by how they must agree.

    ``clocks`` are absolute simulated times (every token time, the
    makespan); ``durations`` are differences of clocks (the latency
    statistics) and rates; ``counts`` are byte counters.
    """
    clocks: Dict[str, float] = {"makespan": result.makespan}
    for r in result.requests:
        for i, t in enumerate(r.token_times):
            clocks[f"r{r.request_id}.token{i}"] = t
        clocks[f"r{r.request_id}.first_scheduled"] = r.first_scheduled_time
    durations = {"sustained_tokens_per_second": result.sustained_tokens_per_second}
    for kind in ("ttft", "tbt", "queueing", "e2e"):
        stats = getattr(result, f"{kind}_stats")
        for key in ("mean", "p50", "p90", "p99", "max"):
            durations[f"{kind}_{key}"] = getattr(stats, key)
    counts = {"peak_gpu_bytes": result.peak_gpu_bytes,
              "expert_bytes_transferred": result.expert_bytes_transferred,
              "alltoall_bytes": result.alltoall_bytes}
    return {"clocks": clocks, "durations": durations, "counts": counts}


def compare_load(reference, candidate, rel_tol: float = 1e-9) -> List[str]:
    """The metrics (with both values) on which two :func:`load_metrics` disagree.

    Clocks must agree to ``rel_tol`` relative, the replay contract.  A
    duration is a difference of clocks, so its error bound is theirs:
    ``rel_tol`` times the largest clock.  Counts must be equal.
    """
    scale = max(abs(v) for v in reference["clocks"].values())
    close = {
        "clocks": lambda a, b: math.isclose(a, b, rel_tol=rel_tol),
        "durations": lambda a, b: math.isclose(a, b, rel_tol=0.0, abs_tol=rel_tol * scale),
        "counts": lambda a, b: a == b,
    }
    problems = []
    for group, agree in close.items():
        ref, cand = reference[group], candidate[group]
        for key in sorted(set(ref) | set(cand)):
            a, b = ref.get(key), cand.get(key)
            if a is None or b is None or not agree(a, b):
                problems.append(f"{key}: {a!r} vs {b!r}")
    return problems
