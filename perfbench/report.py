"""Run report shared by the workloads: phases, metrics and timing summaries."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.serving.metrics import percentile

from .gate import Phase

#: Percentiles tried, highest first, for the tail reported beside a median.
_TAILS = (99.0, 95.0, 90.0, 75.0)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest tail percentile with at least ten samples beyond it."""
    out: Dict[str, float] = {"n": len(samples), "median": statistics.median(samples)}
    for p in _TAILS:
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = percentile(samples, p)
            break
    return out


@dataclass
class Report:
    """Everything one run of one workload found."""

    workload: str
    phases: Dict[str, Phase] = field(default_factory=dict)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def time(self, name: str, raw: Sequence[float], scaled: Sequence[float]) -> Dict[str, float]:
        """Record host-time samples as measured (``<name>_raw``) and at the
        reference host speed (see :mod:`.calibrate`); returns the latter."""
        self.timings[f"{name}_raw"] = summarize(raw)
        self.timings[name] = summarize(scaled)
        return self.timings[name]

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def succeeded_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
