"""Reporting helpers: tables, normalised series and CSV emission.

The benchmark harness uses these utilities to print paper-style rows (each
figure's series, normalised the same way the paper normalises them) and to
emit the same CSV files the paper's artifact produces
(``block_lats.csv``, ``throughputs.csv``, ``peak_mems.csv``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 float_format: str = "{:.3f}") -> str:
    """Render a fixed-width text table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def normalise_series(values: Mapping[str, float], reference: str,
                     oom_keys: Iterable[str] = ()) -> Dict[str, Optional[float]]:
    """Normalise a metric mapping to one entry, propagating OOM entries as None.

    Mirrors the paper's figures: values are plotted relative to GPU-only,
    except when GPU-only is OOM, in which case the series is normalised to
    Pre-gated MoE (Figure 10/12 captions).
    """
    oom = set(oom_keys)
    if reference in oom or reference not in values:
        raise KeyError(f"reference {reference!r} unavailable for normalisation")
    ref = values[reference]
    if ref == 0:
        raise ZeroDivisionError("reference value is zero")
    out: Dict[str, Optional[float]] = {}
    for key, value in values.items():
        out[key] = None if key in oom else value / ref
    return out


def pick_reference(preferred: Sequence[str], oom_keys: Iterable[str]) -> str:
    """First non-OOM design in ``preferred`` (paper's normalisation fallback)."""
    oom = set(oom_keys)
    for key in preferred:
        if key not in oom:
            return key
    raise ValueError("all candidate reference designs are OOM")


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Serialise rows to CSV text (the artifact's output format)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def write_csv(path: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Write rows to a CSV file on disk."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))


#: Column order of load-test report rows; keys into
#: :meth:`repro.serving.metrics.LoadTestResult.summary`.
LOAD_REPORT_COLUMNS = [
    "design", "config", "replicas", "num_gpus", "offered_load_rps", "requests",
    "sustained_tokens_per_second", "p50_ttft_ms", "p99_ttft_ms",
    "p50_tbt_ms", "p99_tbt_ms", "mean_queueing_ms", "peak_gpu_gb",
    "cache_hit_rate", "cache_evictions", "gb_transferred", "gb_saved",
    "offload_tier", "ssd_gb_read", "stage_hit_rate",
    "device_util", "alltoall_mb", "shard_imbalance", "mean_round_batch",
    "replay_windows", "replay_rounds", "replay_ops",
    "probe_samples", "max_queue_depth",
]

#: Load-report cells rendered as "-" when the run had no expert cache (or,
#: for the tier columns, no offloading / no DRAM staging cache; for
#: alltoall_mb/shard_imbalance, a single-GPU replica — device_util stays
#: populated there, since one device's compute utilisation is still
#: meaningful; for probe_samples/max_queue_depth, a run without sampled
#: probes enabled).
_CACHE_COLUMNS = ("cache_hit_rate", "cache_evictions",
                  "offload_tier", "ssd_gb_read", "stage_hit_rate",
                  "device_util", "alltoall_mb", "shard_imbalance",
                  "probe_samples", "max_queue_depth")


def load_test_report(results: Sequence, figure: str = "Serving load test",
                     description: str = "Sustained throughput and tail latency under load",
                     paper_reference: str = "", notes: str = "") -> "FigureReport":
    """Build a :class:`FigureReport` from load-test results.

    ``results`` is any sequence of objects exposing ``summary()`` in the
    shape of :class:`repro.serving.metrics.LoadTestResult` (single-replica
    schedulers and multi-replica clusters both qualify).  OOM runs render
    their metric cells as ``"OOM"``, mirroring the paper's figure style.
    """
    report = FigureReport(figure=figure, description=description,
                          headers=list(LOAD_REPORT_COLUMNS),
                          paper_reference=paper_reference, notes=notes)
    for result in results:
        summary = result.summary()
        row = []
        for column in LOAD_REPORT_COLUMNS:
            value = summary.get(column)
            if summary.get("oom") and column not in ("design", "config", "replicas",
                                                     "num_gpus", "offered_load_rps",
                                                     "requests"):
                row.append("OOM")
            elif column in _CACHE_COLUMNS and value is None:
                row.append("-")
            elif isinstance(value, float):
                row.append(round(value, 3))
            else:
                row.append(value)
        report.add_row(*row)
    return report


@dataclass
class FigureReport:
    """A reproduced figure/table: labelled series plus provenance notes.

    ``paper_reference`` records what the paper reports for the same series so
    EXPERIMENTS.md can show paper-vs-measured side by side.
    """

    figure: str
    description: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    paper_reference: str = ""
    notes: str = ""

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells but the report has {len(self.headers)} columns")
        self.rows.append(list(values))

    def render(self) -> str:
        parts = [f"== {self.figure}: {self.description} =="]
        parts.append(format_table(self.headers, self.rows))
        if self.paper_reference:
            parts.append(f"Paper reference: {self.paper_reference}")
        if self.notes:
            parts.append(f"Notes: {self.notes}")
        return "\n".join(parts)

    def as_csv(self) -> str:
        return to_csv(self.headers, self.rows)
