"""The repository's benchmark: one workload per run, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decode_b1 --seed 1 --seconds 20 --trace 0

Workloads: ``decode_b1`` and ``batch8_offload`` (serving simulator),
``pregated_finetune`` (numpy engine).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` wraps each layer's
public calls in spans and reports the per-layer metrics.  Every run checks
the program's outputs, prints each metric with its unit, records the full
result with its provenance under ``perfbench/results/`` and prints one JSON
object as its last line.  It exits non-zero when a check fails.

Everything runs in this one process, with one BLAS thread (set before
numpy loads).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decode_b1", "batch8_offload", "pregated_finetune")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import sim, tensor

    if name == "pregated_finetune":
        return tensor.run(tensor.PREGATED_FINETUNE, seed, seconds, trace)
    workload = {"decode_b1": sim.DECODE_B1, "batch8_offload": sim.BATCH8_OFFLOAD}[name]
    return sim.run(workload, seed, seconds, trace)


def add_process_metrics(report, trace: bool) -> None:
    """End-to-end metrics of the whole process rather than of one workload."""
    if not trace:
        # ru_maxrss is in KiB on Linux.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.metrics["peak_rss_mb"] = (rss, "MB")
        report.metrics["succeeded_frac"] = (report.succeeded_frac(), "share")


def check_attribution(report) -> None:
    """The traced run's self times plus its unattributed rest must be its wall."""
    from perfbench.layers import attributed_total

    values = {name: value for name, (value, _) in report.metrics.items()}
    total, wall = attributed_total(values), values["trace.wall_s"]
    report.info["attributed_s"] = total
    if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9):
        report.fail(f"self times add up to {total} s, the traced wall is {wall} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    # Import the benchmark as a package from the checkout root, not its
    # modules from this directory, and the program from src/.
    sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [p for p in sys.path if p != HERE]
    from perfbench.provenance import pin_blas_threads, provenance

    pin_blas_threads()

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    add_process_metrics(report, bool(args.trace))
    if args.trace:
        check_attribution(report)

    spans = report.info.pop("spans", None)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()}
    record = {
        "workload": report.workload, "trace": args.trace, "seconds": args.seconds,
        "correct": report.correct, "problems": report.problems,
        "phases": {name: p.as_dict() for name, p in report.phases.items()},
        "metrics": metrics, "timings": report.timings, "info": report.info,
        "provenance": provenance(ROOT, args.seed),
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    if spans is not None:
        spans.write(stem + ".spans.json.gz")

    for name, (value, unit) in report.metrics.items():
        print(f"{report.workload} {name} = {value:.6g} {unit}")
    for name, summary in report.timings.items():
        print(f"{report.workload} timing {name}: "
              + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    for name, phase in report.phases.items():
        print(f"{report.workload} phase {name}: attempted={phase.attempted} "
              f"succeeded={phase.succeeded} failed={phase.failed}")
    if "digest" in report.info:
        print(f"{report.workload} sim digest {report.info['digest']}")
    if "attributed_s" in report.info:
        print(f"{report.workload} traced wall {report.metrics['trace.wall_s'][0]:.6f} s = "
              f"self times + unattributed {report.info['attributed_s']:.6f} s")
    for problem in report.problems + [p for ph in report.phases.values() for p in ph.problems]:
        print(f"{report.workload} CHECK FAILED: {problem}")
    print(f"{report.workload} provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({
        "correct": report.correct, "attempted": report.attempted, "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
