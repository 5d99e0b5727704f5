"""Run one workload of the seeded benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (and writes its spans under ``.perfbench_out/``). Human-readable
lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every
answer is checked against the navigational oracle; a wrong answer makes
``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("query-mix", "cold-store", "serve-open", "edit-mix")

#: where the traced run writes its spans (inside the checkout)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _workload_module(name: str):
    import importlib

    return importlib.import_module("harness." + name.replace("-", "_"))


def _report(result, trace: bool) -> None:
    print(f"# workload {result.workload} ({'traced' if trace else 'untraced'} run)")
    if not trace:
        print("# end-to-end (gated names)")
        for name, metric in result.end_to_end.items():
            print(f"  {name:<28} {metric.value:>14.4f} {metric.unit:<6} n={metric.samples} {metric.note}")
        print("# end-to-end (descriptive names)")
        for name, metric in result.detail.items():
            print(f"  {name:<28} {metric.value:>14.4f} {metric.unit:<6} n={metric.samples} {metric.note}")
        error_rate = result.failed / result.attempted if result.attempted else 0.0
        print(f"  {'error_rate':<28} {error_rate:>14.4f} {'ratio':<6} n={result.attempted} "
              "failed, shed, timed out or wrong / attempted")
    else:
        print("# per-layer")
        for name, metric in result.per_layer.items():
            print(f"  {name:<40} {metric.value:>14.4f} {metric.unit}")
    print(f"# attempted={result.attempted} failed={result.failed} wrong={result.wrong}")
    for note in result.notes:
        print(f"# {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    contract = _load_contract()

    result = _workload_module(args.workload).run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in contract["per_layer"]]
        source = result.per_layer
        if result.trace is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            written = result.trace.dump(path)
            result.notes.append(
                f"spans written to {os.path.relpath(path, ROOT)}: {written} of "
                f"{len(result.trace.spans)}"
            )
    else:
        wanted = [(m["name"], m["unit"]) for m in contract["end_to_end"]]
        source = result.end_to_end
    metrics = {}
    for name, unit in wanted:
        metric = source[name]
        if metric.unit != unit:
            raise ValueError(f"{name}: measured in {metric.unit}, contract says {unit}")
        metrics[name] = {"value": metric.value, "unit": unit}

    _report(result, bool(args.trace))
    correct = result.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
