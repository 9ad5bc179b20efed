"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out runs.json]
                                [--baseline runs.json]

Runs ``run.py`` once per (workload, seed), one at a time, and prints per
metric the median, the quartiles and the interquartile distance as a share
of the median next to the metric's bound. With ``--baseline`` it also
prints by how much each median is worse than the one in an earlier
``--out`` file, as a share of that median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    collected: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        values = collected.setdefault(workload, {})
        for seed in args.seeds:
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            med = measure.median(series)
            q1, q3 = measure.quartiles(series)
            spread = measure.relative_spread(series) if med else 0.0
            line = f"  {workload:18} {name:40} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g}"
            line += f" spread {spread:7.4f}"
            if bounds.get(name) is not None:
                line += f" bound {bounds[name]:.3f} ({spread / bounds[name]:.2f} of it)"
            if name in baseline.get(workload, {}):
                base = measure.median(baseline[workload][name])
                worse = (med - base) if better.get(name) == "lower" else (base - med)
                line += f" worse than baseline by {worse / base:+.4f}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(collected, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
