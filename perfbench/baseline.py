"""Measure a baseline: every workload on several seeds, medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and the
``run_seconds`` of BENCHMARK.json, then once per workload with ``--trace 1``
on the first seed. For each end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile range as a share of the median, next to the metric's bound;
for each workload it records the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{proc.stdout[-2000:]}")
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {
        "machine": {
            "cpu": _cpu_model(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "bound": bounds[metric],
                "values": vals,
            }
            flag = "" if summary[metric]["spread"] <= bounds[metric] / 3 else "  (above bound/3)"
            print(f"  {name} {metric}: median {summary[metric]['median']:.4f} "
                  f"spread {summary[metric]['spread']:.3f} bound {bounds[metric]}{flag}",
                  flush=True)
        traced = run_once(name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
