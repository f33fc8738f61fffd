"""rulekit benchmark: end-to-end CLI runs, output checks, and a traced run.

Run from the root of a rulekit checkout:

    python3 perfbench/run.py --workload rules-dense --seed 1 --seconds 30 --trace 0

Each invocation generates the workload's inputs from ``--seed`` into
``.perfbench_work/``, measures set-up (fresh interpreters doing
``import rulekit.cli`` plus ``load_config``), then runs the CLI as a fresh
``python -m rulekit`` process, one at a time, for about ``--seconds`` (a run
starts only if it should end within half a run of the window, and there is
always at least one). Every run is checked: artifacts byte-identical to the
first run's (ignoring the manifest's ``created_at``) and every rule
recounted from the CSV by ``oracle.py``. With ``--trace 1`` one more run
happens in-process under ``tracer.py`` and the per-layer metrics are reported
instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A summary
with every sample and the input hashes is kept in
``.perfbench_work/results/``. The exit code is 0 when the benchmark ran (even
if checks failed) and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# Stop starting runs once this much of the 180 s process limit is gone.
BUDGET_S = 150.0

SETUP_SNIPPET = (
    "import sys, rulekit.cli; rulekit.cli.load_config(sys.argv[1]); "
    "print(rulekit.cli.__file__)"
)


class Sample:
    def __init__(self, code: int, wall: float, cpu: float, rss_kb: int) -> None:
        self.code, self.wall, self.cpu, self.rss_kb = code, wall, cpu, rss_kb
        self.problems: list[str] = []


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path, timeout: float) -> Sample:
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, seconds: int) -> None:
        self.wl, self.seed, self.seconds = workload, seed, seconds
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.out = self.dir / "out"
        self.samples: list[Sample] = []
        self.reference: dict[str, str] | None = None

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.t0)

    def prepare(self) -> None:
        inputs = self.dir / "input"
        self.config = workloads.generate(self.wl.name, self.seed, inputs, ROOT)
        self.inputs_sha256 = {p.name: _sha256(p) for p in sorted(inputs.iterdir())}
        self.data = oracle.Dataset(self.config)
        if self.data.rows_read != self.wl.rows:
            raise RuntimeError(f"input has {self.data.rows_read} rows, expected {self.wl.rows}")

    def measure_setup(self) -> list[float]:
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.config)]
        log = self.dir / "setup.log"
        warm = run_child(argv, self.dir, log, self.remaining())  # writes bytecode caches
        loaded = log.read_text(encoding="utf-8").strip()
        if warm.code != 0 or Path(loaded).resolve() != (SRC / "rulekit" / "cli.py").resolve():
            raise RuntimeError(f"rulekit does not load from {SRC}: {loaded[-500:]}")
        walls = []
        for _ in range(SETUP_REPEATS):
            s = run_child(argv, self.dir, log, self.remaining())
            if s.code != 0:
                raise RuntimeError(f"set-up run failed: {log.read_text(encoding='utf-8')[-500:]}")
            walls.append(s.wall)
        return walls

    def cli_args(self) -> list[str]:
        return [
            self.wl.command, "--config", str(self.config), "--out", str(self.out),
            "--threads", str(self.wl.threads), "--seed", str(self.seed),
        ]

    def check(self, sample: Sample, log: Path) -> None:
        if sample.code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-500:]
            sample.problems.append(f"exit code {sample.code}: {tail}")
            return
        sample.problems.extend(oracle.check_outputs(self.out, self.data))
        digest = oracle.artifact_digest(self.out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            changed = sorted(k for k in set(digest) | set(self.reference)
                             if digest.get(k) != self.reference.get(k))
            sample.problems.append(f"artifacts differ from the first run: {changed[:5]}")

    def run_untraced(self) -> None:
        argv = [sys.executable, "-m", "rulekit", *self.cli_args()]
        log = self.dir / "run.log"
        start = time.perf_counter()
        while True:
            shutil.rmtree(self.out, ignore_errors=True)
            sample = run_child(argv, self.dir, log, self.remaining() + 20.0)
            self.check(sample, log)
            self.samples.append(sample)
            # Start another run only if it should end within half a run of the
            # window, so one invocation lasts about --seconds at any speed.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * sample.wall > self.seconds or self.remaining() < 2.5 * sample.wall:
                return

    def run_traced(self) -> tuple[Sample, dict]:
        result, spans = self.dir / "trace.json", self.dir / "spans.jsonl"
        argv = [sys.executable, str(HERE / "tracer.py"), str(result), str(spans), "--",
                *self.cli_args()]
        log = self.dir / "trace.log"
        shutil.rmtree(self.out, ignore_errors=True)
        sample = run_child(argv, self.dir, log, self.remaining() + 20.0)
        self.check(sample, log)
        if sample.code != 0:
            return sample, {}
        traced = json.loads(result.read_text(encoding="utf-8"))
        if traced["coverage"] < traced["min_coverage"]:
            sample.problems.append(
                f"reported layers account for only {traced['coverage']:.3f} of the traced wall"
            )
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        shutil.copyfile(spans, WORK / "results" / f"{self.wl.name}-spans.jsonl")
        traced["bytes_written"] = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return sample, traced


def e2e_samples(samples: list[Sample], rows: int,
                setup_walls: list[float]) -> dict[str, list[float]]:
    """Per-sample values of each end-to-end metric; failed runs are left out."""
    good = [s for s in samples if not s.problems] or samples
    walls = [s.wall for s in good]
    return {
        "wall_s": walls,
        "records_per_s": [rows / w for w in walls],
        "cpu_s": [s.cpu for s in good],
        "peak_rss_mb": [s.rss_kb / 1024.0 for s in good],
        "setup_s": setup_walls,
    }


def layer_metrics(traced: dict, sample: Sample) -> dict[str, float]:
    """Per-layer metrics of a traced run plus the runner's own; 0 where absent."""
    layer = dict.fromkeys(tracer.layer_metrics(tracer.Tracer()), 0.0)
    layer.update({"report.bytes_written": 0, "trace.coverage": 0.0, "trace.wall_s": sample.wall,
                  "trace.overhead_s": 0.0})
    if traced:
        layer.update(traced["metrics"])
        layer["report.bytes_written"] = traced["bytes_written"]
        layer["trace.coverage"] = traced["coverage"]
        layer["trace.overhead_s"] = traced["overhead_s"]
    return layer


def named(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """Metrics in BENCHMARK.json's order with its units; the names must match."""
    differ = set(values) ^ {m["name"] for m in specs}
    if differ:
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(differ)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rulekit" / "cli.py").is_file():
        print(f"perfbench: no rulekit sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "sample" / "crashes.csv").is_file():
        print(f"perfbench: the committed sample is missing under {ROOT}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        bench.prepare()
        setup_walls = bench.measure_setup()
        bench.run_untraced()
        traced_sample, traced = bench.run_traced() if args.trace else (None, {})
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    runs = bench.samples + ([traced_sample] if traced_sample else [])
    failed = sum(1 for s in runs if s.problems)
    e2e = e2e_samples(bench.samples, bench.wl.rows, setup_walls)
    if args.trace:
        metrics = named(layer_metrics(traced, traced_sample), spec["per_layer"])
    else:
        metrics = named({k: statistics.median(v) for k, v in e2e.items()}, spec["end_to_end"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"perfbench {args.workload} seed={args.seed}: {len(bench.samples)} untraced runs "
          f"of {bench.wl.command} on {bench.wl.rows} rows, {bench.wl.threads} thread(s)")
    for fname, digest in bench.inputs_sha256.items():
        print(f"  input {fname} sha256 {digest}")
    for name, values in e2e.items():
        q1, med, q3 = _quartiles(values)
        print(f"  {name:<14} {med:12.4f} {units[name]:<4} median of {len(values)} "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  {'error_rate':<14} {failed / len(runs):12.4f} {'':<4} "
          f"{failed} of {len(runs)} runs failed")
    for s in runs:
        for problem in s.problems[:5]:
            print(f"  FAILED CHECK: {problem}")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": bench.inputs_sha256,
        "samples": [{"exit": s.code, "wall_s": s.wall, "cpu_s": s.cpu, "rss_kb": s.rss_kb,
                     "problems": s.problems} for s in runs],
        "setup_s": setup_walls,
        "artifacts_sha256": bench.reference,
    }
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:14.6f} {m['unit']}")
        summary["trace"] = traced
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    result_file = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
