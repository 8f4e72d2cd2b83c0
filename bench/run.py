"""hedgecert benchmark: exact arbitrage queries over three workloads.

    python3 bench/run.py --workload tree-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, seed 0, untraced

Run from a checkout of the repository; the package is imported from its
`src/`. Each measured run and each set-up sample is its own process
(`bench/worker.py`), which times its own set-up. Times are scaled to a
nominal machine speed measured around each operation
(`bench/calibrate.py`). The output lists every
metric with its unit, the answer-check details and the run metadata; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones. Details and traced spans are also written
under `.bench_out/`. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tree-ladder", "market-sweep", "cli-mixed")
# set-up is timed in this many fresh processes and reported as the median
SETUP_RUNS = 5
DEADLINE_S = 170


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setup, raw = [], []
    if not trace:
        for _ in range(SETUP_RUNS):
            proc = _child(common + ["--setup-only"], deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} set-up failed:\n{proc.stderr}")
            times = json.loads(proc.stdout.strip().splitlines()[-1])
            setup.append(times["setup_s"])
            raw.append(times["raw_s"])
    proc = _child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} run failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
        result["details"]["raw_s"]["setup_s"] = statistics.median(raw)
    return result


def report(result: dict) -> None:
    details = result["details"]
    print(f"== {details['workload']} seed={details['seed']} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print("  raw wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in details["raw_s"].items()))
    if "tail" in details:
        print(f"  query_tail_s is percentile {details['tail']['percentile']} "
              f"of {details['tail']['operations']} operations")
    digest = details["digest"]
    state = "unpinned" if digest["pinned"] is None else (
        "matches pin" if digest["got"] == digest["pinned"] else f"PINNED {digest['pinned']}")
    print(f"  answers digest {digest['got']} {state}")
    print(f"  passes: {details['passes']}, scaled operation time: {details['operations_s']:.6g} s")
    for label, exc in sorted(set(map(tuple, details["known_defects"]))):
        print(f"  known defect: {label} raises {exc} out of cli.main")
    for label, message in details["failures"]:
        print(f"  FAILED {label}: {message}")
    print("  metadata: " + json.dumps(details["metadata"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hedgecert benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hedgecert" / "__init__.py").is_file():
        print(f"error: no hedgecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{name}.result.json").write_text(json.dumps(result, indent=1))
        report(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
