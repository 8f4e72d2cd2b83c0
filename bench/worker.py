"""One benchmark workload in its own process: set-up, warm-up, measurement.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

`bench/run.py` starts this once per measured run and several times with
`--setup-only` to time set-up, so memory and set-up cost never leak from one
workload into another. The last line of standard output is a JSON object
with the run's metrics and details, or with `--setup-only` the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402

# Set-up time starts here, so it covers importing the package.
SETUP_CLOCK = calibrate.Clock()

import hedgecert  # noqa: E402
from hedgecert import arbitrage, cli, redundancy, superhedge  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"
# The first rounds of a run, whose answers form the digest pinned in
# pins.json for each of the pinned seeds (re-record with bench/pin.py): the
# ladder's first round has each tree once.
PIN_ROUNDS = {"tree-ladder": 1, "market-sweep": 40, "cli-mixed": 1}
PINNED_SEEDS = range(32)
# Scaled seconds of operation time one pass over a workload's rounds took
# when the benchmark was defined. A run makes round(--seconds / PASS_S)
# passes, at least one, however fast they go: at 20 s, one pass of the
# ladder and of the sweep, and twelve of the CLI round.
PASS_S = {"tree-ladder": 21.0, "market-sweep": 18.0, "cli-mixed": 1.7}
# Set-up warms up on these cases of the run's own inputs.
WARMUP = {"tree-ladder": (0, 1), "market-sweep": (0, 1, 2, 3, 4), "cli-mixed": (0, -1)}
TAIL_BEYOND = 10
CAL_GAP_S = 0.02

QUERY_METRICS = ("na_s", "nar_s", "superhedge_s", "dual_s", "ftap_s", "cli_s")
QUERIES = {
    "na": lambda m, f: arbitrage.check_na(m),
    "nar": lambda m, f: arbitrage.check_nar(m),
    "superhedge": lambda m, f: superhedge.superhedge_price(m, f),
    "dual": lambda m, f: superhedge.dual_price(m, f),
    "ftap": lambda m, f: redundancy.sharper_ftap(m),
}


def execute(op, log: tracing.SolveLog) -> tuple[checks.Outcome, float]:
    """Run one operation; only the call itself is inside the timed interval.

    Queries are looked up on their modules at call time, so a traced round
    reaches the tracer's wrappers.
    """
    log.take()
    out = checks.Outcome()
    if op.kind == "cli":
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                out.exit_code = cli.main(op.argv)
            except Exception as exc:  # an input that escapes the exit-code contract
                out.error = exc
            seconds = time.perf_counter() - start
        out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    else:
        call, m, f = QUERIES[op.kind], op.market.model, op.market.claim_obj
        start = time.perf_counter()
        try:
            out.value = call(m, f)
        except Exception as exc:  # classified by the answer checks
            out.error = exc
        seconds = time.perf_counter() - start
    out.solves = log.take()
    return out, seconds


class Tally:
    """Times, answers and failures of the operations run so far.

    Times are kept per metric and per input (case), both raw and scaled to
    the calibration kernel's nominal speed (see calibrate.py). The kernel is
    timed at least every CAL_GAP_S between operations and after every case;
    an operation is scaled by the mean of the samples just before and after.
    """

    def __init__(self):
        self.scaled: dict[str, dict[str, list[float]]] = {}
        self.raw: dict[str, dict[str, list[float]]] = {}
        self.per_op: dict[str, list[float]] = {}
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self.defects: list[tuple[str, str]] = []
        self.answers: list[str] = []
        self.calibration = (float("-inf"), 0.0)   # (taken at, kernel seconds)

    def total(self) -> float:
        """Scaled seconds spent in operations."""
        return sum(map(sum, self.per_op.values()))

    def _calibrate(self, force=False) -> float:
        if force or time.perf_counter() - self.calibration[0] > CAL_GAP_S:
            self.calibration = (time.perf_counter(), calibrate.calibrate())
        return self.calibration[1]

    def run_case(self, case, log, record_answers: bool, tracer=None):
        """Run a case's operations, then check them. Returns answers by label
        and the (op, outcome, seconds) triples."""
        ran, kernel = [], [self._calibrate()]
        for op in case.ops:
            if tracer is not None:
                tracer.begin()
            outcome, seconds = execute(op, log)
            if tracer is not None:
                tracer.end()
            ran.append((op, outcome, seconds))
            kernel.append(self._calibrate(force=op is case.ops[-1]))
        answers, outcomes, failed = {}, {}, set()
        for k, (op, outcome, seconds) in enumerate(ran):
            scaled = seconds * calibrate.NOMINAL_S / ((kernel[k] + kernel[k + 1]) / 2)
            self.attempted += 1
            self.per_op.setdefault(op.label, []).append(scaled)
            for metric in op.metrics:
                self.scaled.setdefault(metric, {}).setdefault(case.label, []).append(scaled)
                self.raw.setdefault(metric, {}).setdefault(case.label, []).append(seconds)
            outcomes[op.label] = outcome
            if checks.is_known_defect(op, outcome):
                self.defects.append((op.label, type(outcome.error).__name__))
                continue
            try:
                answers[op.label] = checks.answer(op, outcome)
            except checks.CheckFailed as exc:
                self.failures.append((op.label, str(exc)))
                failed.add(op.label)
        for label, message in checks.cross_check(case, answers, outcomes):
            self.failures.append((label, message))
            failed.add(label)
        self.ok += sum(1 for op, _, _ in ran if op.label in answers and op.label not in failed)
        self.failed += len(failed)
        if record_answers:
            self.answers += [answers.get(op.label, "failed") for op in case.ops if op.known_defect is None]
        return answers, ran


def typical(per_input: dict[str, list[float]]) -> float:
    """Geometric mean over the inputs of each input's median time, so every
    input of the workload weighs the same however often it ran."""
    medians = [statistics.median(v) for v in per_input.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def passes(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[name]))


def measure(name: str, rounds, seconds: float, trace: bool, log):
    """Closed loop, one operation at a time, over a fixed number of whole
    passes of the rounds. The operations run depend on the workload, the
    seed and `seconds` only, never on how fast they run, so a faster
    program is measured on the same inputs. With tracing, each round runs
    untraced and then traced, so the overhead compares identical work; the
    traced operations must give the untraced answers."""
    tally = Tally()
    traced = Tally() if trace else None
    tracer = tracing.Tracer() if trace else None
    traced_ops = []
    for k, cases in enumerate(rounds * passes(name, seconds)):
        results = [tally.run_case(case, log, k < PIN_ROUNDS[name]) for case in cases]
        if not trace:
            continue
        tracer.install()
        try:
            for case, (expected, _) in zip(cases, results):
                answers, ran = traced.run_case(case, log, False, tracer)
                traced_ops += ran
                for label in sorted(set(expected) | set(answers)):
                    if expected.get(label) != answers.get(label):
                        traced.failures.append((label, "traced answer differs from the untraced one"))
                        traced.failed += 1
        finally:
            tracer.uninstall()
    return tally, traced, tracer, traced_ops


def tail(per_op: dict[str, list[float]]) -> tuple[float, int, int]:
    """Highest whole percentile of per-operation time with at least
    TAIL_BEYOND operations beyond it (nearest rank), pooled over every
    distinct operation of the workload; its value, the percentile and the
    operation count. An operation's time is its median over the passes, as
    single samples of the ladder's half-second operations differ by up to
    20 % from run to run, which a tail over a few dozen operations would
    show undamped."""
    xs = sorted(statistics.median(times) for times in per_op.values())
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} operations are too few for a tail percentile")
    p = max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= TAIL_BEYOND)
    return xs[math.ceil(p * n / 100) - 1], p, n


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def seed_digest(name: str, seed: int, log, inputs=OUT / "inputs") -> tuple[str, Tally]:
    """Digest of the pinned rounds of a seed, computed without timing."""
    directory = inputs / name / "run"
    directory.mkdir(parents=True, exist_ok=True)
    rounds = workloads.WORKLOADS[name](seed, directory)
    tally = Tally()
    for cases in rounds[: PIN_ROUNDS[name]]:
        for case in cases:
            tally.run_case(case, log, True)
    return checks.digest(tally.answers), tally


def setup(name: str, seed: int, clock: calibrate.Clock):
    """Generate and write the inputs, then warm up on a few of them; the
    warm-up answers are not checked here, as the measured run repeats
    those cases. Stops `clock` at the end."""
    log = tracing.SolveLog()
    directory = OUT / "inputs" / name / "run"
    directory.mkdir(parents=True, exist_ok=True)
    rounds = workloads.WORKLOADS[name](seed, directory, clock.tick)
    cases = [case for cases in rounds for case in cases]
    for index in WARMUP[name]:
        for op in cases[index].ops:
            execute(op, log)
            clock.tick()
    clock.split()
    return log, rounds


def _metadata() -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(hedgecert.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"hedgecert imported from {hedgecert.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    log, rounds = setup(args.workload, args.seed, SETUP_CLOCK)
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_CLOCK.scaled, "raw_s": SETUP_CLOCK.raw}))
        return 0

    tally, traced, tracer, traced_ops = measure(
        args.workload, rounds, args.seconds, bool(args.trace), log)
    digest = checks.digest(tally.answers)
    pinned = load_pins().get(args.workload, {}).get(str(args.seed))
    parts = [tally] + ([traced] if traced else [])
    failures = [failure for part in parts for failure in part.failures]
    failed = sum(part.failed for part in parts)
    if pinned is not None and digest != pinned:
        failures.append(("digest", f"answers digest {digest} differs from pinned {pinned}"))
        failed += 1

    if args.trace:
        metrics = tracing.layer_metrics(tracer, traced_ops)
        metrics["trace.overhead_ratio"] = (traced.total() / tally.total(), "ratio")
        spans_path = OUT / f"{args.workload}.spans.jsonl.gz"
        tracer.write(spans_path)
    else:
        value, percentile, operations = tail(tally.per_op)
        metrics = {m: (typical(tally.scaled[m]), "s") for m in QUERY_METRICS}
        metrics["query_tail_s"] = (value, "s")
        metrics["queries_per_s"] = (tally.ok / tally.total(), "1/s")
        metrics["ok_ratio"] = (tally.ok / tally.attempted, "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "metadata": _metadata(),
        "digest": {"got": digest, "pinned": pinned},
        "passes": passes(args.workload, args.seconds),
        "operations_s": tally.total(),
        "failures": failures,
        "known_defects": tally.defects,
        "samples": {m: sum(map(len, v.values())) for m, v in sorted(tally.scaled.items())},
        "raw_s": {m: typical(tally.raw[m]) for m in QUERY_METRICS},
    }
    if not args.trace:
        details["tail"] = {"percentile": percentile, "operations": operations}
    else:
        details["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}
    print(json.dumps({
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
