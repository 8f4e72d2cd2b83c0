"""Outside-in instrumentation of the hedgecert package.

Nothing in the package changes. `SolveLog` keeps every (problem, outcome)
pair `lp.solve_lp` returns, so the answer checks can replay LP certificates
after the timed interval. `Tracer` rebinds every public function of the
working modules in each hedgecert module that binds it, including
`from .model import require_valid` style bindings, to a wrapper that records
a span: function, start, end, parent span and query id. Spans stay in
memory and are written out at the end; self times are derived from them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from hedgecert import lp

# Modules that do work; `errors` does none and `oracle` is test-only.
LAYERS = ("cli", "marketio", "model", "lp", "arbitrage", "superhedge", "redundancy")
_PARSERS = ("marketio.parse_market", "marketio.parse_claim")
_VERIFIERS = ("arbitrage.verify_measure", "arbitrage.verify_na_certificate",
              "arbitrage.verify_nar_witness", "arbitrage.strictly_inside_quotes")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "hedgecert" or name.startswith("hedgecert.")]


def _bindings(functions) -> list[tuple]:
    """(module, attribute, function) for every binding of one of `functions`
    in a hedgecert module, including `from .model import f` style ones."""
    wanted = {id(fn) for fn in functions}
    return [(mod, attr, obj) for mod in _package_modules()
            for attr, obj in vars(mod).items() if id(obj) in wanted]


class SolveLog:
    """Records the LP solves of the current operation; always installed."""

    def __init__(self):
        self.entries: list = []
        original = lp.solve_lp

        @functools.wraps(original)
        def logged(problem):
            outcome = original(problem)
            self.entries.append((problem, outcome))
            return outcome

        for mod, attr, _ in _bindings([original]):
            setattr(mod, attr, logged)

    def take(self) -> list:
        entries, self.entries = self.entries, []
        return entries


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent, query id]
        self.stack: list[int] = []
        self.qid: int | None = None
        self.operations = 0
        self.bytes_in = 0
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hedgecert.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        self._bindings = [(mod, attr, obj, wrappers[obj]) for mod, attr, obj in _bindings(wrappers)]

    def _wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts_bytes = name in _PARSERS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            qid = tracer.qid
            if qid is None:
                return fn(*args, **kwargs)
            if counts_bytes:
                tracer.bytes_in += len(args[0])
            span = [index, clock(), 0.0, stack[-1] if stack else -1, qid]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def begin(self) -> None:
        """Spans recorded from now on belong to a new operation."""
        self.qid = self.operations
        self.operations += 1

    def end(self) -> None:
        self.qid = None

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Self time and call count per function, and total root-span time."""
        covered = [0.0] * len(self.spans)
        roots = 0.0
        for span in self.spans:
            duration = span[2] - span[1]
            if span[3] >= 0:
                covered[span[3]] += duration
            else:
                roots += duration
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k, span in enumerate(self.spans):
            name = self.names[span[0]]
            self_s[name] += span[2] - span[1] - covered[k]
            calls[name] += 1
        return self_s, calls, roots

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, start, end, parent, qid in self.spans:
                out.write(json.dumps([self.names[index], start, end, parent, qid]) + "\n")


def _max_bits(outcome) -> int:
    best = 0
    for vector in (outcome.primal, outcome.dual, outcome.farkas, outcome.ray,
                   [outcome.objective_value] if outcome.objective_value is not None else None):
        for v in vector or ():
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def layer_metrics(tracer: Tracer, traced: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and LP logs of the traced operations.

    `traced` holds (op, outcome, seconds) per traced operation. Self times
    are seconds per operation; counts are totals over the traced operations.
    The caller adds `trace.overhead_ratio`, which needs the untraced run.
    """
    self_s, calls, roots = tracer.self_times()
    n = len(traced)
    wall = sum(seconds for _, _, seconds in traced)
    solves = [pair for _, outcome, _ in traced for pair in outcome.solves]
    problems = [p for p, _ in solves]
    statuses = Counter(o.status for _, o in solves)
    ftap = [len(o.solves) for op, o, _ in traced if op.kind == "ftap" or op.command == "sharper-ftap"]
    cli_ops = [o for op, o, _ in traced if op.kind == "cli"]

    def per_op(predicate) -> float:
        return sum(t for name, t in self_s.items() if predicate(name)) / n

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return {
        "lp.solve_lp.self_s": (per_op(lambda s: s == "lp.solve_lp"), "s"),
        "lp.max_bits": (max((_max_bits(o) for _, o in solves), default=0), "bits"),
        "lp.nnz": (mean(sum(1 for row in p.rows for a in row if a) for p in problems), "count"),
        "lp.solve_lp.calls": (calls["lp.solve_lp"], "count"),
        "lp.solves_per_query": (len(solves) / n, "count"),
        "redundancy.lp_per_ftap": (mean(ftap), "count"),
        "lp.solve_unique.self_s": (per_op(lambda s: s == "lp.solve_unique"), "s"),
        "lp.rows": (mean(len(p.rows) for p in problems), "count"),
        "lp.cols": (mean(len(p.objective) for p in problems), "count"),
        "lp.infeasible": (statuses[lp.INFEASIBLE], "count"),
        "lp.unbounded": (statuses[lp.UNBOUNDED], "count"),
        "model.require_valid.calls": (calls["model.require_valid"], "count"),
        "model.validate.self_s": (per_op(lambda s: s == "model.validate_market"), "s"),
        "model.dynamic_gain_rows.calls": (calls["model.dynamic_gain_rows"], "count"),
        "model.terminal_gain.self_s": (per_op(lambda s: s == "model.terminal_gain"), "s"),
        "marketio.parse.self_s": (per_op(lambda s: s.startswith("marketio.parse")), "s"),
        "marketio.serialize.self_s": (
            per_op(lambda s: s.startswith("marketio.") and not s.startswith("marketio.parse")), "s"),
        "marketio.bytes_in": (tracer.bytes_in, "bytes"),
        "cli.self_s": (per_op(lambda s: s.startswith("cli.")), "s"),
        "cli.exit_4": (sum(1 for o in cli_ops if o.exit_code == 4), "count"),
        "cli.uncaught": (sum(1 for o in cli_ops if o.error is not None), "count"),
        "arbitrage.self_s": (per_op(lambda s: s.startswith("arbitrage.")), "s"),
        "arbitrage.verify.self_s": (per_op(lambda s: s in _VERIFIERS), "s"),
        "superhedge.self_s": (per_op(lambda s: s.startswith("superhedge.")), "s"),
        "redundancy.self_s": (per_op(lambda s: s.startswith("redundancy.")), "s"),
        "trace.coverage": (roots / wall, "ratio"),
    }
