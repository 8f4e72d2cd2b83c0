"""Answer checks, run outside the timed interval.

Each operation yields a canonical answer: its verdict and exact optimal
values (prices, dual values, slack, bounds), never an optimizer, since a
solver change may legitimately return another one. Optimizers are replayed
instead with the library's `verify_*` functions, and every linear program
solved inside the operation is re-checked with `lp.verify_certificate`.
Cases then cross-check their queries against each other and against what
the market's construction guarantees. A digest of the canonical answers is
compared with the pinned one for the workload and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.errors import ArbitrageError, PreconditionError, RobustArbitrageError
from hedgecert.marketio import format_rational

from workloads import Op

# Exceptions a query may raise as its answer rather than as a failure.
EXPECTED_ERRORS = {
    "superhedge": (RobustArbitrageError,),
    "dual": (ArbitrageError,),
    "ftap": (PreconditionError,),
}


@dataclass
class Outcome:
    """What one operation returned, captured inside the timed interval."""

    value: object = None
    error: BaseException | None = None
    solves: list = field(default_factory=list)   # (LpProblem, LpOutcome) pairs
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""


class CheckFailed(Exception):
    pass


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _r(value) -> str:
    return format_rational(value)


def check_solves(outcome: Outcome) -> None:
    for problem, result in outcome.solves:
        _require(lp.verify_certificate(problem, result), f"{result.status} LP certificate fails replay")


def _library_answer(op: Op, outcome: Outcome) -> str:
    m, f = op.market.model, op.market.claim_obj
    err = outcome.error
    if err is not None:
        _require(isinstance(err, EXPECTED_ERRORS.get(op.kind, ())),
                 f"raised {type(err).__name__}: {err}")
        if isinstance(err, PreconditionError):
            for i, verdict in err.details.verdicts.items():
                if not verdict.non_redundant:
                    _require(redundancy.verify_replication(m, i, verdict.certificate),
                             "replication certificate fails replay")
            names = sorted(m.options[i].name for i, v in err.details.verdicts.items() if not v.non_redundant)
            return f"{op.kind} precondition redundant={','.join(names)}"
        if isinstance(err, RobustArbitrageError) and err.ray is not None:
            return f"{op.kind} robust-arbitrage"
        return f"{op.kind} arbitrage"

    v = outcome.value
    if op.kind == "na":
        if v.holds:
            return "na holds"
        _require(arbitrage.verify_na_certificate(m, v.certificate), "arbitrage certificate fails replay")
        return "na fails"
    if op.kind == "nar":
        if not v.holds:
            return "nar fails"
        _require(arbitrage.verify_nar_witness(m, v.witness), "robustness witness fails replay")
        _require(arbitrage.strictly_inside_quotes(m, v.witness.interior_measure),
                 "witness measure not strictly inside the quotes")
        return f"nar holds slack={_r(v.witness.slack)}"
    if op.kind == "superhedge":
        price, strategy = v
        _require(strategy is not None, "no super-replicating strategy")
        _require(superhedge.verify_super_replication(m, f, price, strategy),
                 "super-replication fails replay")
        return f"superhedge price={_r(price)}"
    if op.kind == "dual":
        value, measure = v
        _require(arbitrage.verify_measure(m, measure), "dual measure fails replay")
        _require(measure.expectation(f.payoff) == value, "dual value differs from the measure's expectation")
        return f"dual value={_r(value)}"
    if op.kind == "ftap":
        if not v.na.holds:
            _require(arbitrage.verify_na_certificate(m, v.na.certificate), "arbitrage certificate fails replay")
            return "ftap fails"
        _require(arbitrage.verify_nar_witness(m, v.nar_witness), "robustness witness fails replay")
        _require(len(v.dominating) == len(m.measures.generators), "one dominating measure per generator")
        for k, q in enumerate(v.dominating):
            _require(arbitrage.verify_measure(m, q), "dominating measure fails replay")
            _require(arbitrage.strictly_inside_quotes(m, q), "dominating measure not strictly inside")
            _require(all(q.weights[p] > 0 for p, w in enumerate(m.measures.generators[k]) if w > 0),
                     "dominating measure misses a charged scenario")
        return f"ftap holds slack={_r(v.nar_witness.slack)}"
    raise CheckFailed(f"unknown query kind {op.kind}")


# Report values that are exact optimal values; strict-dual's achieved value
# depends on which optimizer the solver returned, so it is left out.
_DIGESTED_VALUES = {
    "check-nar": ("slack",), "superhedge": ("price",), "dual": ("value",),
    "bounds": ("lower", "upper"), "sharper-ftap": ("slack",), "strict-dual": ("eps",),
}


def _cli_answer(op: Op, outcome: Outcome) -> str:
    err = outcome.error
    if op.expect_invalid:
        if err is not None:
            raise CheckFailed(f"raised {type(err).__name__} out of main")
        _require(outcome.exit_code == 4, f"exit {outcome.exit_code}, expected 4")
        _require(outcome.stdout == "", "printed a report for invalid input")
        error = json.loads(outcome.stderr.strip().splitlines()[-1])["error"]
        _require(error["type"] in ("invalid-input", "io-error"), f"error type {error['type']}")
        return f"cli {op.command} exit=4"
    if err is not None:
        raise CheckFailed(f"raised {type(err).__name__} out of main: {err}")
    _require(outcome.exit_code in (0, 3), f"exit {outcome.exit_code} on a valid market")
    lines = outcome.stdout.splitlines()
    _require(len(lines) == 1, "report is not exactly one line")
    report = json.loads(lines[0])
    _require(report["command"] == op.command, "report names another command")
    values = {k: report["values"][k] for k in _DIGESTED_VALUES.get(op.command, ()) if k in report["values"]}
    return f"cli {op.command} exit={outcome.exit_code} verdict={report['verdict']} values={json.dumps(values, sort_keys=True)}"


def answer(op: Op, outcome: Outcome) -> str:
    """Check one operation; return its canonical answer or raise CheckFailed."""
    check_solves(outcome)
    if op.kind == "cli":
        return _cli_answer(op, outcome)
    return _library_answer(op, outcome)


def is_known_defect(op: Op, outcome: Outcome) -> bool:
    return op.known_defect is not None and type(outcome.error).__name__ == op.known_defect


_LIBRARY_KEYS = {"na": "na", "nar": "nar", "superhedge": "price", "dual": "dual", "ftap": "ftap"}
_CLI_KEYS = {"check-na": "na", "check-nar": "nar", "superhedge": "price", "dual": "dual",
             "sharper-ftap": "ftap", "redundancy": "redundant", "dominate": "dominate",
             "strict-dual": "strict"}


def _library_fact(answer_text: str):
    """na: bool; nar/price/dual: the exact value, or False when it does not
    exist; ftap: ("holds", slack) | ("fails",) | ("precondition",)."""
    kind, _, rest = answer_text.partition(" ")
    if kind == "na":
        return rest == "holds"
    if kind == "ftap":
        if rest.startswith("holds"):
            return ("holds", rest.split("=")[1])
        return ("fails",) if rest == "fails" else ("precondition",)
    return rest.split("=")[1] if "=" in rest else False


def _cli_fact(command: str, outcome: Outcome):
    report = json.loads(outcome.stdout.splitlines()[0])
    ok = outcome.exit_code == 0
    values = report["values"]
    if command == "check-na":
        return ok
    if command == "check-nar":
        return values["slack"] if ok else False
    if command == "superhedge":
        return values["price"] if ok else False
    if command == "dual":
        return values["value"] if ok else False
    if command == "sharper-ftap":
        if ok:
            return ("holds", values["slack"])
        return ("precondition",) if report["verdict"] == "precondition-failed" else ("fails",)
    if command == "redundancy":
        return not ok
    return ok


def cross_check(case, answers: dict[str, str], outcomes: dict[str, Outcome]) -> list[tuple[str, str]]:
    """Consistency between a case's answers and with its construction.

    Library answers and CLI reports on the same market are reduced to the
    same facts, which must agree and satisfy the exact relations between
    the queries. Returns (op label, message) per violated relation.
    """
    market = case.market
    if market is None:
        return []
    problems: list[tuple[str, str]] = []
    lib, cli, owner = {}, {}, {}
    for op in case.ops:
        if op.label not in answers:
            continue
        if op.kind == "cli":
            key = _CLI_KEYS.get(op.command)
            if key is None:
                continue
            cli[key] = _cli_fact(op.command, outcomes[op.label])
        else:
            key = _LIBRARY_KEYS[op.kind]
            lib[key] = _library_fact(answers[op.label])
        owner.setdefault(key, op.label)
        if key in lib and key in cli and lib[key] != cli[key]:
            problems.append((op.label, f"CLI {key} answer {cli[key]} differs from the library's {lib[key]}"))
    facts = {**cli, **lib}

    def relation(holds, key, message):
        if not holds:
            problems.append((owner[key], message))

    na, nar, price, dual, ftap = (facts.get(k) for k in ("na", "nar", "price", "dual", "ftap"))
    if nar and na is not None:
        relation(na, "nar", "robust no-arbitrage holds while no-arbitrage fails")
    if price and dual:
        relation(price == dual, "dual", f"primal-dual gap: super-hedging {price}, dual {dual}")
    if na:
        if price is not None:
            relation(price is not False, "price", "super-hedging unbounded under no-arbitrage")
        if dual is not None:
            relation(dual is not False, "dual", "no consistent measure under no-arbitrage")
    if ftap and ftap[0] != "precondition":
        if na is not None:
            relation((ftap[0] == "fails") == (not na), "ftap", "sharper FTAP verdict differs from no-arbitrage")
        if ftap[0] == "holds" and nar is not None:
            relation(ftap[1] == nar, "ftap", "sharper FTAP slack differs from robust no-arbitrage")
    if ftap and "redundant" in cli:
        relation(cli["redundant"] == (ftap[0] == "precondition"), "redundant",
                 "redundancy verdict differs from the sharper FTAP precondition")
    for key in ("dominate", "strict"):
        if key in facts and nar is not None:
            relation(facts[key] == bool(nar), key, f"{key} succeeds exactly when robust no-arbitrage holds")
    if market.arbitrage_free:
        if na is not None:
            relation(na, "na", "no-arbitrage fails on a market robust by construction")
        if nar is not None:
            relation(bool(nar), "nar", "robust no-arbitrage fails on a market robust by construction")
    if market.arbitrage and na is not None:
        relation(not na, "na", "no-arbitrage holds on a market with a built-in arbitrage")
    if market.reference_price is not None and price is not None:
        relation(price == _r(market.reference_price), "price",
                 f"price {price} differs from the complete-market value {_r(market.reference_price)}")
    return problems


def digest(answers: list[str]) -> str:
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16]
