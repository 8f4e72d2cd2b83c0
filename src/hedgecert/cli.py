"""Command-line surface: one verdict or price per invocation, JSON out.

Exit codes: 0 the condition holds or a value was computed, 3 the condition
fails (a certificate or blocking description accompanies the report), 4 the
input is invalid, 5 an internal soundness check failed. Reports go to
standard output; errors are additionally emitted as structured JSON on
standard error. Output is deterministic: fixed key order, canonical
fractions. Every command replays each certificate in its report before
printing it and exits 5, printing no report, if a replay fails; `bounds`
replays both hedges behind its interval. `--verify` is accepted on every
subcommand, so older command lines keep running, and changes nothing.

A malformed command line is invalid input too (exit 4); `--help` exits 0.

Each outcome is reported one way. `main` turns a precondition or arbitrage
failure a handler raises into the exit-3 report, in one place; `_failure`
reports an arbitrage failure, replaying and printing any robust-arbitrage
ray it carries, whatever the command. Every report is printed at one site
in `main`; its outer handlers only map exits 4 and 5, which print none.

A process builds one argument parser, on its first `main` call, never at
import, and every later call reuses it. Reuse is safe because `parse_args`
leaves the parser untouched: each call fills a fresh namespace, and usage,
help and error text are formatted, at the current terminal width, only when
they are printed. `main` reads the market, and the claim (None for a
subcommand without `--claim`), once per command and passes both to the
handler. Each market file is validated and compiled once, by
`parse_market`, and every query and replay reads the compiled market.
"""

import argparse
import functools
import json
import os
import sys

from . import arbitrage, marketio, redundancy, superhedge
from .errors import (
    ArbitrageError,
    DomainError,
    PreconditionError,
    SoundnessError,
    StructureError,
)
from .model import ZERO, Claim, CompiledMarket

EXIT_OK = 0
EXIT_FAILS = 3
EXIT_INVALID = 4
EXIT_UNSOUND = 5

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _report(command: str, verdict: str, values=None, certificates=None, diagnostics=None) -> dict:
    return {
        "command": command,
        "verdict": verdict,
        "values": values or {},
        "certificates": certificates or {},
        "diagnostics": diagnostics or {},
    }


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _index_of(names, name: str, kind: str) -> int:
    if name not in names:
        raise DomainError(f"no {kind} named {name!r}")
    return names.index(name)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise SoundnessError(f"certificate replay failed: {what}")


def _require_interior(m: CompiledMarket, q, what: str) -> None:
    """Replay a printed interior measure: consistent with the market and
    strictly inside every spread quote."""
    _require(arbitrage.verify_measure(m, q), what)
    _require(arbitrage.strictly_inside_quotes(m, q), "strict interiority")


def _arbitrage_report(command: str, m: CompiledMarket, cert) -> tuple[int, dict]:
    """The exit-3 report of an arbitrage certificate, replayed first."""
    _require(arbitrage.verify_na_certificate(m, cert), "arbitrage certificate")
    return EXIT_FAILS, _report(
        command,
        "fails",
        certificates={"arbitrage": marketio.na_certificate_to_json(cert)},
        diagnostics={"strictLeaf": cert.strict_leaf},
    )


def _witness_report(command: str, m: CompiledMarket, witness, **certificates) -> tuple[int, dict]:
    """The exit-0 report of a robustness witness, replayed first, with any
    further certificates after it."""
    _require(arbitrage.verify_nar_witness(m, witness), "robustness witness")
    return EXIT_OK, _report(
        command,
        "holds",
        values={"slack": marketio.format_rational(witness.slack)},
        certificates={"witness": marketio.witness_to_json(witness), **certificates},
    )


def _failure(command: str, m: CompiledMarket, exc: ArbitrageError) -> tuple[int, dict]:
    """The exit-3 report of a raised arbitrage failure. A robust-arbitrage
    ray it carries, whatever the command, is replayed against the zero claim
    and printed: capital < 0 whose strategy's gain covers every leaf."""
    certificates = None
    if getattr(exc, "ray", None) is not None:
        capital, ray = exc.ray
        zero = Claim([ZERO] * len(m.leaves))
        _require(capital < 0 and superhedge.verify_super_replication(m, zero, capital, ray),
                 "robust-arbitrage ray")
        certificates = {"ray": {"capital": marketio.format_rational(capital),
                                "strategy": marketio.strategy_to_json(ray)}}
    _emit_error("arbitrage", exc)
    return EXIT_FAILS, _report(command, "fails", certificates=certificates,
                               diagnostics={"blocking": exc.blocking})


def _cmd_check_na(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    verdict = arbitrage.check_na(m)
    if verdict.holds:
        return EXIT_OK, _report("check-na", "holds")
    return _arbitrage_report("check-na", m, verdict.certificate)


def _cmd_check_nar(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    verdict = arbitrage.check_nar(m)
    if verdict.holds:
        return _witness_report("check-nar", m, verdict.witness)
    return EXIT_FAILS, _report("check-nar", "fails", diagnostics={"blocking": verdict.blocking})


def _cmd_superhedge(args, m: CompiledMarket, f: Claim) -> tuple[int, dict]:
    price, strategy = superhedge.superhedge_price(m, f)
    _require(superhedge.verify_super_replication(m, f, price, strategy), "super-replication")
    return EXIT_OK, _report(
        "superhedge",
        "priced",
        values={"price": marketio.format_rational(price)},
        certificates={"strategy": marketio.strategy_to_json(strategy)},
    )


def _cmd_dual(args, m: CompiledMarket, f: Claim) -> tuple[int, dict]:
    value, measure = superhedge.dual_price(m, f)
    _require(arbitrage.verify_measure(m, measure), "dual measure")
    _require(measure.expectation(f.payoff) == value, "dual value")
    return EXIT_OK, _report(
        "dual",
        "priced",
        values={"value": marketio.format_rational(value)},
        certificates={"measure": marketio.measure_to_json(measure)},
    )


def _cmd_bounds(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    i = _index_of([opt.name for opt in m.options], args.option, "option")
    reduced, option = superhedge._option_in_reduced_market(m, i)
    (_, upper, over), (short, lower_neg, under) = superhedge._bound_hedges(reduced, option)
    _require(superhedge.verify_super_replication(reduced, option, upper, over), "super-replication")
    _require(superhedge.verify_super_replication(reduced, short, lower_neg, under), "sub-replication")
    return EXIT_OK, _report(
        "bounds",
        "computed",
        values={
            "lower": marketio.format_rational(-lower_neg),
            "upper": marketio.format_rational(upper),
        },
        diagnostics={"option": args.option},
    )


def _cmd_redundancy(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    report = redundancy.all_spread_options_nonredundant(m)
    verdicts = []
    certificates = {}
    for i in sorted(report.verdicts):
        verdict = report.verdicts[i]
        name = m.options[i].name
        verdicts.append(
            {"option": name, "verdict": "nonRedundant" if verdict.non_redundant else "redundant"}
        )
        if not verdict.non_redundant:
            _require(redundancy.verify_replication(m, i, verdict.certificate), f"replication of {name}")
            certificates[name] = marketio.replication_to_json(m, i, verdict.certificate)
    if report.all_non_redundant:
        return EXIT_OK, _report(
            "redundancy", "holds", diagnostics={"spreadOptions": verdicts}
        )
    return EXIT_FAILS, _report(
        "redundancy",
        "fails",
        certificates={"replications": certificates},
        diagnostics={"spreadOptions": verdicts},
    )


def _cmd_sharper_ftap(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    bundle = redundancy.sharper_ftap(m)
    if not bundle.na.holds:
        return _arbitrage_report("sharper-ftap", m, bundle.na.certificate)
    _require(len(bundle.dominating) == len(m.generator_names), "dominating measure count")
    for q, generator in zip(bundle.dominating, m.measures.generators):
        if q is not bundle.nar_witness.interior_measure:  # the witness's replay checks it
            _require_interior(m, q, "dominating measure")
            _require(arbitrage.dominates(q, generator), "domination")
    return _witness_report("sharper-ftap", m, bundle.nar_witness, dominating={
        name: marketio.measure_to_json(q) for name, q in zip(m.generator_names, bundle.dominating)
    })


def _cmd_dominate(args, m: CompiledMarket, f: None) -> tuple[int, dict]:
    k = _index_of(m.generator_names, args.generator, "generator")
    measure = arbitrage.dominating_measure(m, k)
    _require_interior(m, measure, "dominating measure")  # domination checked where it is kept
    return EXIT_OK, _report(
        "dominate",
        "computed",
        values={"generator": args.generator},
        certificates={"measure": marketio.measure_to_json(measure)},
    )


def _cmd_strict_dual(args, m: CompiledMarket, f: Claim) -> tuple[int, dict]:
    eps = marketio.parse_rational_text(args.eps)
    value, measure = superhedge._strict_dual(m, f, eps)
    achieved = measure.expectation(f.payoff)
    _require_interior(m, measure, "approximate dual measure")
    _require(achieved >= value - eps, "epsilon optimality")
    return EXIT_OK, _report(
        "strict-dual",
        "computed",
        values={
            "value": marketio.format_rational(achieved),
            "eps": marketio.format_rational(eps),
        },
        certificates={"measure": marketio.measure_to_json(measure)},
    )


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are StructureErrors, so `main` reports
    them as invalid input; its subcommand parsers are of the same class."""

    def error(self, message):
        raise StructureError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call."""
    parser = _Parser(
        prog="hedgecert",
        description="Exact arbitrage verdicts and super-hedging prices for "
        "finite markets with bid-ask quoted hedging options.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, claim=False, option=False, generator=False, eps=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("market", help="market JSON file")
        if claim:
            cmd.add_argument("--claim", required=True, help="claim JSON file")
        if option:
            cmd.add_argument("--option", required=True, help="option name")
        if generator:
            cmd.add_argument("--generator", required=True, help="generator name")
        if eps:
            cmd.add_argument("--eps", required=True, help="positive rational, e.g. 1/100")
        cmd.add_argument("--pretty", action="store_true", help="indented output")
        cmd.add_argument("--verify", action="store_true", help="accepted and ignored: every "
                         "command replays its certificates before printing")
        cmd.set_defaults(handler=handler, claim=None)

    add("check-na", _cmd_check_na, "decide no-arbitrage")
    add("check-nar", _cmd_check_nar, "decide robust no-arbitrage")
    add("superhedge", _cmd_superhedge, "super-hedging price of a claim", claim=True)
    add("dual", _cmd_dual, "dual price over consistent measures", claim=True)
    add("bounds", _cmd_bounds, "price interval for an option from the rest", option=True)
    add("redundancy", _cmd_redundancy, "non-redundancy of spread options")
    add("sharper-ftap", _cmd_sharper_ftap, "no-arbitrage verdict with full dual package")
    add("dominate", _cmd_dominate, "consistent measure dominating a generator", generator=True)
    add("strict-dual", _cmd_strict_dual, "strictly interior near-optimal dual measure",
        claim=True, eps=True)
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(payload, separators=(",", ":")), file=sys.stderr)


def _print_report(report: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(report, indent=2)
        if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
            verdict = report.get("verdict", "")
            color = _GREEN if verdict in ("holds", "priced", "computed") else _RED
            text = text.replace(
                f'"verdict": "{verdict}"', f'"verdict": "{color}{verdict}{_RESET}"', 1
            )
        print(text)
    else:
        print(json.dumps(report, separators=(",", ":")))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        m = marketio.parse_market(_read(args.market))
        f = None if args.claim is None else marketio.parse_claim(_read(args.claim), m)
        try:
            code, report = args.handler(args, m, f)
        except PreconditionError as exc:
            _emit_error("precondition", exc)
            code, report = EXIT_FAILS, _report(
                args.command, "precondition-failed", diagnostics={"reason": str(exc)}
            )
        except ArbitrageError as exc:
            code, report = _failure(args.command, m, exc)
    except (StructureError, DomainError) as exc:
        _emit_error("invalid-input", exc)
        return EXIT_INVALID
    except OSError as exc:
        _emit_error("io-error", exc)
        return EXIT_INVALID
    except SoundnessError as exc:
        _emit_error("soundness", exc)
        return EXIT_UNSOUND
    _print_report(report, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
