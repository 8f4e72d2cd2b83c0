"""Non-redundancy of hedging options, and the sharper verdict it enables.

An option is redundant when cash, dynamic stock trading, and the other
options replicate its payoff exactly on every charged scenario; quotes play
no role in that question, only payoffs do. It is a linear system, with no
inequality and no objective, so one exact elimination decides it and any
solution is the replication certificate. When every option with a nonzero
spread is non-redundant, plain no-arbitrage already implies the robust
version, so a single no-arbitrage check plus its dual package settles the
whole market; `sharper_ftap` bundles exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arbitrage import (
    MartingaleMeasure,
    NaVerdict,
    RobustnessWitness,
    _require_domination,
    check_na,
    check_nar,
)
from .errors import DomainError, PreconditionError, SoundnessError
from .lp import solve_linear
from .model import Market, Strategy, ZERO, ONE, require_valid, terminal_gain


@dataclass
class ReplicationCertificate:
    """Witness of redundancy: capital, dynamic positions, and signed static
    positions in the other options reproducing the target payoff exactly."""

    initial_capital: Fraction
    dynamic: dict[int, list[Fraction]]
    static_signed: list[Fraction]


@dataclass
class NonredundancyVerdict:
    non_redundant: bool
    certificate: ReplicationCertificate | None = None


@dataclass
class SpreadOptionsReport:
    all_non_redundant: bool
    verdicts: dict[int, NonredundancyVerdict]


@dataclass
class SharperFtapBundle:
    na: NaVerdict
    nar_witness: RobustnessWitness | None
    dominating: list[MartingaleMeasure] | None


def check_nonredundant(m: Market, i: int) -> NonredundancyVerdict:
    """Solve x + dynamic gains + other options == option i on the charged
    leaves, exactly; a solution is the replication certificate."""
    c = require_valid(m)
    if not 0 <= i < len(c.options):
        raise DomainError(f"option index {i} out of range")
    others = [k for k in range(len(c.options)) if k != i]
    rows = [
        [ONE, *c.gain_rows[pos], *(c.options[k].payoff[pos] for k in others)]
        for pos in c.charged
    ]
    solved = solve_linear(rows, [c.options[i].payoff[pos] for pos in c.charged])
    if solved is None:
        return NonredundancyVerdict(True)

    # the static columns here are signed positions, not legs: keep the dynamic part
    x = solved[0]
    dynamic = c.strategy_from(x[1:]).dynamic
    return NonredundancyVerdict(
        False, ReplicationCertificate(x[0], dynamic, x[1 + len(c.columns):])
    )


def all_spread_options_nonredundant(m: Market) -> SpreadOptionsReport:
    c = require_valid(m)
    verdicts = {
        i: check_nonredundant(c, i)
        for i, opt in enumerate(c.options)
        if opt.has_spread()
    }
    return SpreadOptionsReport(
        all(v.non_redundant for v in verdicts.values()), verdicts
    )


def sharper_ftap(m: Market) -> SharperFtapBundle:
    """Settle the market from plain no-arbitrage alone.

    Precondition: every spread option non-redundant. If arbitrage exists the
    verdict carries its certificate; otherwise robust no-arbitrage must
    follow, and the bundle includes the robustness witness plus a dominating
    measure per generator. The witness charges every supported scenario, so
    it is that measure for every generator at once. A market passing the
    precondition where the implication fails would be a solver bug, not a
    market.
    """
    c = require_valid(m)
    report = all_spread_options_nonredundant(c)
    if not report.all_non_redundant:
        bad = sorted(
            c.options[i].name for i, v in report.verdicts.items() if not v.non_redundant
        )
        raise PreconditionError(
            "redundant spread options: " + ", ".join(bad),
            details=report,
        )
    na = check_na(c)
    if not na.holds:
        return SharperFtapBundle(na, None, None)
    nar = check_nar(c)
    if not nar.holds:
        raise SoundnessError(
            "no-arbitrage holds with non-redundant spread options, yet the robust "
            f"check fails ({nar.blocking}); this contradicts an exact implication"
        )
    measure = nar.witness.interior_measure
    _require_domination(measure, c.measures.generators)
    return SharperFtapBundle(na, nar.witness, [measure] * len(c.measures.generators))


def verify_replication(m: Market, i: int, cert: ReplicationCertificate) -> bool:
    """Replay the replication identity on every charged leaf, walking the
    tree for the dynamic gains."""
    c = require_valid(m)
    if not 0 <= i < len(c.options):
        return False
    others = [k for k in range(len(c.options)) if k != i]
    if len(cert.static_signed) != len(others):
        return False
    if set(cert.dynamic) != set(c.nonleaf):
        return False
    e = len(c.options)
    gains = terminal_gain(c, Strategy(cert.dynamic, [ZERO] * e, [ZERO] * e))
    for pos in c.charged:
        total = cert.initial_capital + gains[pos]
        for k, h in zip(others, cert.static_signed):
            if h:
                total += h * c.options[k].payoff[pos]
        if total != c.options[i].payoff[pos]:
            return False
    return True
