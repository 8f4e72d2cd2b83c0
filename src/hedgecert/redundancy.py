"""Non-redundancy of hedging options, and the sharper verdict it enables.

An option is redundant when cash, dynamic stock trading, and the other
options replicate its payoff exactly on every charged scenario; quotes play
no role in that question, only payoffs do. When every option with a nonzero
spread is non-redundant, plain no-arbitrage already implies the robust
version, so a single no-arbitrage check plus its dual package settles the
whole market; `sharper_ftap` bundles exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .arbitrage import (
    MartingaleMeasure,
    NaVerdict,
    RobustnessWitness,
    _require_domination,
    check_na,
    check_nar,
)
from .errors import DomainError, PreconditionError, SoundnessError
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
    """Feasibility of x + dynamic gains + other options == option i, exactly."""
    c = require_valid(m)
    if not 0 <= i < len(c.options):
        raise DomainError(f"option index {i} out of range")
    others = [k for k in range(len(c.options)) if k != i]
    nh = len(c.columns)
    ncols = 1 + nh + len(others)

    rows, rhs = [], []
    for pos in c.charged:
        coefs = [ONE] + list(c.gain_rows[pos])
        coefs.extend(c.options[k].payoff[pos] for k in others)
        rows.append(coefs)
        rhs.append(c.options[i].payoff[pos])
    problem = lp.LpProblem(
        sense=lp.MIN,
        objective=[ZERO] * ncols,
        rows=rows,
        relations=[lp.EQ] * len(rows),
        rhs=rhs,
        lower=[None] * ncols,
        upper=[None] * ncols,
    )
    out = lp.solve_lp(problem)
    if out.status == lp.INFEASIBLE:
        return NonredundancyVerdict(True)
    if out.status != lp.OPTIMAL:
        raise SoundnessError("replication program has a constant objective")

    # the static columns here are signed positions, not legs: keep the dynamic part
    dynamic = c.strategy_from(out.primal[1:]).dynamic
    static = list(out.primal[1 + nh:])
    return NonredundancyVerdict(
        False, ReplicationCertificate(out.primal[0], dynamic, static)
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
