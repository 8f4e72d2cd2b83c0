"""Non-redundancy of hedging options, and the sharper verdict it enables.

An option is redundant when cash, dynamic stock trading, and the other
options replicate its payoff exactly on every charged scenario; quotes play
no role in that question, only payoffs do. It is a linear system, with no
inequality and no objective, so exact elimination decides it and any
solution is the replication certificate. One reduced row-echelon form of
[1 | G | P] on the charged leaves serves all options at once: whether
option i's payoff column takes a pivot, and which later payoff columns lean
on it, decide it and give its certificate. When every option with a
nonzero spread is non-redundant, no-arbitrage and robust no-arbitrage
coincide, so one solve of the robust program settles the whole market
either way; `sharper_ftap` bundles exactly that, and solves no other
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arbitrage import (
    MartingaleMeasure,
    NaVerdict,
    RobustnessWitness,
    _arbitrage,
    _floor,
    _require_domination,
    _robustness,
)
from .errors import PreconditionError, StructureError
from .lp import _rational_lists, _reduce_linear
from .model import (CompiledMarket, MarketModel, Strategy, ZERO, ONE, _index, require_valid,
                    terminal_gain)


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


def _replications(c: CompiledMarket, targets: list[int]) -> dict[int, NonredundancyVerdict]:
    """Decide every option in `targets` from one reduced row-echelon form.

    [1 | G | P] on the charged leaves is reduced once, in column order.
    Option i's payoff column then reads in one of two ways. Without a pivot
    it is the combination of the pivot columns its reduced entries give.
    With a pivot in row r it is redundant exactly when a later payoff column
    without a pivot has a nonzero entry in row r; the first such column f is
    a combination of the pivot columns, P_i among them, solved for P_i. So
    column j (i itself, or f) has a dependency d with d . [1 | G | P] = 0
    and d_j = 1, and the certificate is -d / d_i without column i.
    Column-ordered Gauss-Jordan on [1 | G | P_others] takes the same
    pivots, f's in place of P_i's, so this is that system's solution
    against P_i, with every column that takes no pivot at 0.
    """
    if not targets:
        return {}
    nb, e = 1 + len(c.columns), len(c.options)
    rows = {pos: [(0, ONE)] for pos in c.charged}  # [1 | G | P] by charged leaf, in column order
    entries = [(col, pos, v) for col, gains in enumerate(c.gain_columns, 1) for pos, v in gains]
    entries += [(col, pos, opt.payoff[pos]) for col, opt in enumerate(c.options, nb) for pos in rows]
    for col, pos, v in entries:
        if v and pos in rows:
            rows[pos].append((col, v))
    piv, tails = _reduce_linear([tuple(row) for row in rows.values()], nb, nb + e)
    row_of = {col: k for k, col in enumerate(piv)}
    verdicts = {}
    for i in targets:
        j = i
        if nb + i in row_of:
            lean = tails[row_of[nb + i]]
            j = next((f for f in range(i + 1, e) if nb + f not in row_of and lean[f]), None)
            if j is None:
                verdicts[i] = NonredundancyVerdict(True)
                continue
        d = [ZERO] * (nb + e)
        d[nb + j] = ONE
        for col, tail in zip(piv, tails):
            d[col] = -tail[j]
        s = d.pop(nb + i)  # option i's own coefficient, nonzero
        x = [-v / s if v else ZERO for v in d]  # over [1 | G | P_others]
        dynamic = c.strategy_from(x[1:nb]).dynamic
        verdicts[i] = NonredundancyVerdict(False, ReplicationCertificate(x[0], dynamic, x[nb:]))
    return verdicts


def check_nonredundant(m: MarketModel, i: int) -> NonredundancyVerdict:
    """Solve x + dynamic gains + other options == option i on the charged
    leaves, exactly; a solution is the replication certificate."""
    c = require_valid(m)
    return _replications(c, [_index(i, len(c.options), "option index")])[i]


def all_spread_options_nonredundant(m: MarketModel) -> SpreadOptionsReport:
    c = require_valid(m)
    verdicts = _replications(c, [i for i, opt in enumerate(c.options) if opt.has_spread()])
    return SpreadOptionsReport(
        all(v.non_redundant for v in verdicts.values()), verdicts
    )


def sharper_ftap(m: MarketModel) -> SharperFtapBundle:
    """Settle the market from one solve of the robust program.

    Precondition: every spread option non-redundant. Robust no-arbitrage
    implies no-arbitrage, since a consistent measure with floor t > 0 when
    the quotes are pushed inward is one with the quotes left in place. If it
    holds, the bundle carries the robustness witness plus a dominating
    measure per generator: the witness charges every supported scenario, so
    it is that measure for every generator at once. Otherwise the verdict is
    an arbitrage read off the same solve's multipliers (`_arbitrage`).

    Why that is exact. The push-1 multipliers y gain
    g_w = y . A_w - y . rhs >= 0 on every charged leaf w. A Farkas y has
    y . rhs < 0, so every leaf is strict. At t* = 0, y . rhs = 0 and
    y . A_t = sum_w y . A_w + sum over spread options of
    (|y_bid| + |y_ask|) >= 1; so if every g_w = 0, some spread leg is
    nonzero. Netting its bid and ask multipliers (`_hedge`) then either adds
    min(y_ask, -y_bid) * (ask - bid) > 0 on every leaf, or leaves a nonzero
    net spread position with zero gain. A zero-gain position would replicate
    that option from cash, the stock and the other options, making it
    redundant, which the precondition excludes. So a certificate without a
    strict leaf, `_arbitrage`'s SoundnessError, can only be a solver fault.
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
    out = _floor(c, push=1)
    nar = _robustness(c, out)
    if not nar.holds:
        return SharperFtapBundle(_arbitrage(c, out), None, None)
    measure = nar.witness.interior_measure
    _require_domination(measure, c.measures.generators)
    return SharperFtapBundle(
        NaVerdict(True), nar.witness, [measure] * len(c.measures.generators)
    )


def verify_replication(m: MarketModel, i: int, cert: ReplicationCertificate) -> bool:
    """Replay the replication identity on every charged leaf, walking the
    tree for the dynamic gains."""
    c = require_valid(m)
    if type(i) is not int or not 0 <= i < len(c.options):
        return False
    if not isinstance(cert, ReplicationCertificate):
        return False
    others = [k for k in range(len(c.options)) if k != i]
    if not _rational_lists([cert.initial_capital], cert.static_signed):
        return False
    if len(cert.static_signed) != len(others):
        return False
    e = len(c.options)
    try:
        gains = terminal_gain(c, Strategy(cert.dynamic, [ZERO] * e, [ZERO] * e))
    except StructureError:  # dynamic positions malformed for this market
        return False
    for pos in c.charged:
        total = cert.initial_capital + gains[pos]
        for k, h in zip(others, cert.static_signed):
            if h:
                total += h * c.options[k].payoff[pos]
        if total != c.options[i].payoff[pos]:
            return False
    return True
