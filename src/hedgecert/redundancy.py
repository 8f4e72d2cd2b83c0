"""Non-redundancy of hedging options, and the sharper verdict it enables.

An option is redundant when cash, dynamic stock trading, and the other
options replicate its payoff exactly on every charged scenario; quotes play
no role in that question, only payoffs do. It is a linear system, with no
inequality and no objective, so exact elimination decides it and any
solution is the replication certificate. One reduced row-echelon form of
[1 | G | P] on the charged leaves serves all options at once: whether
option i's payoff column takes a pivot, and which later payoff columns lean
on it, decide it and give its replication. The answer depends on the
compiled market alone, so every option's replication is solved once, on
the market's first redundancy query, and kept with it; each query reads
its verdicts and fresh certificates off them. When every option with a
nonzero spread is non-redundant, no-arbitrage and robust no-arbitrage
coincide; `sharper_ftap` bundles exactly that from the two public
verdicts, the robust one first and, only where it fails, no-arbitrage's
arbitrage, which must then exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arbitrage import MartingaleMeasure, NaVerdict, RobustnessWitness, check_na, check_nar
from .errors import PreconditionError, SoundnessError, StructureError
from .lp import _int_row, _rational_lists, _reduce
from .model import (CompiledMarket, MarketModel, Strategy, ZERO, ONE, _index, _kept,
                    require_valid, terminal_gain)


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


def _replicate(c: CompiledMarket) -> tuple[tuple[Fraction, ...] | None, ...]:
    """Every option's replication from one reduced row-echelon form: per
    option, None when it is non-redundant, else its solution over
    [1 | G | P_others], as a tuple. Built on the market's first redundancy
    query and kept in its store as `_replications` (`model._kept`).

    [1 | G | P] on the charged leaves, the compiled gain and payoff columns
    transposed, is reduced once, in column order, on integer rows
    (`lp._int_row`, `lp._reduce`), and each replication is read straight off
    those rows, one Fraction per nonzero entry. Option i's payoff column p
    then reads in one of two ways. Without a pivot it
    is the combination of the pivot columns its entries give: column j = p
    has x[piv_k] = a_k[j] / a_k[piv_k]. With a pivot in row r it is
    redundant exactly when a later payoff column j without a pivot has
    a_r[j] != 0; the first such j is a combination of the pivot columns,
    P_i among them, solved for P_i: every entry above is scaled by
    -a_r[p] / a_r[j], and x[j] = a_r[p] / a_r[j]. Column-ordered
    Gauss-Jordan on [1 | G | P_others] takes the same pivots, j's in place
    of p's, so this is that system's solution against P_i, with every
    column that takes no pivot at 0.
    """
    nb, e = 1 + len(c.columns), len(c.options)
    rows = [[(0, ONE)] for _ in c.charged]  # [1 | G | P] by charged rank, in column order
    for col, entries in enumerate((*c.gain_columns, *c.payoff_columns), 1):
        for k, v in entries:
            rows[k].append((col, v))
    a = [_int_row(row) for row in rows]
    piv = _reduce(a, nb + e)
    row_of = {col: k for k, col in enumerate(piv)}
    replications = []
    for p in range(nb, nb + e):
        j, num, den = p, 1, 1  # the replication is num / den times column j's dependency
        if p in row_of:
            r = a[row_of[p]]
            j = next((f for f in range(p + 1, nb + e) if f not in row_of and f in r), None)
            if j is None:
                replications.append(None)
                continue
            num, den = -r[p], r[j]
        x = [ZERO] * (nb + e)  # option i's own entry, -1 either way, is never built
        if j != p:
            x[j] = Fraction(-num, den)
        for col, row in zip(piv, a):
            if col != p and j in row:
                x[col] = Fraction(num * row[j], den * row[col])
        del x[p]
        replications.append(tuple(x))
    return tuple(replications)


def _replications(c: CompiledMarket, targets: list[int]) -> dict[int, NonredundancyVerdict]:
    """The verdict of every option in `targets`, read off the replications
    the market keeps (`_replicate`), which a market with no target never
    builds. Each call builds its own verdicts and certificates, the
    dynamic positions by `strategy_from`, so a caller that changes one
    changes nothing the market keeps."""
    if not targets:
        return {}
    replications, nb = _kept(c, "_replications", _replicate), 1 + len(c.columns)
    verdicts = {}
    for i in targets:
        x = replications[i]  # None, or a tuple led by the capital
        verdicts[i] = NonredundancyVerdict(x is None, x and ReplicationCertificate(
            x[0], c.strategy_from(x[1:nb]).dynamic, list(x[nb:])))
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
    """Settle the market by the sharper fundamental theorem, the main result
    of "A note on the Fundamental Theorem of Asset Pricing under model
    uncertainty": when every spread option is non-redundant, robust
    no-arbitrage holds exactly when no-arbitrage does.

    Precondition: every spread option non-redundant. If robust
    no-arbitrage holds (`check_nar`), the bundle carries its witness plus a
    dominating measure per generator: the witness charges every supported
    scenario, so it is that measure for every generator at once, checked
    where it is kept (`_robustness`). Otherwise the theorem says
    no-arbitrage fails too, and the bundle carries `check_na`'s arbitrage;
    a `check_na` that holds there contradicts the theorem, a SoundnessError.
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
    nar = check_nar(c)
    if nar.holds:
        return SharperFtapBundle(
            NaVerdict(True), nar.witness, [nar.witness.interior_measure] * len(c.measures.generators)
        )
    na = check_na(c)
    if na.holds:
        raise SoundnessError(
            "no-arbitrage holds with non-redundant spread options, yet the robust "
            f"check fails ({nar.blocking}); this contradicts an exact implication"
        )
    return SharperFtapBundle(na, None, None)


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
