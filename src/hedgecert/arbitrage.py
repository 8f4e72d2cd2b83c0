"""No-arbitrage and robust no-arbitrage verdicts with replayable certificates.

Plain no-arbitrage asks that no semi-static strategy have nonnegative gain on
every charged scenario and strictly positive gain on one of them. By the
fundamental theorem with bid-ask quoted options, it holds exactly when some
martingale measure consistent with the closed quotes charges every charged
scenario. The robust variant additionally requires survival after every
nonzero bid-ask spread is shrunk strictly into its interior; on a finite
tree that is equivalent to such a measure that also prices every spread
option strictly inside its quotes. Both are decided by one measure program
that maximizes a floor t under every charged scenario's weight; for the
robust verdict t also pushes the spread quotes inward. Both verdict
directions come with machine-checkable evidence: a gain-positive strategy,
read off the program's row multipliers, when arbitrage exists; an interior
measure plus shrunk quotes when robustness holds. Every measure program,
`superhedge`'s and `redundancy`'s too, is solved by `_solve`; `_hedge` reads
its outcome's multipliers, `_arbitrage` and `_robustness` a verdict.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import lp
from .errors import DomainError, RobustArbitrageError, SoundnessError, StructureError
from .model import (
    CompiledMarket,
    MarketModel,
    Strategy,
    ZERO,
    ONE,
    _index,
    _integer_prices,
    _terminal_gain,
    _top_down,
    require_valid,
    terminal_gain,
)


@dataclass
class MartingaleMeasure:
    """Leaf weights satisfying every node-level one-step pricing identity.

    `option_values` caches the exact expectation of each option payoff under
    the weights. Weights vanish off the charged scenarios, which is what
    absolute continuity with respect to the measure family means here.
    """

    weights: list[Fraction]
    option_values: list[Fraction]

    def expectation(self, payoff: list[Fraction]) -> Fraction:
        """The payoff's exact expectation under the weights: one integer
        sum (`lp._dot`). The payoff and the weights must be lists of ints and
        Fractions of one length, or it is a StructureError naming the entry;
        a float would be read as the binary fraction it stores."""
        lp._list(payoff, "payoff")
        lp._list(self.weights, "weights")
        if len(payoff) != len(self.weights):
            raise StructureError(
                f"payoff has {len(payoff)} entries for a measure on {len(self.weights)} leaves"
            )
        lp._rationals(payoff, "payoff")
        lp._rationals(self.weights, "weights")
        return lp._dot(self.weights, payoff)


@dataclass
class ArbitrageCertificate:
    strategy: Strategy
    gains: list[Fraction]
    strict_leaf: int


@dataclass
class RobustnessWitness:
    """Evidence that no-arbitrage survives a strict quote shrink.

    The interior measure charges every supported scenario and its option
    values sit inside [shrunk_bids, shrunk_asks], which are pulled in by half
    the achieved slack on every option with a spread.
    """

    shrunk_bids: list[Fraction]
    shrunk_asks: list[Fraction]
    interior_measure: MartingaleMeasure
    slack: Fraction


@dataclass
class NaVerdict:
    holds: bool
    certificate: ArbitrageCertificate | None = None


@dataclass
class NarVerdict:
    holds: bool
    witness: RobustnessWitness | None = None
    blocking: str | None = None


# why a measure program is infeasible, in every verdict or error that says so
_NO_CONSISTENT_MEASURE = "no quote-consistent martingale measure is supported on the charged scenarios"


def _measure(c: CompiledMarket, weights: list[Fraction]) -> MartingaleMeasure:
    """The measure with the package's own weights, one per leaf, kept as
    given: they are put over one lcm once, and each option is priced by one
    integer dot product with its compiled payoff integers."""
    w, den = lp._over_lcm(weights)
    values = [Fraction(sum(map(mul, w, pay)), den * pay_den) for pay, pay_den in c.integer_payoffs]
    return MartingaleMeasure(weights, values)


_FACE_LOCK = threading.Lock()  # held while any market's face is built


def _face(c: CompiledMarket):
    """The measure programs' t = 0 face and its layout, built once, under
    `_FACE_LOCK`, with `lp._Phase1` and kept with the market: (phase 1,
    layout). Concurrent first queries on a market run one phase 1; phase 1
    holds the GIL, so a build that waits on another loses nothing.

    Variables are R_w >= 0 per charged leaf. Rows, each its nonzeros'
    (column, value) pairs: total mass one, every node-level martingale
    identity with a nonzero coefficient on a charged leaf, and the quote
    rows, with equality on zero-spread options and bid/ask inequalities on
    spread options. `layout[r]` names row r: ("mass", 0), ("martingale",
    dynamic column) or ("option", option index).
    """
    if c._face is not None:  # state kept with the market, not market data
        return c._face
    with _FACE_LOCK:
        if c._face is not None:  # another thread built it while this one waited
            return c._face
        rows, rels, rhs, layout = [], [], [], []

        def add(coefs, rel, bound, name):
            rows.append(coefs)
            rels.append(rel)
            rhs.append(bound)
            layout.append(name)

        add(tuple((k, ONE) for k in range(len(c.charged))), lp.EQ, ONE, ("mass", 0))
        for col, gains in enumerate(c.gain_columns):  # each row the compiled column, shared
            if gains:
                add(gains, lp.EQ, ZERO, ("martingale", col))
        for i, opt in enumerate(c.options):
            coefs = tuple((k, opt.payoff[pos]) for k, pos in enumerate(c.charged) if opt.payoff[pos])
            if not opt.has_spread():
                add(coefs, lp.EQ, opt.bid, ("option", i))
            else:
                add(coefs, lp.GE, opt.bid, ("option", i))
                add(coefs, lp.LE, opt.ask, ("option", i))
        face = lp.LpProblem([ZERO] * len(c.charged), rows, rels, rhs)
        object.__setattr__(c, "_face", (lp._Phase1(face), tuple(layout)))
        return c._face


def _solve(c: CompiledMarket, objective: list[Fraction], push=None) -> lp.LpOutcome:
    """Build a measure program on the market's face (`_face`) and solve it
    once: its outcome. The mass row caps every objective, so an unbounded
    outcome can only be a solver fault.

    Unless `push` is None the program has a trailing floor t >= 0, and the
    measure itself is Q_w = R_w + t; the spread quote bounds move inward by
    push * t. Its column is the leaf columns' sum plus push times each
    spread row's slack column, the late column of `lp._Phase1.program`."""
    out = lp.solve_lp(_face(c)[0].program(objective, push))
    if out.status == lp.UNBOUNDED:
        raise SoundnessError("measure program unbounded; the mass row caps every objective")
    return out


def _floor(c: CompiledMarket, push):
    """Solve max t: the floor every charged leaf's weight Q_w = R_w + t sits on."""
    return _solve(c, [ZERO] * len(c.charged) + [ONE], push)


def _hedge(c: CompiledMarket, out: lp.LpOutcome) -> tuple[Fraction, Strategy]:
    """Capital y . rhs and the strategy the face's row multipliers y encode:
    the optimal duals, or the negated Farkas vector. Martingale rows give
    dynamic positions, an option's one or two rows sum to its net position,
    bought if positive and sold if negative, and the mass row is capital.
    The strategy gains y . A_w - y . rhs on leaf w, plus what netting adds."""
    phase1, layout = _face(c)
    y = out.dual if out.status == lp.OPTIMAL else [-v for v in out.farkas]
    position = [ZERO] * len(c.columns)  # in strategy_from column order
    net = [ZERO] * len(c.options)
    for (kind, index), v in zip(layout, y):
        if kind == "martingale":
            position[index] = v
        elif kind == "option":
            net[index] += v
    position += [v if v > 0 else ZERO for v in net] + [-v if v < 0 else ZERO for v in net]
    return lp._dot(y, phase1.rhs), c.strategy_from(position)


def _arbitrage(c: CompiledMarket, out: lp.LpOutcome) -> NaVerdict:
    """The arbitrage a floor program's multipliers encode when its optimum is
    0 or it is infeasible. Either way y . A_w >= 0 on every leaf column and
    y . rhs <= 0, with y . A_t >= 1 or y . rhs < 0, so the strategy gains
    y . A_w - y . rhs >= 0 on every charged leaf; one where it is positive
    is the strict leaf, and a strategy with none is a SoundnessError."""
    _, strategy = _hedge(c, out)
    gains = _terminal_gain(c, strategy)  # `_hedge` builds it to the market's shape
    strict = next((pos for pos in c.charged if gains[pos] > 0), None)
    if strict is None:
        raise SoundnessError("measure-side multipliers give no strictly positive gain")
    return NaVerdict(False, ArbitrageCertificate(strategy, gains, strict))


def check_na(m: MarketModel) -> NaVerdict:
    """Decide no-arbitrage on the measure side: maximize a floor t >= 0 on
    every charged leaf's weight over quote-consistent martingale measures.

    No-arbitrage holds exactly when the optimum is positive. Otherwise the
    row multipliers are an arbitrage (`_arbitrage`): with push 0 the t
    column is sum_w A_w, so y . A_t >= 1 puts a positive gain on some leaf.
    """
    c = require_valid(m)
    out = _floor(c, push=0)
    if out.status == lp.OPTIMAL and out.objective_value > 0:
        return NaVerdict(True)
    return _arbitrage(c, out)


def _weights_on_charged(c: CompiledMarket, values, shift=ZERO) -> list[Fraction]:
    """Leaf weights from one program value per charged leaf, plus `shift`.
    A nonzero shift is added in integers, over one denominator with the
    values, and each shifted weight is one Fraction."""
    if shift:
        nums, den = lp._over_lcm([*values[:len(c.charged)], shift])
        s = nums.pop()
        values = [Fraction(u + s, den) for u in nums]
    weights = [ZERO] * len(c.leaves)
    for pos, v in zip(c.charged, values):
        weights[pos] = v
    return weights


def _robustness(c: CompiledMarket, out: lp.LpOutcome) -> NarVerdict:
    """The robust verdict of a solved push-1 floor program: the interior
    measure and the strictly shrunk quotes when the slack is positive."""
    if out.status == lp.INFEASIBLE:
        return NarVerdict(False, blocking=_NO_CONSISTENT_MEASURE)
    slack = out.objective_value
    if slack == 0:
        return NarVerdict(False, blocking="maximal uniform slack is 0: every consistent martingale "
                          "measure touches a quote bound or drops a charged scenario")

    measure = _measure(c, _weights_on_charged(c, out.primal, slack))
    half = slack / 2
    shrunk_bids = [opt.bid + half if opt.has_spread() else opt.bid for opt in c.options]
    shrunk_asks = [opt.ask - half if opt.has_spread() else opt.ask for opt in c.options]
    return NarVerdict(True, RobustnessWitness(shrunk_bids, shrunk_asks, measure, slack))


def check_nar(m: MarketModel) -> NarVerdict:
    """Decide robust no-arbitrage by maximizing a uniform slack.

    The slack simultaneously lower-bounds every charged leaf's weight and the
    distance of every spread option's value from both quotes. Robustness
    holds exactly when the maximal slack is positive; the optimizer then
    yields the interior measure and the strictly shrunk quotes.
    """
    c = require_valid(m)
    return _robustness(c, _floor(c, push=1))


def _require_nar(c: CompiledMarket, failure: str) -> RobustnessWitness:
    """The robustness witness, or RobustArbitrageError saying `failure` and
    what blocks robust no-arbitrage."""
    verdict = check_nar(c)
    if not verdict.holds:
        raise RobustArbitrageError(f"{failure}: {verdict.blocking}", blocking=verdict.blocking)
    return verdict.witness


def dominates(q: MartingaleMeasure, generator: list[Fraction]) -> bool:
    """True when q charges every leaf the generator charges; False when q
    is not a measure or an entry is not an int or a Fraction."""
    if not isinstance(q, MartingaleMeasure) or not lp._rational_lists(q.weights, generator):
        return False
    return len(q.weights) == len(generator) and all(
        q.weights[pos] > 0 for pos, w in enumerate(generator) if w > 0
    )


def _require_domination(q: MartingaleMeasure, generators: list[list[Fraction]]) -> None:
    if not all(dominates(q, gen) for gen in generators):
        raise SoundnessError("witness fails to dominate a generator it must dominate")


def dominating_measure(m: MarketModel, generator_index: int) -> MartingaleMeasure:
    """A consistent measure dominating the chosen generator.

    The robustness witness already charges every supported scenario with
    weight at least the achieved slack and stays strictly inside every
    spread, so it dominates each generator at once; returning it keeps the
    output deterministic and the domination as strong as possible.
    """
    c = require_valid(m)
    k = _index(generator_index, len(c.measures.generators), "generator index")
    measure = _require_nar(c, "robust no-arbitrage fails").interior_measure
    _require_domination(measure, [c.measures.generators[k]])
    return measure


def scenario_pricing_measure(m: MarketModel, leaf: int) -> MartingaleMeasure | None:
    """A consistent measure charging the given leaf, or None if none exists.

    No-arbitrage holds exactly when the answer is non-None for every charged
    leaf, which makes this the per-scenario diagnosis of an arbitrage verdict.
    """
    c = require_valid(m)
    _index(leaf, len(c.leaves), "leaf position")
    if leaf not in c.charged:
        raise DomainError(f"leaf {leaf} is not charged by any generator")

    objective = [ZERO] * len(c.charged)
    objective[c.charged.index(leaf)] = ONE
    out = _solve(c, objective)
    if out.status == lp.INFEASIBLE or out.objective_value == 0:
        return None
    return _measure(c, _weights_on_charged(c, out.primal))


def verify_measure(m: MarketModel, q: MartingaleMeasure) -> bool:
    """Replay every measure invariant exactly: mass, support, martingale, quotes.

    The weights enter as integers over one common denominator. The mass
    under each node is summed bottom-up from the leaves, once per tree edge,
    and each (node, asset) martingale identity, the mass under each child
    times its price step, is tested as an integer sum equal to 0. Each
    option's value is one integer sum over those weights and its payoff put
    over its own lcm. It walks the tree and reads the payoffs directly,
    independently of the rows and payoff integers the package compiles.
    """
    c = require_valid(m)
    if not isinstance(q, MartingaleMeasure) or not lp._rational_lists(q.weights, q.option_values):
        return False
    if len(q.weights) != len(c.leaves) or len(q.option_values) != len(c.options):
        return False
    weights, den = lp._over_lcm(q.weights)
    if any(w < 0 for w in weights) or sum(weights) != den:
        return False
    supp = set(c.charged)
    if any(w for pos, w in enumerate(weights) if pos not in supp):
        return False
    a = c.tree.num_assets
    if a:
        prices, _ = _integer_prices(c)
        mass = [0] * len(c.prices)
        for leaf, w in zip(c.leaves, weights):
            mass[leaf] = w
        for nid in reversed(_top_down(c)):
            kids = c.children[nid]
            if not kids:
                continue
            total = mass[nid] = sum(mass[kid] for kid in kids)
            if total and any(sum(mass[kid] * prices[kid][j] for kid in kids) != total * p
                             for j, p in enumerate(prices[nid])):
                return False
    for i, opt in enumerate(c.options):
        pay, pay_den = lp._over_lcm(opt.payoff)  # the payoff itself, not the compiled integers
        value = Fraction(sum(map(mul, weights, pay)), den * pay_den)
        if value != q.option_values[i]:
            return False
        if not opt.bid <= value <= opt.ask:
            return False
    return True


def strictly_inside_quotes(m: MarketModel, q: MartingaleMeasure) -> bool:
    """True when every spread option is valued strictly inside its quotes,
    and every zero-spread option exactly at its quote."""
    c = require_valid(m)
    values = q.option_values if isinstance(q, MartingaleMeasure) else None
    if not lp._rational_lists(values) or len(values) != len(c.options):
        return False
    for i, opt in enumerate(c.options):
        v = q.option_values[i]
        if opt.has_spread():
            if not opt.bid < v < opt.ask:
                return False
        elif v != opt.bid:
            return False
    return True


def verify_na_certificate(m: MarketModel, cert: ArbitrageCertificate) -> bool:
    c = require_valid(m)
    if not isinstance(cert, ArbitrageCertificate) or type(cert.strict_leaf) is not int:
        return False
    if not lp._rational_lists(cert.gains):
        return False
    try:
        gains = terminal_gain(c, cert.strategy)
    except StructureError:  # a strategy malformed for this market
        return False
    if gains != cert.gains:
        return False
    if cert.strict_leaf not in c.charged:
        return False
    if any(gains[pos] < 0 for pos in c.charged):
        return False
    return gains[cert.strict_leaf] > 0


def verify_nar_witness(m: MarketModel, w: RobustnessWitness) -> bool:
    c = require_valid(m)
    if not isinstance(w, RobustnessWitness):
        return False
    if not lp._rational_lists([w.slack], w.shrunk_bids, w.shrunk_asks) or w.slack <= 0:
        return False
    e = len(c.options)
    if len(w.shrunk_bids) != e or len(w.shrunk_asks) != e:
        return False
    for i, opt in enumerate(c.options):
        sb, sa = w.shrunk_bids[i], w.shrunk_asks[i]
        if opt.has_spread():
            if not (opt.bid < sb <= sa < opt.ask):
                return False
        elif sb != opt.bid or sa != opt.bid:
            return False
    q = w.interior_measure
    if not verify_measure(c, q):
        return False
    if any(not q.weights[pos] > 0 for pos in c.charged):
        return False
    for i in range(e):
        if not w.shrunk_bids[i] <= q.option_values[i] <= w.shrunk_asks[i]:
            return False
    return True
