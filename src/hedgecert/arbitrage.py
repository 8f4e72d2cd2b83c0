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
its outcome's multipliers, `_arbitrage` and `_robustness` the exact parts of
a verdict. An infeasible face's multipliers, its Farkas vector, are the same
for every program on it, so its ray is derived once, with the face
(`_face`), and `_hedge` reads it from there. The two floor programs are
solved, and their verdicts' parts derived, once per market, by `_floor`,
and kept, the interior measure priced and checked to dominate there; each
verdict is copied afresh from the kept parts (`_na_verdict`, `_nar_verdict`).
"""

from __future__ import annotations

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
    _kept,
    _terminal_gain,
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


def _measure(c: CompiledMarket, values) -> MartingaleMeasure:
    """The measure with one weight per charged leaf, `values` by charged
    rank as given, and 0 on every other leaf; a program's trailing floor t
    is not read. Each option is priced by one integer dot product of the
    values, put over one lcm once, with its compiled payoff integers, by
    charged rank too."""
    nums, den = lp._over_lcm(values[:len(c.charged)])
    weights = [ZERO] * len(c.leaves)
    for pos, v in zip(c.charged, values):
        weights[pos] = v
    option_values = [Fraction(sum(map(mul, nums, pay)), den * pay_den) for pay, pay_den in c.integer_payoffs]
    return MartingaleMeasure(weights, option_values)


def _face(c: CompiledMarket):
    """The measure programs' t = 0 face, its layout and its ray, built on
    the market's first solve with `lp._Phase1` and kept in its store as
    `_face` (`model._kept`): (phase 1, layout, ray). Concurrent first
    queries on a market run one phase 1.
    The ray is None on a feasible face. On an infeasible one it is what its
    negated Farkas vector encodes (`_multipliers`), the same for every
    program on the face: capital y . rhs < 0 and the positions, a tuple in
    `strategy_from` column order, which `_hedge` reads for every outcome
    that is not optimal.

    Variables are R_w >= 0 per charged leaf. Rows, each its nonzeros'
    (column, value) pairs: total mass one, every node-level martingale
    identity with a nonzero coefficient on a charged leaf, and the quote
    rows, with equality on zero-spread options and bid/ask inequalities on
    spread options; a martingale or quote row is the compiled gain or
    payoff column itself, shared. `layout[r]` names row r: ("mass", 0),
    ("martingale", dynamic column) or ("option", option index).
    """
    def build(c):
        rows, rels, rhs, layout = [], [], [], []

        def add(coefs, rel, bound, name):
            rows.append(coefs)
            rels.append(rel)
            rhs.append(bound)
            layout.append(name)

        add(tuple((k, ONE) for k in range(len(c.charged))), lp.EQ, ONE, ("mass", 0))
        for col, gains in enumerate(c.gain_columns):
            if gains:
                add(gains, lp.EQ, ZERO, ("martingale", col))
        for i, (opt, coefs) in enumerate(zip(c.options, c.payoff_columns)):
            if not opt.has_spread():
                add(coefs, lp.EQ, opt.bid, ("option", i))
            else:
                add(coefs, lp.GE, opt.bid, ("option", i))
                add(coefs, lp.LE, opt.ask, ("option", i))
        phase1 = lp._Phase1(lp.LpProblem([ZERO] * len(c.charged), rows, rels, rhs))
        farkas = phase1.farkas
        ray = None if farkas is None else _multipliers(c, layout, rhs, [-v for v in farkas])
        return phase1, tuple(layout), ray

    return _kept(c, "_face", build)


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
    """(outcome, parts) of max t, the floor every charged leaf's weight
    Q_w = R_w + t sits on, and of the verdict push 0 or 1 decides: NA's
    parts are None when it holds, else `_arbitrage`'s, and NAR's are
    `_robustness`'s, which hold, when it holds, the interior measure's
    weights and option values, checked to dominate every generator. Each is
    derived on the first verdict that needs it and kept next to the outcome
    in the market's store (`model._kept`): push 0 as `_na`, push 1 as
    `_nar`. The parts are tuples sharing the verdict's Fractions; each
    reader builds fresh lists and dataclasses around them (`_na_verdict`,
    `_nar_verdict`). A face without a spread option has no inequality row,
    so the late column is the same for every push: one program decides both
    verdicts. Push 1's build solves it, and push 0's reads push 1's kept
    outcome, so NAR's parts are kept with it and a check_nar after check_na
    keeps nothing new."""
    def build(c):
        spread = any(opt.has_spread() for opt in c.options)
        if push or spread:
            out = _solve(c, [ZERO] * len(c.charged) + [ONE], push if spread else 0)
        else:
            out = _floor(c, 1)[0]
        if push:
            return out, _robustness(c, out)
        return out, None if out.status == lp.OPTIMAL and out.objective_value > 0 else _arbitrage(c, out)

    return _kept(c, "_nar", build) if push else _kept(c, "_na", build)


def _multipliers(c: CompiledMarket, layout, rhs, y) -> tuple[Fraction, tuple]:
    """Capital y . rhs and the positions, in `strategy_from` column order,
    that the face's row multipliers y encode. Martingale rows give dynamic
    positions, an option's one or two rows sum to its net position, bought
    if positive and sold if negative, and the mass row is capital. The
    strategy gains y . A_w - y . rhs on leaf w, plus what netting adds. A
    martingale row's rhs is 0, so the capital is taken over the others."""
    position = [ZERO] * len(c.columns)
    net = [ZERO] * len(c.options)
    priced, bounds = [], []  # the mass and quote rows' multipliers and rhs
    for (kind, index), v, b in zip(layout, y, rhs):
        if kind == "martingale":
            position[index] = v
            continue
        priced.append(v)
        bounds.append(b)
        if kind == "option":
            net[index] += v
    position += [v if v > 0 else ZERO for v in net] + [-v if v < 0 else ZERO for v in net]
    return lp._dot(priced, bounds), tuple(position)


def _hedge(c: CompiledMarket, out: lp.LpOutcome) -> tuple[Fraction, tuple]:
    """Capital and the positions, a tuple in `strategy_from` column order,
    that the face's row multipliers encode (`_multipliers`): the optimal
    duals', or, for any other outcome, the face's kept ray (`_face`),
    derived once from its negated Farkas vector."""
    phase1, layout, ray = _face(c)
    return _multipliers(c, layout, phase1.rhs, out.dual) if out.status == lp.OPTIMAL else ray


def _arbitrage(c: CompiledMarket, out: lp.LpOutcome) -> tuple:
    """The arbitrage a floor program's multipliers encode when its optimum is
    0 or it is infeasible. Either way y . A_w >= 0 on every leaf column and
    y . rhs <= 0, with y . A_t >= 1 or y . rhs < 0, so the strategy gains
    y . A_w - y . rhs >= 0 on every charged leaf; one where it is positive
    is the strict leaf, and a strategy with none is a SoundnessError. Its
    parts, as `_na_verdict` reads them: `_hedge`'s positions, kept as they
    are, the gains they walk to (`_terminal_gain`) and the strict leaf."""
    _, positions = _hedge(c, out)
    gains = _terminal_gain(c, positions)
    strict = next((pos for pos in c.charged if gains[pos] > 0), None)
    if strict is None:
        raise SoundnessError("measure-side multipliers give no strictly positive gain")
    return positions, tuple(gains), strict


def _na_verdict(c: CompiledMarket, parts) -> NaVerdict:
    """The NA verdict of a floor's kept parts (`_floor`), in a fresh strategy and lists."""
    if parts is None:
        return NaVerdict(True)
    positions, gains, strict = parts
    return NaVerdict(False, ArbitrageCertificate(c.strategy_from(positions), list(gains), strict))


def check_na(m: MarketModel) -> NaVerdict:
    """Decide no-arbitrage on the measure side: maximize a floor t >= 0 on
    every charged leaf's weight over quote-consistent martingale measures.

    No-arbitrage holds exactly when the optimum is positive. Otherwise the
    row multipliers are an arbitrage (`_arbitrage`): with push 0 the t
    column is sum_w A_w, so y . A_t >= 1 puts a positive gain on some leaf.
    """
    c = require_valid(m)
    return _na_verdict(c, _floor(c, push=0)[1])


def _robustness(c: CompiledMarket, out: lp.LpOutcome):
    """The robust verdict's parts of a solved floor program that decides
    it, as `_nar_verdict` reads them: what blocks it, or, when the slack is
    positive, the slack, the strictly shrunk bids and asks, and the interior
    measure's weights and option values (`_measure`), each charged weight
    R_w plus the slack, put over one lcm once. It dominates every generator,
    positive on each leaf the generator charges, or it is a SoundnessError."""
    if out.status == lp.INFEASIBLE:
        return _NO_CONSISTENT_MEASURE
    slack = out.objective_value
    if slack == 0:
        return ("maximal uniform slack is 0: every consistent martingale "
                "measure touches a quote bound or drops a charged scenario")
    nums, den = lp._over_lcm([*out.primal[:len(c.charged)], slack])
    s = nums.pop()
    q = _measure(c, [Fraction(u + s, den) for u in nums])
    if any(w.numerator > 0 and q.weights[pos].numerator <= 0  # signs, without Fraction compares
           for gen in c.measures.generators for pos, w in enumerate(gen)):
        raise SoundnessError("witness fails to dominate a generator it must dominate")
    half = slack / 2
    return (slack, tuple(opt.bid + half if opt.has_spread() else opt.bid for opt in c.options),
            tuple(opt.ask - half if opt.has_spread() else opt.ask for opt in c.options),
            tuple(q.weights), tuple(q.option_values))


def _nar_verdict(parts) -> NarVerdict:
    """The robust verdict of a floor's kept parts (`_floor`), in fresh lists
    around a copy of the kept measure: nothing is priced or checked again."""
    if isinstance(parts, str):
        return NarVerdict(False, blocking=parts)
    slack, bids, asks, weights, values = parts
    measure = MartingaleMeasure(list(weights), list(values))
    return NarVerdict(True, RobustnessWitness(list(bids), list(asks), measure, slack))


def check_nar(m: MarketModel) -> NarVerdict:
    """Decide robust no-arbitrage by maximizing a uniform slack.

    The slack simultaneously lower-bounds every charged leaf's weight and the
    distance of every spread option's value from both quotes. Robustness
    holds exactly when the maximal slack is positive; the optimizer then
    yields the interior measure and the strictly shrunk quotes.
    """
    c = require_valid(m)
    return _nar_verdict(_floor(c, push=1)[1])


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


def dominating_measure(m: MarketModel, generator_index: int) -> MartingaleMeasure:
    """A consistent measure dominating the chosen generator.

    The robustness witness already charges every supported scenario with
    weight at least the achieved slack and stays strictly inside every
    spread, so it dominates each generator at once; returning it keeps the
    output deterministic and the domination, checked where the witness is
    kept (`_robustness`), as strong as possible.
    """
    c = require_valid(m)
    _index(generator_index, len(c.measures.generators), "generator index")
    return _require_nar(c, "robust no-arbitrage fails").interior_measure


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
    return _measure(c, out.primal)


def verify_measure(m: MarketModel, q: MartingaleMeasure) -> bool:
    """Replay every measure invariant exactly: mass, support, martingale, quotes.

    The weights enter as integers over one common denominator. The mass
    under each node is summed bottom-up from the leaves, once per tree edge,
    and each (node, asset) martingale identity, the mass under each child
    times its price step, is tested as an integer sum equal to 0. Each
    option's value is one integer sum over those weights and its payoff put
    over its own lcm. It walks the tree and reads the payoffs directly,
    independently of the columns and payoff integers the package compiles.
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
        for nid in reversed(c.order):
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
