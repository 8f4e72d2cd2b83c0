"""Fixture markets and randomized generators shared across the test suite.

Fixture naming is by structure: the 2-leaf stock market, the stockless
market with two identical options and a pinned quote (no-arbitrage holds but
robustness fails), the wide-quote identical-option market (robustness holds
with a redundant spread option), and the trinomial market with a straddle
pinned at its exact price.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from hedgecert import arbitrage, lp
from hedgecert.arbitrage import MartingaleMeasure
from hedgecert.model import (
    Claim,
    MarketModel,
    MeasureFamily,
    Node,
    OptionQuote,
    ScenarioTree,
    Strategy,
    ZERO,
    ONE,
    require_valid,
)


def stockless_tree(num_leaves: int) -> ScenarioTree:
    nodes = [Node(0, 0, None, [])]
    for k in range(num_leaves):
        nodes.append(Node(k + 1, 1, 0, []))
    return ScenarioTree(nodes, periods=1, num_assets=0)


def stockless_market(num_leaves, options, generators, names=None) -> MarketModel:
    return MarketModel(stockless_tree(num_leaves), options, MeasureFamily(generators, names))


def binomial_market(options=None) -> MarketModel:
    """One stock: price 1 today, 2 or 1/2 tomorrow; both leaves charged."""
    tree = ScenarioTree(
        [Node(0, 0, None, [F(1)]), Node(1, 1, 0, [F(2)]), Node(2, 1, 0, [F(1, 2)])],
        periods=1,
        num_assets=1,
    )
    return MarketModel(
        tree, list(options or []), MeasureFamily([[F(1), F(0)], [F(0), F(1)]], ["up", "down"])
    )


def pinned_identical_options_market() -> MarketModel:
    """Two identical options (0,1); one pinned at 1/2, one quoted [1/4, 1/2].

    Every consistent measure is forced to value the second option at its ask,
    so no-arbitrage holds while robust no-arbitrage fails.
    """
    return stockless_market(
        2,
        [
            OptionQuote("g1", [F(0), F(1)], F(1, 2), F(1, 2)),
            OptionQuote("g2", [F(0), F(1)], F(1, 4), F(1, 2)),
        ],
        [[F(1), F(0)], [F(0), F(1)]],
    )


def wide_quote_identical_options_market() -> MarketModel:
    """Two identical options (1,2) quoted [1/2, 3]: robustly arbitrage-free,
    yet each option is perfectly replicated by the other."""
    return stockless_market(
        2,
        [
            OptionQuote("g1", [F(1), F(2)], F(1, 2), F(3)),
            OptionQuote("g2", [F(1), F(2)], F(1, 2), F(3)),
        ],
        [[F(1), F(0)], [F(0), F(1)]],
    )


def trinomial_straddle_market() -> MarketModel:
    """Stock 1 -> {2, 1, 0} plus the straddle |S-1| pinned at 1/2."""
    tree = ScenarioTree(
        [
            Node(0, 0, None, [F(1)]),
            Node(1, 1, 0, [F(2)]),
            Node(2, 1, 0, [F(1)]),
            Node(3, 1, 0, [F(0)]),
        ],
        periods=1,
        num_assets=1,
    )
    return MarketModel(
        tree,
        [OptionQuote("straddle", [F(1), F(0), F(1)], F(1, 2), F(1, 2))],
        MeasureFamily([[F(1, 3), F(1, 3), F(1, 3)]], ["flat"]),
    )


def two_period_stock_market() -> MarketModel:
    """Stock 4 -> {6, 2} -> {8,4} / {4,1}; unique martingale measure.

    Conditional one-step probabilities are 1/2 at the root, 1/2 after the up
    move, 1/3 after the down move, so the unique measure on the leaves
    (8, 4, 4, 1) is (1/4, 1/4, 1/6, 1/3).
    """
    tree = ScenarioTree(
        [
            Node(0, 0, None, [F(4)]),
            Node(1, 1, 0, [F(6)]),
            Node(2, 1, 0, [F(2)]),
            Node(3, 2, 1, [F(8)]),
            Node(4, 2, 1, [F(4)]),
            Node(5, 2, 2, [F(4)]),
            Node(6, 2, 2, [F(1)]),
        ],
        periods=2,
        num_assets=1,
    )
    return MarketModel(
        tree, [], MeasureFamily([[F(1, 4)] * 4], ["uniform"])
    )


def single_leaf_market() -> MarketModel:
    tree = ScenarioTree(
        [Node(0, 0, None, [F(1)]), Node(1, 1, 0, [F(1)])], periods=1, num_assets=1
    )
    return MarketModel(tree, [], MeasureFamily([[F(1)]], ["only"]))


def spread_option_only_market() -> MarketModel:
    """Stockless market with one genuinely non-redundant spread option."""
    return stockless_market(
        2,
        [OptionQuote("digital", [F(0), F(1)], F(1, 4), F(1, 2))],
        [[F(1), F(0)], [F(0), F(1)]],
    )


def binomial_with_spread_option() -> MarketModel:
    """The complete 2-leaf stock market plus (1,0) quoted [1/4, 1/2]; the
    option is replicable by the stock, hence a redundant spread option."""
    return binomial_market([OptionQuote("digital", [F(1), F(0)], F(1, 4), F(1, 2))])


def binomial_with_free_option() -> MarketModel:
    """The 2-leaf stock market plus (1,0) given away at zero: an arbitrage."""
    return binomial_market([OptionQuote("free", [F(1), F(0)], F(0), F(0))])


# each branching's (price move, weight) pairs, the benchmark ladder's
_LADDER_MOVES = {2: ((F(2), F(1, 3)), (F(1, 2), F(2, 3))),
                 3: ((F(2), F(1, 4)), (ONE, F(1, 4)), (F(1, 2), F(1, 2)))}


def ladder_market(branch: int, periods: int) -> MarketModel:
    """The benchmark ladder's tree: one stock from 1, moving by
    `_LADDER_MOVES[branch]` each period, and three calls at strikes 1/2, 1
    and 2 quoted around the reference measure, which charges every leaf."""
    nodes, weight, level = [Node(0, 0, None, [ONE])], [ONE], [0]
    for t in range(1, periods + 1):
        nxt = []
        for parent in level:
            for move, q in _LADDER_MOVES[branch]:
                nxt.append(len(nodes))
                nodes.append(Node(len(nodes), t, parent, [nodes[parent].prices[0] * move]))
                weight.append(weight[parent] * q)
        level = nxt
    reference = [weight[nid] for nid in level]
    options = []
    for k, strike in enumerate((F(1, 2), ONE, F(2))):
        payoff = [max(nodes[nid].prices[0] - strike, ZERO) for nid in level]
        value = sum((q * v for q, v in zip(reference, payoff)), ZERO)
        options.append(OptionQuote(f"call{k}", payoff, value - F(k + 1, 16), value + F(3 - k, 16)))
    return MarketModel(ScenarioTree(nodes, periods, 1), options,
                       MeasureFamily([reference], ["reference"]))


def nar_fixture_markets() -> list[MarketModel]:
    """Every fixture on which robust no-arbitrage holds."""
    return [
        binomial_market(),
        wide_quote_identical_options_market(),
        trinomial_straddle_market(),
        two_period_stock_market(),
        single_leaf_market(),
        spread_option_only_market(),
        binomial_with_spread_option(),
    ]


# ---------------------------------------------------------------------------
# randomized generators
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random, lo=-2, hi=2, dens=(1, 2, 3, 4)) -> F:
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


def _random_topology(rng, max_periods, max_leaves, min_periods=1):
    periods = rng.randint(min_periods, max_periods)
    nodes = [Node(0, 0, None, [])]
    level = [0]
    next_id = 1
    for t in range(1, periods + 1):
        width_cap = max_leaves if t == periods else max(len(level), max_leaves // 2)
        new_level = []
        for idx, parent in enumerate(level):
            remaining_parents = len(level) - idx - 1
            allowed = max(1, width_cap - len(new_level) - remaining_parents)
            c = min(rng.choice([1, 2, 2, 3, 3]), allowed)
            for _ in range(c):
                nodes.append(Node(next_id, t, parent, []))
                new_level.append(next_id)
                next_id += 1
        level = new_level
    return nodes, periods


def _random_conditional_weights(rng, k):
    raw = [rng.randint(1, 4) for _ in range(k)]
    total = sum(raw)
    return [F(r, total) for r in raw]


def random_martingale_tree(rng, max_periods=3, max_assets=2, max_leaves=12, min_periods=1):
    """A tree whose prices admit a full-support martingale measure.

    Children prices are built around each parent so the conditional mean
    matches exactly; the returned weights per leaf form that measure.
    """
    nodes, periods = _random_topology(rng, max_periods, max_leaves, min_periods)
    num_assets = rng.randint(0, max_assets)
    children: dict[int, list[int]] = {n.id: [] for n in nodes}
    for n in nodes:
        if n.parent is not None:
            children[n.parent].append(n.id)
    prices: dict[int, list[F]] = {n.id: [] for n in nodes}
    prices[0] = [random_rational(rng, 1, 4) for _ in range(num_assets)]
    leaf_weight: dict[int, F] = {0: ONE}
    for n in nodes:
        kids = children[n.id]
        if not kids:
            continue
        w = _random_conditional_weights(rng, len(kids))
        for kid, wk in zip(kids, w):
            leaf_weight[kid] = leaf_weight[n.id] * wk
        for j in range(num_assets):
            deltas = [random_rational(rng, -2, 2) for _ in range(len(kids) - 1)]
            balance = -sum((wk * dk for wk, dk in zip(w, deltas)), ZERO) / w[-1]
            deltas.append(balance)
            base = prices[n.id][j]
            for kid, dk in zip(kids, deltas):
                prices[kid].append(base + dk)
    nodes = [replace(n, prices=prices[n.id]) for n in nodes]
    tree = ScenarioTree(nodes, periods, num_assets)
    leaves = sorted(n.id for n in nodes if n.time == periods)
    qref = [leaf_weight[leaf] for leaf in leaves]
    return tree, qref


def _random_probability_vector(rng, length):
    raw = [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(length)]
    if not any(raw):
        raw[rng.randrange(length)] = 1
    total = sum(raw)
    return [F(r, total) for r in raw]


def random_arbitrage_free_market(
    rng, max_periods=3, max_assets=2, max_leaves=12, max_options=3, min_periods=1
):
    """Robustly arbitrage-free by construction.

    The construction measure charges every leaf, prices every option, and is
    itself one of the generators, so quoting spreads strictly around its
    option values leaves positive slack for the robustness program.
    """
    tree, qref = random_martingale_tree(rng, max_periods, max_assets, max_leaves, min_periods)
    leaves = sum(1 for n in tree.nodes if n.time == tree.periods)
    options = []
    for k in range(rng.randint(0, max_options)):
        payoff = [random_rational(rng, -2, 3) for _ in range(leaves)]
        value = sum((q * v for q, v in zip(qref, payoff)), ZERO)
        if rng.random() < 0.35:
            options.append(OptionQuote(f"o{k}", payoff, value, value))
        else:
            below = F(rng.randint(1, 4), 4)
            above = F(rng.randint(1, 4), 4)
            options.append(OptionQuote(f"o{k}", payoff, value - below, value + above))
    generators = [list(qref)]
    for _ in range(rng.randint(0, 2)):
        generators.append(_random_probability_vector(rng, leaves))
    return MarketModel(tree, options, MeasureFamily(generators))


def random_arbitrary_market(
    rng, max_periods=2, max_assets=1, max_leaves=6, max_options=2
):
    """No construction guarantees: may admit arbitrage, partial support."""
    nodes, periods = _random_topology(rng, max_periods, max_leaves)
    num_assets = rng.randint(0, max_assets)
    nodes = [replace(n, prices=[random_rational(rng, 0, 3) for _ in range(num_assets)])
             for n in nodes]
    tree = ScenarioTree(nodes, periods, num_assets)
    leaves = sum(1 for n in nodes if n.time == periods)
    options = []
    for k in range(rng.randint(0, max_options)):
        payoff = [random_rational(rng, -1, 2) for _ in range(leaves)]
        mid = random_rational(rng, -1, 2)
        spread = rng.choice([ZERO, ZERO, F(1, 2), F(1, 4), F(1)])
        options.append(OptionQuote(f"o{k}", payoff, mid, mid + spread))
    generators = [_random_probability_vector(rng, leaves) for _ in range(rng.randint(1, 3))]
    return MarketModel(tree, options, MeasureFamily(generators))


def random_claim(rng, m: MarketModel) -> Claim:
    leaves = sum(1 for n in m.tree.nodes if n.time == m.tree.periods)
    return Claim([random_rational(rng, -3, 3) for _ in range(leaves)])


def random_strategy(rng, m: MarketModel) -> Strategy:
    nonleaf = [n.id for n in m.tree.nodes if n.time < m.tree.periods]
    dynamic = {
        nid: [random_rational(rng, -2, 2) for _ in range(m.tree.num_assets)]
        for nid in nonleaf
    }
    e = len(m.options)
    buy = [abs(random_rational(rng, -2, 2)) for _ in range(e)]
    sell = [abs(random_rational(rng, -2, 2)) for _ in range(e)]
    return Strategy(dynamic, buy, sell)


def zero_strategy(m: MarketModel) -> Strategy:
    """The strategy holding nothing: a zero position per asset at every
    non-leaf node, ascending, and zero legs on every option."""
    nonleaf = sorted(n.id for n in m.tree.nodes if n.time < m.tree.periods)
    e = len(m.options)
    return Strategy({nid: [ZERO] * m.tree.num_assets for nid in nonleaf}, [ZERO] * e, [ZERO] * e)


def net_legs(s: Strategy) -> Strategy:
    """s with each option's legs netted, min(buy, sell) taken off both: the
    net position bought if positive, sold if negative. Netting adds
    min(buy, sell) * (ask - bid) >= 0 to the gain on every leaf."""
    net = [b - v for b, v in zip(s.buy_leg, s.sell_leg)]
    return Strategy(s.dynamic, [x if x > 0 else ZERO for x in net],
                    [-x if x < 0 else ZERO for x in net])


def measure_of(m: MarketModel, weights) -> MartingaleMeasure:
    """The measure with these leaf weights, one per leaf, and each option's
    value under them, one `lp._dot` with its payoff; the weights are not
    checked to be a martingale measure, and may weigh uncharged leaves."""
    weights = list(weights)
    return MartingaleMeasure(weights, [lp._dot(weights, opt.payoff) for opt in require_valid(m).options])


def sparse_rows(rows) -> list[tuple]:
    """Dense rows in `lp`'s row form: each the (column, value) pairs of its
    nonzeros, columns increasing. Every hand-built problem goes through it."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


def dense_rows(rows, width: int) -> list[list[F]]:
    """The inverse of `sparse_rows`: each row's `width` entries, zeros included."""
    dense = []
    for row in rows:
        values = [ZERO] * width
        for j, v in row:
            values[j] = v
        dense.append(values)
    return dense


def random_lp(rng, max_vars=5, max_rows=5) -> lp.LpProblem:
    """Small random programs over x >= 0 with deliberate degeneracies."""
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)

    def coef():
        if rng.random() < 0.35:
            return ZERO
        return random_rational(rng, -3, 3, dens=(1, 1, 2))

    rows = [[coef() for _ in range(n)] for _ in range(m)]
    rhs = [random_rational(rng, -3, 3, dens=(1, 2)) for _ in range(m)]
    relations = [rng.choice([lp.LE, lp.EQ, lp.GE]) for _ in range(m)]
    if m >= 1 and rng.random() < 0.3:
        rhs[rng.randrange(m)] = ZERO
    if m >= 2 and rng.random() < 0.3:
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i] = list(rows[j])  # duplicate coefficients, maybe conflicting rhs
    if m >= 2 and rng.random() < 0.25:
        i, j = rng.sample(range(m), 2)
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
        rhs[i] = rhs[i] + rhs[j]

    objective = [coef() for _ in range(n)]
    if rng.random() < 0.15:
        objective = [ZERO] * n
    if rng.choice((True, False)):  # drew a minimization: min c . x is max -c . x
        objective = [-c for c in objective]
    return lp.LpProblem(objective=objective, rows=sparse_rows(rows), relations=relations, rhs=rhs)


def routed(p: lp.LpProblem) -> lp.LpProblem:
    """p as a program `lp.solve_lp` takes: the one a fresh phase 1 of p's
    own face builds for p's objective, as the package builds every program;
    solving it is a cold solve of p. A routed p's face is its full rows
    (`lp._program_rows`), its late column a column like the others; an
    unrouted p's is p itself, whose lists the program shares."""
    if p.phase1 is not None:
        p = lp.LpProblem(p.objective, lp._program_rows(p), p.relations, p.rhs)
    return lp._Phase1(p).program(p.objective)


def measure_program(c, objective, push=None) -> tuple[lp.LpProblem, lp.LpOutcome]:
    """(program, outcome) of one measure program of the compiled market c:
    the program its face builds for the objective and push, beside
    `arbitrage._solve`'s outcome of that program."""
    return arbitrage._face(c)[0].program(objective, push), arbitrage._solve(c, objective, push)
