"""Finite-market data model: scenario trees, quoted options, measure families.

Every quantity is an exact rational (a `fractions.Fraction` or an int), and
validation reports any other entry. Arbitrage is a strict-inequality
phenomenon, so nothing in the core ever touches floating point. No field of
a model type can be reassigned once constructed and every operation is a
pure function, which makes concurrent use on shared inputs safe without
synchronization. The one exception is a compiled market's measure-program
face (`arbitrage._face`), built under a lock on its first solve: a thread
that finds it unbuilt takes the lock and looks again, so concurrent first
queries run one phase 1. Nothing writes to the face after.

Leaves are indexed by *position* 0..L-1 in ascending node-id order among the
nodes at the final period. Option payoffs, measure weights, and claims all
follow that ordering.

`require_valid` validates a `MarketModel` once and returns a
`CompiledMarket`: a `MarketModel` plus what the programs are built from.
`marketio.parse_market` returns one too. Only a market `_compile` marked
passes `require_valid` unchecked, so a `replace` copy is validated again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError, StructureError
from .lp import _Phase1, _dot, _over_lcm, _rational_lists

# The rational substrate. Fraction already guarantees the invariants this
# package relies on: positive denominator, lowest terms, canonical zero.
Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _parse_rational(text) -> Fraction:
    """The rational a literal spells in the one grammar of files, `--eps`
    and `rat`: an optional minus and ASCII digits, then "/" and digits or "."
    and digits, a decimal read exactly as p/10^k. No plus, exponent,
    underscore, whitespace or other digit; StructureError on anything else."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise StructureError(f"not a rational string: {text!r}")
    whole, den, frac = match.groups()
    try:
        if den is not None:
            return Fraction(int(whole), int(den))
        if frac is not None:
            return Fraction(int(whole + frac), 10 ** len(frac))
        return Fraction(int(whole))
    except ZeroDivisionError:
        raise StructureError("zero denominator") from None
    except ValueError:  # the grammar matched, so only the int-string limit is left
        raise StructureError(f"rational string of {len(text)} characters is too long") from None


def rat(value: Fraction | int | str) -> Fraction:
    """Coerce a literal to an exact rational.

    Accepts Fractions, ints, and strings of the file grammar such as "3",
    "-2", "1/3", "0.25". Floats are rejected: they have no place in an
    exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise StructureError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise StructureError(f"cannot interpret {type(value).__name__} as a rational")


@dataclass(frozen=True)
class Node:
    """One tree node: a market state at a given period.

    `prices` holds the traded asset prices at this node; its length equals
    the tree's asset count. The root has parent None.
    """

    id: int
    time: int
    parent: int | None
    prices: list[Fraction]


@dataclass(frozen=True)
class ScenarioTree:
    nodes: list[Node]
    periods: int      # number of trading periods (final time)
    num_assets: int   # dynamically traded assets per node


@dataclass(frozen=True)
class OptionQuote:
    """A statically tradable option: payoff per leaf, quoted bid and ask."""

    name: str
    payoff: list[Fraction]
    bid: Fraction
    ask: Fraction

    def has_spread(self) -> bool:
        return self.bid < self.ask


@dataclass(frozen=True)
class MeasureFamily:
    """Finitely generated family of scenario weightings.

    The represented family is the convex hull of the generators; anything
    quasi-sure therefore only depends on the union of their supports.
    """

    generators: list[list[Fraction]]
    names: list[str] | None = None


@dataclass(frozen=True)
class MarketModel:
    tree: ScenarioTree
    options: list[OptionQuote]
    measures: MeasureFamily


@dataclass(frozen=True)
class Claim:
    """A contingent claim, as its payoff on each leaf."""

    payoff: list[Fraction]


@dataclass(frozen=True)
class Strategy:
    """Semi-static strategy: dynamic stock positions plus static option legs.

    `dynamic` maps each non-leaf node id to the per-asset position held from
    that node to its children. Option positions are stored pre-split into
    nonnegative buy/sell legs because with a bid-ask spread the payoff is not
    linear in a signed position; the net signed exposure is buy - sell.
    """

    dynamic: dict[int, list[Fraction]]
    buy_leg: list[Fraction]
    sell_leg: list[Fraction]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def leaf_ids(tree: ScenarioTree) -> list[int]:
    """Final-period node ids in ascending order, i.e. by leaf position."""
    return sorted(node.id for node in tree.nodes if node.time == tree.periods)


def _mistyped(m: MarketModel) -> list[str]:
    """A violation per structural field of the wrong type: the tree and the
    measure family, the node, option and generator lists, the nodes and
    options in them, the generator names, the period and asset counts and
    each node's id, time and parent. Each level is checked only once the one
    above it holds, so nothing here reads a field of the wrong type."""
    tree, measures = m.tree, m.measures
    parts = (("tree", tree, ScenarioTree), ("measures", measures, MeasureFamily))
    issues = [f"{at} is {type(v).__name__}, not a {kind.__name__}"
              for at, v, kind in parts if not isinstance(v, kind)]
    if issues:
        return issues
    lists = (("tree: nodes", tree.nodes), ("options", m.options),
             ("measures: generators", measures.generators))
    issues = [f"{at} is {type(v).__name__}, not a list"
              for at, v in lists if not isinstance(v, (list, tuple))]
    names = measures.names
    if names is not None and not isinstance(names, (list, tuple)):
        issues.append(f"measures: names is {type(names).__name__}, not a list or None")
    if issues:
        return issues
    issues = [f"tree: nodes[{k}] is {type(v).__name__}, not a Node"
              for k, v in enumerate(tree.nodes) if not isinstance(v, Node)]
    issues += [f"options[{k}] is {type(v).__name__}, not an OptionQuote"
               for k, v in enumerate(m.options) if not isinstance(v, OptionQuote)]
    if issues:
        return issues
    nodes = tree.nodes
    counts = [tree.periods, tree.num_assets, *(node.id for node in nodes),
              *(node.time for node in nodes),
              *(node.parent for node in nodes if node.parent is not None)]
    if {int}.issuperset(map(type, counts)):
        return []  # one type pass settles the common case, as in `_inexact`
    located = [(f"tree: {name}", getattr(tree, name)) for name in ("periods", "num_assets")]
    located += [(f"tree: nodes[{k}].{name}", getattr(node, name))
                for k, node in enumerate(nodes) for name in ("id", "time", "parent")
                if name != "parent" or node.parent is not None]
    return [f"{at} is {type(v).__name__} {v!r}, not an int"
            for at, v in located if type(v) is not int]


def _inexact(m: MarketModel) -> list[str]:
    """A violation per node price, option payoff, bid or ask and generator
    weight that is not an int or a Fraction. One type pass over them all
    settles the common case; only a market that fails it is searched."""
    options, gens = m.options, m.measures.generators
    lists = [node.prices for node in m.tree.nodes] + [opt.payoff for opt in options] + list(gens)
    if _rational_lists([q for opt in options for q in (opt.bid, opt.ask)], *lists):
        return []
    where = [f"tree: node {node.id} prices" for node in m.tree.nodes]
    where += [f"options[{k}] ('{opt.name}'): payoff" for k, opt in enumerate(options)]
    where += [f"measures[{k}]: weights" for k in range(len(gens))]
    issues = [f"{at} is {type(values).__name__}, not a list"
              for at, values in zip(where, lists) if not isinstance(values, (list, tuple))]
    entries = [(f"{at}[{j}]", v) for at, values in zip(where, lists)
               if isinstance(values, (list, tuple)) for j, v in enumerate(values)]
    entries += [(f"options[{k}] ('{opt.name}'): {side}", getattr(opt, side))
                for k, opt in enumerate(options) for side in ("bid", "ask")]
    return issues + [f"{at} is {type(v).__name__} {v!r}, not an int or a Fraction"
                     for at, v in entries if type(v) not in (int, Fraction)]


def _index(i, n: int, what: str) -> int:
    """`i` when it is an int in [0, n); otherwise a DomainError naming `what`."""
    if type(i) is not int:
        raise DomainError(f"{what} {i!r} is not an int")
    if not 0 <= i < n:
        raise DomainError(f"{what} {i} out of range")
    return i


def _name_issues(section: str, kind: str, names) -> list[str]:
    """A violation per name that is not a non-empty string or repeats an
    earlier one: the one name check, `marketio.parse_market`'s too."""
    issues, seen = [], set()
    for k, name in enumerate(names):
        if not isinstance(name, str) or not name:
            issues.append(f"{section}[{k}]: name {name!r} is not a non-empty string")
        elif name in seen:
            issues.append(f"{section}[{k}]: duplicate {kind} name {name!r}")
        else:
            seen.add(name)
    return issues


def validate_market(m: MarketModel) -> ValidationReport:
    """Check every model invariant; violations are data, not exceptions."""
    if not isinstance(m, MarketModel):
        return ValidationReport(False, [f"market is {type(m).__name__}, not a MarketModel"])
    issues = _mistyped(m) or _inexact(m)
    if issues:  # nothing below compares or sums a field of the wrong type
        return ValidationReport(False, issues)
    tree = m.tree
    n = len(tree.nodes)
    if n == 0:
        return ValidationReport(False, ["tree: no nodes"])
    if tree.periods < 1:
        issues.append(f"tree: periods is {tree.periods}, must be >= 1")
    if tree.num_assets < 0:
        issues.append(f"tree: num_assets is {tree.num_assets}, must be >= 0")

    ids = sorted(node.id for node in tree.nodes)
    if ids != list(range(n)):
        issues.append("tree: node ids are not dense 0..n-1")
        return ValidationReport(False, issues)

    by_id = {node.id: node for node in tree.nodes}
    roots = [node for node in tree.nodes if node.parent is None]
    if len(roots) != 1:
        issues.append(f"tree: expected exactly one root, found {len(roots)}")
    else:
        if roots[0].time != 0:
            issues.append(f"tree: root node {roots[0].id} has time {roots[0].time}, must be 0")

    has_child = {node.id: False for node in tree.nodes}
    for node in tree.nodes:
        if not 0 <= node.time <= tree.periods:
            issues.append(f"tree: node {node.id} has time {node.time} outside [0, {tree.periods}]")
        if node.parent is not None:
            parent = by_id.get(node.parent)
            if parent is None:
                issues.append(f"tree: node {node.id} refers to missing parent {node.parent}")
            else:
                has_child[parent.id] = True
                if parent.time != node.time - 1:
                    issues.append(
                        f"tree: node {node.id} at time {node.time} has parent at time {parent.time}"
                    )
        if len(node.prices) != tree.num_assets:
            issues.append(
                f"tree: node {node.id} carries {len(node.prices)} prices, expected {tree.num_assets}"
            )
    for node in tree.nodes:
        if node.time < tree.periods and not has_child[node.id]:
            issues.append(f"tree: node {node.id} at time {node.time} has no children")

    leaf_count = sum(1 for node in tree.nodes if node.time == tree.periods)
    issues += _name_issues("options", "option", [opt.name for opt in m.options])
    for k, option in enumerate(m.options):
        label = f"options[{k}] ('{option.name}')"
        if len(option.payoff) != leaf_count:
            issues.append(f"{label}: payoff has {len(option.payoff)} entries, expected {leaf_count}")
        if option.bid > option.ask:
            issues.append(f"{label}: bid {option.bid} exceeds ask {option.ask}")

    gens = m.measures.generators
    if not gens:
        issues.append("measures: at least one generator required")
    names = m.measures.names
    if names is not None:
        if len(names) != len(gens):
            issues.append(f"measures: {len(names)} names for {len(gens)} generators")
        issues += _name_issues("measures", "generator", names)
    for k, weights in enumerate(gens):
        label = f"measures[{k}]"
        if len(weights) != leaf_count:
            issues.append(f"{label}: {len(weights)} weights, expected {leaf_count}")
            continue
        # signs and the sum in integers over one denominator; a Fraction only for the message
        nums, den = _over_lcm(weights)
        if any(u < 0 for u in nums):
            issues.append(f"{label}: negative weight")
        if sum(nums) != den:
            issues.append(f"{label}: measure sums to {Fraction(sum(nums), den)}, expected 1")

    return ValidationReport(not issues, issues)


@dataclass(frozen=True)
class CompiledMarket(MarketModel):
    """A validated market plus what its programs and measures are built from.

    Built by `_compile` and read-only afterwards: its lists are shared with
    the market it was built from and must not be mutated in place, or the
    compiled fields no longer match them. Dataclass equality compares
    classes, so a compiled market never equals a plain `MarketModel`;
    compare `marketio.market_to_json` instead. Node ids are dense after
    validation, so per-node data is indexed by id; leaf data is indexed by
    leaf position, and gain entries by charged rank, a leaf's index in
    `charged`. `integer_payoffs` holds each option's payoff as integers over
    one denominator, the lcm of its entries' (`lp._over_lcm`), so the
    package prices every option under a measure by one integer dot product
    (`arbitrage._measure`); the replays read the payoffs themselves. Two
    fields are not init fields, so no constructor or `replace` sets them,
    and neither is compared or shown: `_checked` marks the markets
    `require_valid` passes unchanged, those `_compile` built and
    `market_without_option` copied, and `_face` is the measure programs'
    face, its phase 1 and row layout (`arbitrage._face`), built once, under
    a lock, on the market's first solve (see the module docstring).
    """

    prices: tuple[tuple[Fraction, ...], ...]        # by node id
    children: tuple[tuple[int, ...], ...]           # by node id, ascending
    leaves: tuple[int, ...]                         # leaf node ids, ascending
    nonleaf: tuple[int, ...]                        # non-leaf node ids, ascending
    charged: tuple[int, ...]                        # positions some generator charges
    columns: tuple[tuple[int, int], ...]            # (node id, asset) per dynamic column
    gain_columns: tuple[tuple[tuple[int, Fraction], ...], ...]  # per column, (charged rank, move) pairs
    integer_payoffs: tuple[tuple[tuple[int, ...], int], ...]   # per option, (numerators, den) by position
    generator_names: tuple[str, ...]
    _checked: bool = field(default=False, init=False, compare=False, repr=False)
    _face: tuple[_Phase1, tuple] | None = field(default=None, init=False, compare=False, repr=False)

    def strategy_from(self, primal: list[Fraction]) -> Strategy:
        """The strategy a vector encodes in strategy-column order: the
        dynamic columns, then one buy leg and one sell leg per option."""
        nh, e = len(self.columns), len(self.options)
        dynamic = {nid: [ZERO] * self.tree.num_assets for nid in self.nonleaf}
        for (nid, asset), value in zip(self.columns, primal):
            dynamic[nid][asset] = value
        return Strategy(dynamic, list(primal[nh:nh + e]), list(primal[nh + e:nh + 2 * e]))


def require_valid(m: MarketModel) -> CompiledMarket:
    """Validate a market and compile it; a market `_compile` marked passes unchanged.

    This and `marketio.parse_market` are the entry points to compilation
    (`_compile`), the single place that builds the tree navigation, the
    charged support, the dynamic gain columns and the strategy-column layout.
    """
    if isinstance(m, CompiledMarket) and m._checked:
        return m
    report = validate_market(m)
    if not report.ok:
        raise StructureError("invalid market: " + "; ".join(report.violations))
    return _compile(m)


def _compile(m: MarketModel) -> CompiledMarket:
    """Compile and mark a market that has already passed `validate_market`;
    its two callers, `require_valid` and `marketio.parse_market`, run that pass.
    Each distinct price move is one Fraction, kept by the integer ratios of
    its two prices: hashing the ints costs less than a Fraction subtraction
    or a Fraction hash."""
    tree = m.tree
    n, assets = len(tree.nodes), tree.num_assets
    by_id: list = [None] * n
    for node in tree.nodes:
        by_id[node.id] = node
    parent = [node.parent for node in by_id]
    prices = tuple(tuple(node.prices) for node in by_id)
    children: list[list[int]] = [[] for _ in range(n)]
    step = [()] * n  # each edge's price increment, once, by its child's id
    moves = {}  # (a, b) integer ratios -> b - a
    leaves, nonleaf = [], []
    for node in by_id:  # ascending ids, so every list below comes out sorted
        if node.parent is not None:
            children[node.parent].append(node.id)
            edge = []
            for a, b in zip(prices[node.parent], prices[node.id]):
                key = (a.as_integer_ratio(), b.as_integer_ratio())
                move = moves.get(key)
                if move is None:
                    move = moves[key] = b - a
                edge.append(move)
            step[node.id] = tuple(edge)
        (leaves if node.time == tree.periods else nonleaf).append(node.id)
    gens = m.measures.generators
    # weights are validated nonnegative, so a nonzero one is positive
    charged = sorted({pos for w in gens for pos, v in enumerate(w) if v})
    # an edge's increment enters its parent's columns once per charged leaf
    # below it, keyed by the leaf's rank in `charged`, ranks ascending
    first_column = {nid: k * assets for k, nid in enumerate(nonleaf)}
    gain_columns = [[] for _ in range(len(nonleaf) * assets)]
    for rank, there in enumerate(leaves[pos] for pos in charged):
        while parent[there] is not None:
            k = first_column[parent[there]]
            for j, move in enumerate(step[there], k):
                if move:
                    gain_columns[j].append((rank, move))
            there = parent[there]

    c = CompiledMarket(
        m.tree, m.options, m.measures,
        prices=prices,
        children=tuple(map(tuple, children)),
        leaves=tuple(leaves),
        nonleaf=tuple(nonleaf),
        charged=tuple(charged),
        columns=tuple((nid, j) for nid in nonleaf for j in range(assets)),
        gain_columns=tuple(map(tuple, gain_columns)),
        integer_payoffs=tuple((tuple(nums), den) for nums, den in
                              (_over_lcm(opt.payoff) for opt in m.options)),
        generator_names=tuple(m.measures.names or (f"P{k}" for k in range(len(gens)))),
    )
    object.__setattr__(c, "_checked", True)
    return c


def market_without_option(m: MarketModel, i: int) -> MarketModel:
    """The market less option i; a compiled market stays compiled, and a
    plain one plain. The market is validated first; an `i` that is not an
    int in range is a DomainError. A subset of a valid market's options is
    valid and only `_face` and `integer_payoffs` depend on them, so a
    compiled copy, less option i's payoff integers, stays marked."""
    c = require_valid(m)
    _index(i, len(c.options), "option index")
    options = [opt for k, opt in enumerate(c.options) if k != i]
    if not isinstance(m, CompiledMarket):
        return replace(m, options=options)
    payoffs = c.integer_payoffs[:i] + c.integer_payoffs[i + 1:]
    reduced = replace(c, options=options, integer_payoffs=payoffs)
    object.__setattr__(reduced, "_checked", True)
    return reduced


def support(m: MarketModel) -> set[int]:
    """Leaf positions charged by at least one generator.

    The complement is the largest set that every generator ignores, so a
    statement holds quasi-surely exactly when it holds on this set.
    """
    return set(require_valid(m).charged)


def _check_strategy_shape(c: CompiledMarket, s: Strategy) -> None:
    if not isinstance(s, Strategy):
        raise StructureError(f"strategy is {type(s).__name__}, not a Strategy")
    if not isinstance(s.dynamic, dict) or set(s.dynamic) != set(c.nonleaf):
        raise StructureError("strategy dynamic positions must cover exactly the non-leaf nodes")
    if not _rational_lists(s.buy_leg, s.sell_leg, *s.dynamic.values()):
        raise StructureError("strategy positions must be lists of ints and Fractions")
    e = len(c.options)
    if len(s.buy_leg) != e or len(s.sell_leg) != e:
        raise StructureError(
            f"strategy legs sized {len(s.buy_leg)}/{len(s.sell_leg)}, expected {e}"
        )
    if any(v < 0 for v in s.buy_leg) or any(v < 0 for v in s.sell_leg):
        raise StructureError("strategy legs must be nonnegative")
    for node_id, positions in s.dynamic.items():
        if type(node_id) is not int:  # True == 1 would pass the key-set test
            raise StructureError(f"strategy dynamic key {node_id!r} is "
                                 f"{type(node_id).__name__}, not an int node id")
        if len(positions) != c.tree.num_assets:
            raise StructureError(
                f"strategy at node {node_id} has {len(positions)} positions, "
                f"expected {c.tree.num_assets}"
            )


def _top_down(c: CompiledMarket) -> list[int]:
    """Every node id, each after its parent: breadth-first from the root
    through `children`. Validation lets a child's id be below its parent's,
    so ascending ids are not such an order."""
    order = [next(node.id for node in c.tree.nodes if node.parent is None)]
    for nid in order:  # the list grows by each node's children as it is read
        order.extend(c.children[nid])
    return order


def _integer_prices(c: CompiledMarket) -> tuple[list[list[int]], int]:
    """Every node's prices, by node id, as integers over one common
    denominator: (numerators, denominator). The market has an asset."""
    a = c.tree.num_assets
    flat, den = _over_lcm([p for row in c.prices for p in row])
    return [flat[k:k + a] for k in range(0, len(flat), a)], den


def terminal_gain(m: MarketModel, s: Strategy) -> list[Fraction]:
    """Terminal wealth of a strategy on each leaf, from zero initial capital.

    Wealth accrues top-down, once per tree edge: a child holds its parent's
    wealth plus the parent's positions times the price step along the edge.
    The option legs net to (buy - sell) . payoff on each leaf plus the one
    constant sell . bid - buy . ask. Positions, prices and payoffs enter as
    integers over common denominators, so each leaf's gain is one Fraction,
    built last. The walk reads prices off the tree, never the compiled gain
    columns, so it replays the programs independently.
    """
    c = require_valid(m)
    _check_strategy_shape(c, s)
    return _terminal_gain(c, s)


def _terminal_gain(c: CompiledMarket, s: Strategy) -> list[Fraction]:
    """`terminal_gain` of a strategy whose shape is already checked, as a
    strategy the package builds for the market is."""
    a = c.tree.num_assets
    held, held_den = _over_lcm([h for nid in c.nonleaf for h in s.dynamic[nid]])
    wealth, wealth_den = [0] * len(c.prices), 1
    if any(held):
        prices, price_den = _integer_prices(c)
        wealth_den = held_den * price_den
        first = dict(zip(c.nonleaf, range(0, len(held), a)))
        for nid in _top_down(c):
            k = first.get(nid)
            if k is not None:  # a non-leaf node
                h = held[k:k + a]
                base = wealth[nid] - sum(map(mul, h, prices[nid]))
                for kid in c.children[nid]:
                    wealth[kid] = base + sum(map(mul, h, prices[kid]))

    # the constant as one more net leg, on a payoff of 1 on every leaf
    n_leaves = len(c.leaves)
    constant = _dot(s.sell_leg, [opt.bid for opt in c.options]) - _dot(
        s.buy_leg, [opt.ask for opt in c.options])
    legs = [(b - v, opt.payoff) for b, v, opt in zip(s.buy_leg, s.sell_leg, c.options)]
    legs = [leg for leg in legs + [(constant, [1] * n_leaves)] if leg[0]]
    net, net_den = _over_lcm([x for x, _ in legs])
    pay, pay_den = _over_lcm([p for _, payoff in legs for p in payoff])
    static = [0] * n_leaves
    for k, x in enumerate(net):
        static = [u + x * p for u, p in zip(static, pay[k * n_leaves:(k + 1) * n_leaves])]

    den = lcm(wealth_den, net_den * pay_den)
    fw, fs = den // wealth_den, den // (net_den * pay_den)
    return [Fraction(wealth[leaf] * fw + static[pos] * fs, den)
            for pos, leaf in enumerate(c.leaves)]

