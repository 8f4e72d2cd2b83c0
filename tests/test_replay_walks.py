"""The certificate replays against the walks they replaced, and on trees
whose node ids are not in level order.

`terminal_gain` and `verify_measure` walk each tree edge once in integers;
`oracle.path_terminal_gain` and `oracle.path_verify_measure` walk every
root-to-leaf path in `Fraction` arithmetic. Both must give equal gains and
equal verdicts on every input. Validation lets a child's id be below its
parent's, so every query and replay must also agree between a market and
its relabeled twin, whose ids run leaves first and then up the tree.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

from hedgecert.arbitrage import (
    MartingaleMeasure,
    check_na,
    check_nar,
    scenario_pricing_measure,
    verify_measure,
    verify_na_certificate,
    verify_nar_witness,
)
from hedgecert.errors import ArbitrageError, RobustArbitrageError
from hedgecert.model import (
    Node,
    Strategy,
    require_valid,
    terminal_gain,
)
from hedgecert.redundancy import all_spread_options_nonredundant, verify_replication
from hedgecert.superhedge import dual_price, superhedge_price, verify_super_replication
from markets import (
    measure_of,
    net_legs,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_strategy,
    zero_strategy,
)
from oracle import leaf_paths, path_terminal_gain, path_verify_measure


def _markets(seed: int, count: int):
    """Markets with 0-2 assets, up to three periods, some with partial support."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            yield rng, random_arbitrary_market(rng, max_periods=3, max_assets=2, max_leaves=8)
        else:
            yield rng, random_arbitrage_free_market(rng, max_leaves=8)


def _exact_mix(rng, s: Strategy) -> Strategy:
    """The strategy with some entries an int zero or another int."""

    def entry(v):
        draw = rng.random()
        return 0 if draw < 0.3 else abs(rng.randint(-2, 2)) if draw < 0.45 else v

    dynamic = {nid: [entry(v) if rng.random() < 0.5 else v for v in held]
               for nid, held in s.dynamic.items()}
    return Strategy(dynamic, [entry(v) for v in s.buy_leg], [entry(v) for v in s.sell_leg])


def _strategies(rng, c):
    s = random_strategy(rng, c)
    out = [zero_strategy(c), s, _exact_mix(rng, s), net_legs(s)]
    na = check_na(c)
    if not na.holds:
        out.append(na.certificate.strategy)
    return out


def _moved(rng, c, weights):
    """One weight moved: part of one leaf's mass onto another leaf."""
    if len(weights) < 2:
        return None
    i, j = rng.sample(range(len(weights)), 2)
    w = list(weights)
    delta = w[i] / rng.choice([1, 2, 3]) if w[i] else F(1, 7)
    w[i] -= delta
    w[j] += delta
    return w


def _drift_broken(rng, c, weights):
    """Mass moved between leaves under two children of one node: every
    node's mass above it is unchanged, its drift generally is not."""
    split = [nid for nid in c.nonleaf if len(c.children[nid]) > 1]
    if not split:
        return None
    nid = rng.choice(split)
    a, b = rng.sample(c.children[nid], 2)
    paths = leaf_paths(c)
    under_a = [pos for pos, path in enumerate(paths) if a in path]
    under_b = [pos for pos, path in enumerate(paths) if b in path]
    i, j = rng.choice(under_a), rng.choice(under_b)
    w = list(weights)
    delta = w[i] / 2 if w[i] else F(1, 5)
    w[i] -= delta
    w[j] += delta
    return w


def _measures(rng, c):
    """Measures the queries return, and tampered copies of them."""
    found = []
    nar = check_nar(c)
    if nar.holds:
        found.append(nar.witness.interior_measure)
    try:
        found.append(dual_price(c, random_claim(rng, c))[1])
    except ArbitrageError:
        pass
    leaf = rng.choice(c.charged)
    q = scenario_pricing_measure(c, leaf)
    if q is not None:
        found.append(q)
    out = list(found)
    for q in found:
        for tamper in (_moved, _drift_broken):
            w = tamper(rng, c, q.weights)
            if w is not None:
                out.append(measure_of(c, w))
        if q.option_values:
            values = list(q.option_values)
            values[0] += F(1, 3)
            out.append(MartingaleMeasure(q.weights, values))
    raw = [F(rng.randint(0, 3)) for _ in c.leaves]
    total = sum(raw) or F(1)
    out.append(measure_of(c, [w / total for w in raw]))
    return out


def test_edge_walks_equal_the_path_walks():
    markets = verdicts = 0
    held = set()
    for rng, m in _markets(20261018, 240):
        c = require_valid(m)
        markets += 1
        for s in _strategies(rng, c):
            gains = terminal_gain(c, s)
            assert gains == path_terminal_gain(c, s)
            assert all(type(g) is F for g in gains)
        for q in _measures(rng, c):
            verdict = verify_measure(c, q)
            assert verdict is path_verify_measure(c, q)
            held.add(verdict)
            verdicts += 1
        if len(c.charged) < len(c.leaves):
            held.add("partial")
        held.add(("assets", c.tree.num_assets))
    assert markets >= 200 and verdicts > 1000
    # both verdicts, partial support and every asset count were reached
    assert {True, False, "partial", ("assets", 0), ("assets", 1), ("assets", 2)} <= held


def _relabeled(m):
    """The market with leaves numbered first, in their order, then every
    other node, deepest first: each child's id is below its parent's, and
    every leaf keeps its position. Returns (twin, new id by old id)."""
    nodes = m.tree.nodes
    final = sorted(n.id for n in nodes if n.time == m.tree.periods)
    inner = sorted((n for n in nodes if n.time < m.tree.periods), key=lambda n: (-n.time, n.id))
    new = {old: k for k, old in enumerate(final + [n.id for n in inner])}
    relabel = [Node(new[n.id], n.time, None if n.parent is None else new[n.parent], n.prices)
               for n in nodes]
    return replace(m, tree=replace(m.tree, nodes=relabel)), new


def _moved_strategy(s: Strategy, new) -> Strategy:
    return Strategy({new[nid]: held for nid, held in s.dynamic.items()}, s.buy_leg, s.sell_leg)


def test_the_compiled_order_puts_each_node_after_its_parent():
    # the walks of terminal_gain and verify_measure follow `order`: every
    # node once, the root first and each node after its parent, also on a
    # relabeled twin, whose children's ids are below their parents'
    below = 0
    for _, m in _markets(20261020, 60):
        for market in (m, _relabeled(m)[0]):
            c = require_valid(market)
            parent = {node.id: node.parent for node in c.tree.nodes}
            at = {nid: k for k, nid in enumerate(c.order)}
            assert sorted(c.order) == sorted(parent) and parent[c.order[0]] is None
            assert all(at[up] < at[nid] for nid, up in parent.items() if up is not None)
            below += any(up is not None and nid < up for nid, up in parent.items())
    assert below >= 60, below


def test_markets_whose_children_precede_their_parents_answer_alike():
    for rng, m in _markets(20261019, 200):
        c = require_valid(m)
        twin_m, new = _relabeled(m)
        twin = require_valid(twin_m)
        assert any(n.parent is not None and n.id < n.parent for n in twin.tree.nodes)
        assert twin.charged == c.charged

        s = random_strategy(rng, c)
        assert terminal_gain(twin, _moved_strategy(s, new)) == terminal_gain(c, s)

        na, twin_na = check_na(c), check_na(twin)
        assert na.holds == twin_na.holds
        if not na.holds:
            moved = replace(na.certificate, strategy=_moved_strategy(na.certificate.strategy, new))
            assert verify_na_certificate(twin, moved)
            assert verify_na_certificate(twin, twin_na.certificate)

        nar, twin_nar = check_nar(c), check_nar(twin)
        assert (nar.holds, nar.blocking) == (twin_nar.holds, twin_nar.blocking)
        if nar.holds:
            assert nar.witness.slack == twin_nar.witness.slack
            assert verify_nar_witness(twin, nar.witness) and verify_nar_witness(c, twin_nar.witness)

        f = random_claim(rng, c)
        try:
            price, hedge = superhedge_price(c, f)
        except RobustArbitrageError:
            price = hedge = None
        try:
            twin_price, twin_hedge = superhedge_price(twin, f)
        except RobustArbitrageError:
            twin_price = twin_hedge = None
        assert price == twin_price
        if price is not None:
            assert verify_super_replication(twin, f, price, _moved_strategy(hedge, new))
            assert verify_super_replication(twin, f, price, twin_hedge)
            value, measure = dual_price(c, f)
            twin_value, twin_measure = dual_price(twin, f)
            assert value == twin_value == price
            assert verify_measure(twin, measure) and verify_measure(c, twin_measure)

        for pos in c.charged:
            q, twin_q = scenario_pricing_measure(c, pos), scenario_pricing_measure(twin, pos)
            assert (q is None) == (twin_q is None)
            if q is not None:
                assert verify_measure(twin, q) and verify_measure(c, twin_q)

        report = all_spread_options_nonredundant(c)
        twin_report = all_spread_options_nonredundant(twin)
        assert report.all_non_redundant == twin_report.all_non_redundant
        for i, verdict in report.verdicts.items():
            assert verdict.non_redundant == twin_report.verdicts[i].non_redundant
            if not verdict.non_redundant:
                cert = verdict.certificate
                moved = replace(cert, dynamic={new[nid]: h for nid, h in cert.dynamic.items()})
                assert verify_replication(twin, i, moved)
                assert verify_replication(twin, i, twin_report.verdicts[i].certificate)
