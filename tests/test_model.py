import math
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import FrozenInstanceError

from hedgecert.arbitrage import check_na, verify_na_certificate
from hedgecert.errors import StructureError
from hedgecert.model import (
    Claim,
    CompiledMarket,
    MarketModel,
    MeasureFamily,
    Node,
    OptionQuote,
    ScenarioTree,
    Strategy,
    ZERO,
    rat,
    require_valid,
    support,
    terminal_gain,
    validate_market,
)
from hedgecert.redundancy import check_nonredundant, verify_replication
from hedgecert.superhedge import superhedge_price, verify_super_replication
from markets import (
    binomial_market,
    net_legs,
    random_arbitrage_free_market,
    random_strategy,
    stockless_market,
    trinomial_straddle_market,
    two_period_stock_market,
    zero_strategy,
)
import random

from oracle import strategy_rows


def test_rational_substrate_invariants():
    # lowest terms, positive denominator, canonical zero
    assert F(2, 4) == F(1, 2) and F(2, 4).denominator == 2
    q = F(1, -2)
    assert q.denominator == 2 and q.numerator == -1
    assert math.gcd(F(6, 9).numerator, F(6, 9).denominator) == 1
    zero = F(0, 7)
    assert zero.numerator == 0 and zero.denominator == 1


def test_rat_parses_literals_exactly():
    assert rat("1/3") == F(1, 3)
    assert rat("0.25") == F(1, 4)
    assert rat("-2") == F(-2)
    assert rat(3) == F(3)
    third = F(1, 3)
    assert rat(third) is third
    assert rat("-0.125") == F(-1, 8)
    with pytest.raises(StructureError, match="zero denominator"):
        rat("1/0")
    with pytest.raises(StructureError, match="too long"):
        rat("1" + "0" * 5000)
    # the file grammar alone: no exponent, whitespace, underscore, plus,
    # bare point or digit outside ASCII
    for text in ("1e3", " 3 ", "3\n", "1_000", "+2", ".5", "1.", "\u0663", "1/\u0664", "\uff11"):
        with pytest.raises(StructureError, match="not a rational string"):
            rat(text)
    with pytest.raises(StructureError, match="cannot interpret True"):
        rat(True)
    with pytest.raises(StructureError):
        rat(0.5)


def test_validate_wellformed_binomial_ok():
    assert validate_market(binomial_market()).ok


def test_validate_bid_exceeds_ask():
    m = binomial_market([OptionQuote("bad", [F(1), F(0)], F(3), F(2))])
    report = validate_market(m)
    assert not report.ok
    assert any("bid 3 exceeds ask 2" in v for v in report.violations)


def test_validate_measure_sum():
    m = stockless_market(2, [], [[F(1, 2), F(1, 3)]])
    report = validate_market(m)
    assert not report.ok
    assert any("sums to 5/6" in v for v in report.violations)


def test_validate_tree_shape_problems():
    # two roots, missing child, bad parent time
    tree = ScenarioTree(
        [Node(0, 0, None, [F(1)]), Node(1, 0, None, [F(1)]), Node(2, 1, 0, [F(1)])],
        periods=1,
        num_assets=1,
    )
    m = MarketModel(tree, [], MeasureFamily([[F(1)]]))
    report = validate_market(m)
    assert not report.ok
    assert any("exactly one root" in v for v in report.violations)


_ROOT, _UP = (0, 0, None, [F(1)]), (1, 1, 0, [F(2)])


def _broken(nodes=(_ROOT, _UP, (2, 1, 0, [F(1, 2)])), periods=1, num_assets=1, options=(),
            generators=([F(1), F(0)], [F(0), F(1)]), names=("up", "down")):
    """binomial_market, stock 1 -> {2, 1/2} with generators up and down,
    with the parts given replaced; a node is (id, time, parent, prices)."""
    tree = ScenarioTree([Node(*node) for node in nodes], periods, num_assets)
    return MarketModel(tree, list(options), MeasureFamily(list(generators), list(names)))


@pytest.mark.parametrize("market, violation", [
    (_broken(nodes=[]), "tree: no nodes"),
    (_broken(periods=0), "tree: periods is 0, must be >= 1"),
    (_broken(num_assets=-1), "tree: num_assets is -1, must be >= 0"),
    (_broken(nodes=[_ROOT, _UP, (5, 1, 0, [F(1, 2)])]), "tree: node ids are not dense 0..n-1"),
    (_broken(nodes=[(0, 1, None, [F(1)]), _UP, (2, 1, 0, [F(1, 2)])]),
     "tree: root node 0 has time 1, must be 0"),
    (_broken(nodes=[_ROOT, _UP, (2, 2, 0, [F(1, 2)])]), "tree: node 2 has time 2 outside [0, 1]"),
    (_broken(nodes=[_ROOT, _UP, (2, 1, 7, [F(1, 2)])]), "tree: node 2 refers to missing parent 7"),
    (_broken(nodes=[_ROOT, _UP, (2, 1, 1, [F(1, 2)])]),
     "tree: node 2 at time 1 has parent at time 1"),
    (_broken(nodes=[_ROOT, (1, 1, 0, [F(2), F(3)]), (2, 1, 0, [F(1, 2)])]),
     "tree: node 1 carries 2 prices, expected 1"),
    (_broken(options=[OptionQuote("short", [F(1)], F(0), F(1))]),
     "options[0] ('short'): payoff has 1 entries, expected 2"),
    (_broken(generators=[]), "measures: at least one generator required"),
    (_broken(names=["up"]), "measures: 1 names for 2 generators"),
    (_broken(generators=[[F(1)]]), "measures[0]: 1 weights, expected 2"),
    (_broken(generators=[[F(2), F(-1)]]), "measures[0]: negative weight"),
    ("not a market", "market is str, not a MarketModel"),
])
def test_validate_reports_each_violation(market, violation):
    report = validate_market(market)
    assert not report.ok and violation in report.violations, report.violations
    with pytest.raises(StructureError, match=re.escape(violation)):
        require_valid(market)


def test_support_point_mass_generators():
    m = stockless_market(2, [], [[F(1), F(0)], [F(0), F(1)]])
    assert support(m) == {0, 1}


def test_support_excludes_zero_mass_leaf():
    m = stockless_market(3, [], [[F(1, 2), F(1, 2), F(0)]])
    assert support(m) == {0, 1}


def test_support_union_of_generators():
    m = stockless_market(2, [], [[F(1, 3), F(2, 3)], [F(1), F(0)]])
    assert support(m) == {0, 1}


def test_support_monotone_under_added_generator():
    rng = random.Random(7)
    for _ in range(25):
        L = rng.randint(2, 5)
        gens = [[F(1)] + [F(0)] * (L - 1)]
        m = stockless_market(L, [], [list(g) for g in gens])
        before = support(m)
        raw = [rng.choice([0, 1, 2]) for _ in range(L)]
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        gens.append([F(r, total) for r in raw])
        bigger = stockless_market(L, [], [list(g) for g in gens])
        assert before <= support(bigger)


def test_terminal_gain_zero_strategy():
    m = trinomial_straddle_market()
    assert terminal_gain(m, zero_strategy(m)) == [ZERO, ZERO, ZERO]


def test_terminal_gain_unit_position():
    m = binomial_market()
    s = Strategy({0: [F(1)]}, [], [])
    assert terminal_gain(m, s) == [F(1), F(-1, 2)]


def test_terminal_gain_two_thirds_position():
    m = binomial_market()
    s = Strategy({0: [F(2, 3)]}, [], [])
    assert terminal_gain(m, s) == [F(2, 3), F(-1, 3)]


def test_terminal_gain_option_legs():
    m = binomial_market([OptionQuote("dig", [F(1), F(0)], F(1, 4), F(1, 2))])
    buy = Strategy({0: [ZERO]}, [F(2)], [ZERO])
    assert terminal_gain(m, buy) == [2 * (F(1) - F(1, 2)), 2 * (F(0) - F(1, 2))]
    sell = Strategy({0: [ZERO]}, [ZERO], [F(2)])
    assert terminal_gain(m, sell) == [-2 * (F(1) - F(1, 4)), -2 * (F(0) - F(1, 4))]


def test_terminal_gain_dimension_mismatch():
    m = binomial_market()
    with pytest.raises(StructureError):
        terminal_gain(m, Strategy({0: [F(1)]}, [F(1)], []))
    with pytest.raises(StructureError):
        terminal_gain(m, Strategy({0: [F(1), F(2)]}, [], []))


def _keyed_by_true(s: Strategy) -> Strategy:
    """s with node 1's dynamic key replaced by True, which equals 1."""
    return Strategy({True if nid == 1 else nid: v for nid, v in s.dynamic.items()},
                    s.buy_leg, s.sell_leg)


def test_a_bool_node_id_is_no_strategy_key():
    # {0, True, 2} == {0, 1, 2}, so only the key's type tells them apart;
    # each replay below accepts the certificate keyed by the int 1
    m = two_period_stock_market()
    with pytest.raises(StructureError, match="dynamic key True is bool"):
        terminal_gain(m, _keyed_by_true(zero_strategy(m)))
    call = Claim([F(4), F(0), F(0), F(0)])
    price, hedge = superhedge_price(m, call)
    assert verify_super_replication(m, call, price, hedge)
    assert not verify_super_replication(m, call, price, _keyed_by_true(hedge))
    free = replace(m, options=[OptionQuote("free", [F(1), F(0), F(0), F(0)], F(0), F(0))])
    cert = check_na(free).certificate
    assert verify_na_certificate(free, cert)
    assert not verify_na_certificate(free, replace(cert, strategy=_keyed_by_true(cert.strategy)))
    spanned = replace(m, options=[OptionQuote("call", call.payoff, F(1), F(2)),
                                  OptionQuote("twice", [2 * v for v in call.payoff], F(2), F(4))])
    replication = check_nonredundant(spanned, 0).certificate
    assert set(replication.dynamic) == {0, 1, 2} and verify_replication(spanned, 0, replication)
    rekeyed = {True if nid == 1 else nid: v for nid, v in replication.dynamic.items()}
    assert not verify_replication(spanned, 0, replace(replication, dynamic=rekeyed))


def _add(m, s1, s2):
    dynamic = {
        nid: [a + b for a, b in zip(s1.dynamic[nid], s2.dynamic[nid])]
        for nid in s1.dynamic
    }
    buy = [a + b for a, b in zip(s1.buy_leg, s2.buy_leg)]
    sell = [a + b for a, b in zip(s1.sell_leg, s2.sell_leg)]
    return Strategy(dynamic, buy, sell)


def _scale(s, lam):
    dynamic = {nid: [lam * v for v in vals] for nid, vals in s.dynamic.items()}
    return Strategy(dynamic, [lam * v for v in s.buy_leg], [lam * v for v in s.sell_leg])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), lam=st.fractions(min_value=0, max_value=5, max_denominator=8))
def test_terminal_gain_linearity(seed, lam):
    rng = random.Random(seed)
    m = trinomial_straddle_market()
    s1 = random_strategy(rng, m)
    s2 = random_strategy(rng, m)
    g1 = terminal_gain(m, s1)
    g2 = terminal_gain(m, s2)
    assert terminal_gain(m, _add(m, s1, s2)) == [a + b for a, b in zip(g1, g2)]
    assert terminal_gain(m, _scale(s1, F(lam))) == [F(lam) * g for g in g1]


def test_netting_legs_never_lowers_the_terminal_gain():
    m = binomial_market([OptionQuote("dig", [F(1), F(0)], F(1, 4), F(1, 2))])
    messy = Strategy({0: [F(1)]}, [F(3)], [F(2)])
    clean = net_legs(messy)
    assert clean.buy_leg == [F(1)] and clean.sell_leg == [ZERO]
    before = terminal_gain(m, messy)
    after = terminal_gain(m, clean)
    assert all(a >= b for a, b in zip(after, before))


def test_zero_asset_market_has_empty_dynamic():
    m = stockless_market(2, [], [[F(1, 2), F(1, 2)]])
    s = zero_strategy(m)
    assert s.dynamic == {0: []}
    assert terminal_gain(m, s) == [ZERO, ZERO]


def test_require_valid_compiles_once_and_passes_compiled_through():
    m = binomial_market()
    c = require_valid(m)
    assert isinstance(c, CompiledMarket)
    assert require_valid(c) is c
    assert c.options is m.options and c.tree is m.tree
    assert support(c) == set(c.charged) == {0, 1}
    assert c.leaves == (1, 2) and c.order == (0, 1, 2)
    assert c.columns == ((0, 0),)
    assert c.gain_columns == (((0, F(1)), (1, F(-1, 2))),)
    assert c.generator_names == ("up", "down")
    with pytest.raises(FrozenInstanceError):
        c.charged = ()


def test_require_valid_rejects_invalid_market():
    m = binomial_market()
    m.measures.generators[0] = [F(1), F(1)]
    with pytest.raises(StructureError):
        require_valid(m)


@pytest.mark.parametrize("seed", range(10))
def test_strategy_rows_price_what_terminal_gain_replays(seed):
    # the program rows, the oracle's from the tree and the compiled gain
    # columns alike, and the replay walk must agree on every strategy
    rng = random.Random(seed)
    c = require_valid(random_arbitrage_free_market(rng, min_periods=2))
    nh = len(c.columns)
    width = nh + 2 * len(c.options)
    primal = [abs(F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(width)]
    gains = terminal_gain(c, c.strategy_from(primal))
    compiled = [ZERO] * len(c.leaves)  # the dynamic part, from the compiled gain columns
    for x, column in zip(primal, c.gain_columns):
        for rank, move in column:
            compiled[c.charged[rank]] += move * x
    for pos, row in enumerate(strategy_rows(c)):
        assert sum(a * x for a, x in zip(row, primal)) == gains[pos]
        assert compiled[pos] + sum(a * x for a, x in zip(row[nh:], primal[nh:])) == gains[pos]
