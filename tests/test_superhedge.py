import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgecert.arbitrage import strictly_inside_quotes, verify_measure
from hedgecert.errors import (
    ArbitrageError,
    DomainError,
    RobustArbitrageError,
    StructureError,
)
from hedgecert.marketio import parse_market
from hedgecert.model import Claim, OptionQuote, terminal_gain
from hedgecert.superhedge import (
    claim_price_bounds,
    dual_price,
    duality_report,
    price_bounds_excluding,
    strict_dual_approx,
    superhedge_price,
    verify_super_replication,
)
from markets import (
    binomial_market,
    binomial_with_free_option,
    binomial_with_spread_option,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_claim,
    trinomial_straddle_market,
    two_period_stock_market,
    wide_quote_identical_options_market,
)

DATA = Path(__file__).parent / "data"


def test_binomial_call_replicates_exactly():
    m = binomial_market()
    price, strategy = superhedge_price(m, Claim([F(1), F(0)]))
    assert price == F(1, 3)
    assert strategy.dynamic == {0: [F(2, 3)]}
    gains = terminal_gain(m, strategy)
    assert [price + g for g in gains] == [F(1), F(0)]


def test_constant_claim_prices_at_itself():
    for m in (binomial_market(), trinomial_straddle_market()):
        c = F(7, 3)
        n = len(m.measures.generators[0])
        price, strategy = superhedge_price(m, Claim([c] * n))
        assert price == c
        assert all(not v for row in strategy.dynamic.values() for v in row)


def test_trinomial_with_pinned_straddle_prices_call_quarter():
    m = trinomial_straddle_market()
    price, strategy = superhedge_price(m, Claim([F(1), F(0), F(0)]))
    assert price == F(1, 4)
    assert verify_super_replication(m, Claim([F(1), F(0), F(0)]), price, strategy)


def test_two_period_call_hand_derived():
    # call struck at 4 on leaves (8,4,4,1): unique measure (1/4,1/4,1/6,1/3)
    # prices it at 1, and completeness forces the exact replication
    m = two_period_stock_market()
    f = Claim([F(4), F(0), F(0), F(0)])
    price, strategy = superhedge_price(m, f)
    assert price == F(1)
    assert strategy.dynamic == {0: [F(1, 2)], 1: [F(1)], 2: [F(0)]}
    gains = terminal_gain(m, strategy)
    assert [price + g for g in gains] == f.payoff
    value, q = dual_price(m, f)
    assert value == F(1)
    assert q.weights == [F(1, 4), F(1, 4), F(1, 6), F(1, 3)]


def test_dual_binomial_call():
    value, q = dual_price(binomial_market(), Claim([F(1), F(0)]))
    assert value == F(1, 3)
    assert q.weights == [F(1, 3), F(2, 3)]


def test_dual_trinomial_call():
    value, q = dual_price(trinomial_straddle_market(), Claim([F(1), F(0), F(0)]))
    assert value == F(1, 4)
    assert q.weights == [F(1, 4), F(1, 2), F(1, 4)]


def test_dual_works_without_robustness():
    # no-arbitrage holds here even though the robust check fails
    m = pinned_identical_options_market()
    value, q = dual_price(m, Claim([F(0), F(1)]))
    assert value == F(1, 2)
    assert q.weights == [F(1, 2), F(1, 2)]


def test_dual_empty_feasible_set_is_arbitrage_diagnostics():
    with pytest.raises(ArbitrageError):
        dual_price(binomial_with_free_option(), Claim([F(0), F(1)]))


def test_superhedge_unbounded_reports_robust_arbitrage_with_ray():
    m = binomial_with_free_option()
    with pytest.raises(RobustArbitrageError) as err:
        superhedge_price(m, Claim([F(0), F(0)]))
    x_ray, ray_strategy = err.value.ray
    assert x_ray < 0
    gains = terminal_gain(m, ray_strategy)
    assert all(x_ray + g >= 0 for g in gains)


def test_duality_report_gap_zero():
    cases = [
        (binomial_market(), Claim([F(1), F(0)])),
        (trinomial_straddle_market(), Claim([F(1), F(0), F(0)])),
        (wide_quote_identical_options_market(), Claim([F(0), F(0)])),
    ]
    for m, f in cases:
        report = duality_report(m, f)
        assert report.gap == 0
        assert report.primal_value == report.dual_value


def test_claim_length_mismatch_is_structural():
    with pytest.raises(StructureError):
        superhedge_price(binomial_market(), Claim([F(1)]))


def test_replay_rejects_a_claim_of_the_wrong_length():
    m = binomial_market()
    f = Claim([F(1), F(0)])
    price, strategy = superhedge_price(m, f)
    assert verify_super_replication(m, f, price, strategy)
    assert not verify_super_replication(m, Claim([F(1), F(0), F(5)]), price, strategy)
    assert not verify_super_replication(m, Claim([F(1)]), price, strategy)


def test_strict_dual_approx_binomial_degenerate_mixture():
    q = strict_dual_approx(binomial_market(), Claim([F(1), F(0)]), F(1, 100))
    assert q.weights == [F(1, 3), F(2, 3)]


def test_strict_dual_approx_wide_quote_market_exact_mixture():
    # dual optimizer is the corner (1,0); witness is (1/2,1/2); drift 1/2
    # bound = min(1/2, (1/4)/(3/2)) = 1/6 -> dyadic 1/8
    m = wide_quote_identical_options_market()
    f = Claim([F(1), F(0)])
    q = strict_dual_approx(m, f, F(1, 4))
    assert q.weights == [F(15, 16), F(1, 16)]
    assert q.option_values == [F(17, 16), F(17, 16)]
    assert strictly_inside_quotes(m, q)
    value, _ = dual_price(m, f)
    assert q.expectation(f.payoff) >= value - F(1, 4)


def test_strict_dual_approx_trinomial():
    m = trinomial_straddle_market()
    f = Claim([F(1), F(0), F(0)])
    q = strict_dual_approx(m, f, F(1, 8))
    assert verify_measure(m, q)
    assert strictly_inside_quotes(m, q)
    assert all(w > 0 for w in q.weights)
    assert q.expectation(f.payoff) >= F(1, 4) - F(1, 8)


def test_strict_dual_approx_rejects_nonpositive_eps():
    with pytest.raises(DomainError):
        strict_dual_approx(binomial_market(), Claim([F(1), F(0)]), F(0))


def test_strict_dual_approx_requires_robustness():
    with pytest.raises(RobustArbitrageError):
        strict_dual_approx(pinned_identical_options_market(), Claim([F(0), F(1)]), F(1, 4))


@pytest.mark.parametrize("market", [binomial_market, pinned_identical_options_market,
                                    binomial_with_free_option])
@pytest.mark.parametrize("claim", [Claim(["x", 1]), Claim([F(1)]), "nope"],
                         ids=["str payoff", "one payoff", "no claim"])
def test_strict_dual_approx_checks_the_claim_before_the_robust_solve(market, claim):
    # a malformed claim is a StructureError whether or not the market is
    # robustly arbitrage-free: the second and third markets are not
    with pytest.raises(StructureError, match="claim"):
        strict_dual_approx(market(), claim, F(1, 10))


def test_bounds_excluding_in_complete_market_collapse():
    m = binomial_with_spread_option()
    assert price_bounds_excluding(m, 0) == (F(1, 3), F(1, 3))


def test_bounds_excluding_trinomial_straddle():
    # hedging with the stock alone: straddle value spans the martingale range
    m = trinomial_straddle_market()
    lower, upper = price_bounds_excluding(m, 0)
    assert (lower, upper) == (F(0), F(1))
    # cross-check through the vertex oracle on the reduced market
    from oracle import enumerate_consistent_measures
    from hedgecert.superhedge import market_without_option

    reduced = market_without_option(m, 0)
    vs = enumerate_consistent_measures(reduced)
    payoff = m.options[0].payoff
    values = [sum(w * v for w, v in zip(vertex, payoff)) for vertex in vs.vertices]
    assert (min(values), max(values)) == (lower, upper)


def test_bounds_excluding_wide_quote_market():
    m = wide_quote_identical_options_market()
    assert price_bounds_excluding(m, 1) == (F(1), F(2))


def test_bounds_excluding_requires_reduced_market_robust():
    # excluding the extra option leaves the pinned market, which is not robust
    m = pinned_identical_options_market()
    m.options.append(OptionQuote("extra", [F(1), F(0)], F(0), F(1)))
    with pytest.raises(RobustArbitrageError):
        price_bounds_excluding(m, 2)
    # so does excluding it from arb.json plus extra, whose face has no
    # consistent measure: the failure is the reduced market's and carries
    # no ray, which would be replayed against the market the command was given
    with pytest.raises(RobustArbitrageError) as raised:
        price_bounds_excluding(parse_market((DATA / "arb-extra.json").read_text()), 1)
    assert raised.value.ray is None


def test_bounds_index_out_of_range():
    with pytest.raises(DomainError):
        price_bounds_excluding(binomial_market(), 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_weak_duality_everywhere(seed):
    rng = random.Random(seed)
    m = random_arbitrage_free_market(rng, max_leaves=8)
    f = random_claim(rng, m)
    price, _ = superhedge_price(m, f)
    value, _ = dual_price(m, f)
    assert value <= price


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_cash_translation_and_homogeneity(seed):
    rng = random.Random(seed)
    m = random_arbitrage_free_market(rng, max_leaves=6, max_options=2)
    f = random_claim(rng, m)
    c = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    lam = F(rng.randint(0, 6), rng.choice([1, 2]))
    base, _ = superhedge_price(m, f)
    shifted, _ = superhedge_price(m, Claim([v + c for v in f.payoff]))
    scaled, _ = superhedge_price(m, Claim([lam * v for v in f.payoff]))
    assert shifted == base + c
    assert scaled == lam * base


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_subadditivity_and_order(seed):
    rng = random.Random(seed)
    m = random_arbitrage_free_market(rng, max_leaves=6, max_options=2)
    f1 = random_claim(rng, m)
    f2 = random_claim(rng, m)
    p1, _ = superhedge_price(m, f1)
    p2, _ = superhedge_price(m, f2)
    both, _ = superhedge_price(m, Claim([a + b for a, b in zip(f1.payoff, f2.payoff)]))
    assert both <= p1 + p2
    neg, _ = superhedge_price(m, Claim([-v for v in f1.payoff]))
    assert -neg <= p1


def test_claim_price_bounds_matches_two_superhedges():
    m = binomial_market()
    f = Claim([F(1), F(0)])
    lower, upper = claim_price_bounds(m, f)
    assert (lower, upper) == (F(1, 3), F(1, 3))
