import random
from fractions import Fraction as F

import pytest

from hedgecert.arbitrage import check_nar
from hedgecert.errors import DomainError
from hedgecert.model import OptionQuote
from oracle import definitional_nar_scan, enumerate_consistent_measures
from hedgecert.superhedge import dual_price
from markets import (
    binomial_market,
    pinned_identical_options_market,
    random_arbitrary_market,
    stockless_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)


def test_binomial_single_vertex():
    assert enumerate_consistent_measures(binomial_market()).vertices == [
        [F(1, 3), F(2, 3)]
    ]


def test_pinned_market_single_vertex():
    assert enumerate_consistent_measures(pinned_identical_options_market()).vertices == [
        [F(1, 2), F(1, 2)]
    ]


def test_bare_two_leaf_market_full_simplex():
    m = stockless_market(2, [], [[F(1, 2), F(1, 2)]])
    assert enumerate_consistent_measures(m).vertices == [
        [F(0), F(1)],
        [F(1), F(0)],
    ]


def test_wide_quote_market_vertices():
    vs = enumerate_consistent_measures(wide_quote_identical_options_market())
    # quotes never bind, so the whole simplex remains
    assert vs.vertices == [[F(0), F(1)], [F(1), F(0)]]


def test_infeasible_polytope_is_empty():
    m = stockless_market(
        2, [OptionQuote("g", [F(0), F(1)], F(2), F(2))], [[F(1, 2), F(1, 2)]]
    )
    assert enumerate_consistent_measures(m).vertices == []


def test_leaf_guard():
    m = stockless_market(11, [], [[F(1, 11)] * 11])
    with pytest.raises(DomainError):
        enumerate_consistent_measures(m)


def test_scan_pinned_market_fails_all_depths():
    result = definitional_nar_scan(pinned_identical_options_market(), 20)
    assert not result.holds
    assert result.passes_at is None


def test_scan_wide_quote_market_passes_first_level():
    result = definitional_nar_scan(wide_quote_identical_options_market(), 20)
    assert result.holds
    assert result.passes_at == 1


def test_scan_degenerates_to_plain_check_without_spreads():
    result = definitional_nar_scan(binomial_market(), 5)
    assert result.holds and result.passes_at == 1


def test_scan_depth_domain():
    with pytest.raises(DomainError):
        definitional_nar_scan(binomial_market(), 0)


def test_dual_price_matches_vertex_maximum_on_fixtures():
    cases = [
        (binomial_market(), [F(1), F(0)]),
        (trinomial_straddle_market(), [F(1), F(0), F(0)]),
        (wide_quote_identical_options_market(), [F(1), F(0)]),
    ]
    for m, payoff in cases:
        vs = enumerate_consistent_measures(m)
        best = vs.best_value(payoff)
        from hedgecert.model import Claim

        value, _ = dual_price(m, Claim(payoff))
        assert value == best


def test_scan_agrees_with_slack_program_on_random_markets():
    rng = random.Random(11)
    for _ in range(30):
        m = random_arbitrary_market(rng, max_leaves=5)
        assert check_nar(m).holds == definitional_nar_scan(m, 20).holds
