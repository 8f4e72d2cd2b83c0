import random
from fractions import Fraction as F

import pytest

from hedgecert import lp
from hedgecert.arbitrage import check_na, check_nar, verify_na_certificate
from hedgecert.errors import DomainError, RobustArbitrageError
from hedgecert.model import OptionQuote, support, terminal_gain
from hedgecert.redundancy import check_nonredundant, verify_replication
from oracle import (
    definitional_nar_scan,
    enumerate_consistent_measures,
    hedge_lp,
    replication_lp,
    surplus_na,
)
from hedgecert.superhedge import dual_price, superhedge_price, verify_super_replication
from markets import (
    binomial_market,
    binomial_with_free_option,
    nar_fixture_markets,
    pinned_identical_options_market,
    random_arbitrary_market,
    random_claim,
    stockless_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)


def _reference_markets():
    fixtures = nar_fixture_markets() + [pinned_identical_options_market(), binomial_with_free_option()]
    rng = random.Random(20250101)
    return fixtures + [random_arbitrary_market(rng, max_options=3) for _ in range(300)]


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


def test_verdicts_match_the_reference_programs():
    # measure-side NA against the surplus program, elimination against the
    # replication LP: the same verdict on every market and option
    for m in _reference_markets():
        assert check_na(m).holds == surplus_na(m).holds, m
        for i in range(len(m.options)):
            got, want = check_nonredundant(m, i), replication_lp(m, i)
            assert got.non_redundant == want.non_redundant, (m, i)


def test_superhedge_matches_the_reference_hedge_program():
    # the hedge read off the measure program's multipliers against the
    # strategy-side hedge LP: the same price, robust arbitrage exactly when
    # the hedge LP is unbounded, and every strategy and ray replays
    rng = random.Random(20250102)
    priced = rays = 0
    for m in _reference_markets():
        f = random_claim(rng, m)
        want = hedge_lp(m, f)
        try:
            price, strategy = superhedge_price(m, f)
        except RobustArbitrageError as err:
            assert want is None, (m, f)
            x_ray, ray_strategy = err.ray
            gains = terminal_gain(m, ray_strategy)
            assert x_ray < 0, (m, f)
            assert all(x_ray + gains[pos] >= 0 for pos in support(m)), (m, f)
            rays += 1
            continue
        assert want is not None and price == want[0], (m, f)
        assert verify_super_replication(m, f, price, strategy), (m, f)
        assert verify_super_replication(m, f, *want), (m, f)
        priced += 1
    assert priced >= 50 and rays >= 50, (priced, rays)


def test_both_na_certificate_paths_occur_and_replay(monkeypatch):
    # an arbitrage is read from the optimal duals at floor 0, or from the
    # Farkas vector when no consistent measure exists; both paths must be
    # exercised and every certificate must replay
    statuses = []
    solve = lp.solve_lp

    def record(problem):
        out = solve(problem)
        statuses.append(out.status)
        return out

    monkeypatch.setattr(lp, "solve_lp", record)
    paths = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0}
    replications = 0
    for m in _reference_markets():
        verdict = check_na(m)
        if not verdict.holds:
            paths[statuses[-1]] += 1
            assert verify_na_certificate(m, verdict.certificate), m
        for i in range(len(m.options)):
            for v in (check_nonredundant(m, i), replication_lp(m, i)):
                if not v.non_redundant:
                    assert verify_replication(m, i, v.certificate), (m, i)
                    replications += 1
    assert paths[lp.OPTIMAL] >= 5 and paths[lp.INFEASIBLE] >= 5, paths
    assert replications >= 20
