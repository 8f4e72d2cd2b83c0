"""Each compiled market solves its two floor programs, push 0 for
no-arbitrage and push 1 for robust no-arbitrage, at most once, and keeps
their outcomes next to the exact parts of their verdicts
(`arbitrage._floor`): every later verdict, witness, measure and
certificate is built afresh around the kept parts, with no certificate
derived again. Without a spread option the face has no inequality row, so
push 1 reads push 0's outcome and the robust parts kept with it. The store
contracts on the two entries (built once, warm equals cold, fresh answers,
four threads, copies) are their rows of `kept_store.ENTRIES`; this file
keeps the solve, derivation and oracle checks.
"""

import random
import sys

import oracle
from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.model import CompiledMarket, require_valid
from kept_store import ENTRIES, answer
from markets import (
    binomial_market,
    binomial_with_free_option,
    binomial_with_spread_option,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    spread_option_only_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)


def _reference_markets():
    """The fixtures with pinned, zero-spread and spread options, then 120
    random markets of up to two options, half of them arbitrage-free."""
    fixtures = [
        pinned_identical_options_market(),
        binomial_with_free_option(),
        binomial_with_spread_option(),
        wide_quote_identical_options_market(),
        trinomial_straddle_market(),
        spread_option_only_market(),
    ]
    rng = random.Random(20261019)
    makers = [random_arbitrage_free_market, random_arbitrary_market]
    return fixtures + [makers[k % 2](rng, max_periods=2, max_assets=1, max_leaves=8, max_options=2)
                       for k in range(120)]


def test_the_verdicts_equal_the_dense_oracles_and_replay():
    spread = split = 0
    for m in _reference_markets():
        c = require_valid(m)
        na, nar = arbitrage.check_na(c), arbitrage.check_nar(c)
        assert na.holds == oracle.surplus_na(m).holds, m
        assert nar.holds == oracle.definitional_nar_scan(m, 20).holds, m
        if na.certificate is not None:
            assert arbitrage.verify_na_certificate(c, na.certificate), m
        if nar.witness is not None:
            assert arbitrage.verify_nar_witness(c, nar.witness), m
        spread += any(opt.has_spread() for opt in m.options)  # push 1 a program of its own
        split += na.holds and not nar.holds
    assert spread >= 40 and split >= 1, (spread, split)


def test_an_arbitrage_becomes_a_strategy_once_where_it_is_handed_out(monkeypatch):
    # inside the package an arbitrage travels as its positions; only
    # `_na_verdict` builds the strategy it hands out, once per answer: in a
    # cold check_na that fails and in a warm sharper_ftap that fails, which
    # hands out check_na's arbitrage
    built = []
    strategy_from = CompiledMarket.strategy_from

    def spy(c, positions):
        built.append(sys._getframe(1).f_code.co_name)
        return strategy_from(c, positions)

    monkeypatch.setattr(CompiledMarket, "strategy_from", spy)
    cold = warm = 0
    for m in _reference_markets():
        c = require_valid(m)
        built.clear()
        if arbitrage.check_na(c).holds:
            continue
        assert built == ["_na_verdict"], m
        cold += 1
        first = answer(redundancy.sharper_ftap, c)
        if isinstance(first, tuple):
            continue  # a redundant spread option: the precondition fails
        built.clear()
        assert answer(redundancy.sharper_ftap, c) == first and not first.na.holds, m
        assert built == ["_na_verdict"], m
        warm += 1
    assert cold >= 30 and warm >= 15, (cold, warm)


def test_the_interior_measure_is_priced_and_checked_once_per_market(monkeypatch):
    # the build that keeps the robust parts prices the interior measure
    # (`_measure`) once and checks its domination without `dominates`; a
    # warm reader of `_nar` (`kept_store.ENTRIES`) prices nothing, but a
    # warm strict_dual_approx prices its own two measures, the dual
    # optimum and the mixture it returns
    priced, checked = [], []
    measure, dominates = arbitrage._measure, arbitrage.dominates
    monkeypatch.setattr(arbitrage, "_measure", lambda *a: priced.append(a) or measure(*a))
    monkeypatch.setattr(superhedge, "_measure", lambda *a: priced.append(a) or measure(*a))
    monkeypatch.setattr(arbitrage, "dominates", lambda *a: checked.append(a) or dominates(*a))
    robust = strict = 0
    for m in _reference_markets():
        c = require_valid(m)
        holds = arbitrage.check_na(c).holds, arbitrage.check_nar(c).holds
        assert len(priced) == holds[1], (m, holds)
        for _ in range(2):
            for name, query in ENTRIES["_nar"].readers(c):
                priced.clear()
                got = answer(query, c)
                own = 2 if name.startswith("strict") and not isinstance(got, tuple) else 0
                assert len(priced) == own, (m, name, len(priced))
                strict += own > 0
        assert checked == [], m
        priced.clear()
        robust += holds[1]
    assert robust >= 40 and strict >= 40, (robust, strict)


def _counted(monkeypatch):
    solved = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda p: solved.append(p.phase1[1]) or solve(p))
    return solved


def test_without_a_spread_option_the_two_verdicts_and_ftap_solve_one_program(monkeypatch):
    solved = _counted(monkeypatch)
    for m in [trinomial_straddle_market(), binomial_with_free_option(), binomial_market()]:
        for order in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
            c = require_valid(m)
            queries = [arbitrage.check_na, arbitrage.check_nar, redundancy.sharper_ftap]
            for k in order:
                answer(queries[k], c)
            assert solved == [0], (m, order)
            assert c._state["_nar"][0] is c._state["_na"][0], (m, order)  # one program, kept for both pushes
            solved.clear()
        c = require_valid(m)
        arbitrage.check_na(c)
        assert "_nar" in c._state, m  # push 0 keeps the robust verdict's parts too
        solved.clear()


def test_with_a_spread_option_push_zero_and_push_one_stay_two_programs(monkeypatch):
    solved = _counted(monkeypatch)
    for m in [binomial_with_spread_option(), wide_quote_identical_options_market(),
              spread_option_only_market()]:
        c = require_valid(m)
        na, nar = arbitrage.check_na(c), arbitrage.check_nar(c)
        for _ in range(2):
            assert arbitrage.check_na(c) == na and arbitrage.check_nar(c) == nar, m
        assert solved == [0, 1], m
        assert arbitrage.check_na(m) == na and arbitrage.check_nar(m) == nar, m
        solved.clear()


def _dual_spy(monkeypatch) -> list:
    """Every `lp._duals` call made outside a certificate replay: the
    session audit replays each solve's outcome, its dual included, and a
    replay is no query's."""
    calls, replaying = [], []
    duals, verify = lp._duals, lp.verify_certificate

    def spy(*args):
        if not replaying:
            calls.append(args)
        return duals(*args)

    def replay(p, o):
        replaying.append(p)
        try:
            return verify(p, o)
        finally:
            replaying.pop()

    monkeypatch.setattr(lp, "_duals", spy)
    monkeypatch.setattr(lp, "verify_certificate", replay)
    return calls


def test_queries_that_return_no_hedge_derive_no_duals(monkeypatch):
    # an optimal outcome derives its duals only when they are read
    # (`lp.LpOutcome`): a cold check_na where NA holds, a warm check_nar, a
    # warm sharper_ftap, also where robust no-arbitrage fails, and every
    # dual_price and scenario_pricing_measure read none, and a
    # superhedge_price, which returns the hedge, derives them once
    calls = _dual_spy(monkeypatch)
    holds = spread = fails = 0
    for m in _reference_markets():
        c = require_valid(m)
        calls.clear()
        na = arbitrage.check_na(c)
        if na.holds:
            assert calls == [], m
        nar = arbitrage.check_nar(c)
        claim = random_claim(random.Random(len(m.tree.nodes)), m)
        for _ in range(2):
            calls.clear()
            answer(arbitrage.check_nar, c)
            ftap = answer(redundancy.sharper_ftap, c)
            answer(superhedge.dual_price, c, claim)
            for leaf in c.charged:
                answer(arbitrage.scenario_pricing_measure, c, leaf)
            assert calls == [], m
        if na.holds:
            superhedge.superhedge_price(c, claim)
            assert len(calls) == 1, m
            holds += 1
            spread += any(opt.has_spread() for opt in m.options)
        fails += not nar.holds and isinstance(ftap, redundancy.SharperFtapBundle)
    assert holds >= 40 and spread >= 20 and fails >= 15, (holds, spread, fails)
