"""Each compiled market solves its two floor programs, push 0 for
no-arbitrage and push 1 for robust no-arbitrage, at most once, and keeps
their outcomes next to the exact parts of their verdicts
(`arbitrage._floor`): every later verdict, witness, measure and
certificate is built afresh around the kept parts, with no certificate
derived again. Without a spread option the face has no inequality row, so
push 1 reads push 0's outcome and the robust parts kept with it.
"""

import copy
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import oracle
from concurrency import run_together, slow_phase_one
from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.errors import HedgecertError
from hedgecert.marketio import dump_market, market_to_json, parse_market
from hedgecert.model import ONE, CompiledMarket, require_valid
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


def _answer(query, *args):
    try:
        return query(*args)
    except HedgecertError as err:
        return type(err), str(err)


def _readers(m):
    """Every query that reads a floor outcome, as (name, query, arguments
    after the market)."""
    rng = random.Random(len(m.tree.nodes))
    claim = random_claim(rng, m)
    calls = [("na", arbitrage.check_na, ()), ("nar", arbitrage.check_nar, ()),
             ("ftap", redundancy.sharper_ftap, ()),
             ("strict", superhedge.strict_dual_approx, (claim, F(1, 100)))]
    calls += [(f"dominating {k}", arbitrage.dominating_measure, (k,))
              for k in range(len(m.measures.generators))]
    calls += [(f"bounds {i}", superhedge.price_bounds_excluding, (i,))
              for i in range(len(m.options))]
    return calls


def test_warm_answers_equal_cold_ones_and_the_dense_oracle():
    # cold: every query on a market compiled for it alone; warm: each query
    # three times on one compiled market, in order, so all but the first
    # solve of each push read a kept outcome
    spread = split = 0
    for m in _reference_markets():
        readers = _readers(m)
        cold = [_answer(query, require_valid(m), *args) for _, query, args in readers]
        c = require_valid(m)
        for _ in range(3):
            assert [_answer(query, c, *args) for _, query, args in readers] == cold, m
        na, nar = cold[0], cold[1]
        assert na.holds == oracle.surplus_na(m).holds, m
        assert nar.holds == oracle.definitional_nar_scan(m, 20).holds, m
        if na.certificate is not None:
            assert arbitrage.verify_na_certificate(c, na.certificate), m
        if nar.witness is not None:
            assert arbitrage.verify_nar_witness(c, nar.witness), m
        spread += any(opt.has_spread() for opt in m.options)  # push 1 a program of its own
        split += na.holds and not nar.holds
    assert spread >= 40 and split >= 1, (spread, split)


def _scrawl_measure(q):
    q.weights.append(ONE)
    q.weights[0] += 1
    if q.option_values:
        q.option_values[0] += 1
    q.option_values.append(ONE)


def _scrawl(answer):
    """Change in place every list a verdict, witness or measure holds."""
    if isinstance(answer, arbitrage.MartingaleMeasure):
        _scrawl_measure(answer)
    elif isinstance(answer, arbitrage.NaVerdict) and answer.certificate is not None:
        cert = answer.certificate
        cert.gains[cert.strict_leaf] += 1
        cert.strategy.buy_leg.append(ONE)
        cert.strategy.sell_leg.append(ONE)
        for positions in cert.strategy.dynamic.values():
            positions.append(ONE)
        cert.strategy.dynamic[-1] = [ONE]
    elif isinstance(answer, arbitrage.NarVerdict) and answer.witness is not None:
        w = answer.witness
        w.shrunk_bids.append(ONE)
        w.shrunk_asks.append(ONE)
        _scrawl_measure(w.interior_measure)
    elif isinstance(answer, redundancy.SharperFtapBundle):
        _scrawl(answer.na)
        if answer.nar_witness is not None:
            _scrawl(arbitrage.NarVerdict(True, answer.nar_witness))
            answer.dominating.append(None)


def test_a_caller_that_changes_an_answer_changes_nothing_kept():
    # each reader on a market compiled for it alone, so its first call is
    # the one that builds the kept floor; that answer and a warm one are
    # both scrawled on before the next call
    changed = 0
    for m in _reference_markets():
        for name, query, args in _readers(m):
            if name.startswith(("bounds", "strict")):
                continue  # they return fresh values of their own, not a floor's
            c = require_valid(m)
            first = _answer(query, c, *args)
            kept = copy.deepcopy(first)
            for _ in range(2):
                _scrawl(first)
                again = _answer(query, c, *args)
                assert again == kept, (m, name)
                changed += again != first
                first = again
    assert changed >= 400, changed


def test_warm_readers_derive_no_certificate_again(monkeypatch):
    # once a market's floors are kept, no reader runs the hedge, the gain
    # walk or the robust derivation again: it copies the kept parts
    derived = []

    def spy(name):
        real = getattr(arbitrage, name)
        return lambda *a: derived.append(name) or real(*a)

    arbitrage_markets = robust = settled = 0
    for m in _reference_markets():
        c = require_valid(m)
        readers = [(name, query, args) for name, query, args in _readers(m)
                   if name.startswith(("na", "nar", "ftap", "dominating"))]
        cold = [_answer(query, c, *args) for _, query, args in readers]
        with monkeypatch.context() as patch:
            for name in ("_hedge", "_terminal_gain", "_robustness"):
                patch.setattr(arbitrage, name, spy(name))
            for (name, query, args), answer in zip(readers, cold):
                assert _answer(query, c, *args) == answer, (m, name)
                assert derived == [], (m, name, derived)
        arbitrage_markets += not cold[0].holds
        robust += cold[1].holds
        settled += getattr(cold[2], "nar_witness", None) is not None
    assert arbitrage_markets >= 20 and robust >= 40 and settled >= 20, (
        arbitrage_markets, robust, settled)


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
        first = _answer(redundancy.sharper_ftap, c)
        if isinstance(first, tuple):
            continue  # a redundant spread option: the precondition fails
        built.clear()
        assert _answer(redundancy.sharper_ftap, c) == first and not first.na.holds, m
        assert built == ["_na_verdict"], m
        warm += 1
    assert cold >= 30 and warm >= 15, (cold, warm)


def test_the_interior_measure_is_priced_and_checked_once_per_market(monkeypatch):
    # the build that keeps the robust parts prices the interior measure
    # (`_measure`) once and checks its domination without `dominates`; a
    # warm check_nar, sharper_ftap or dominating_measure prices nothing,
    # and a warm strict_dual_approx prices only its own two measures, the
    # dual optimum and the mixture it returns
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
        readers = [(name, query, args) for name, query, args in _readers(m)
                   if name.startswith(("nar", "ftap", "dominating", "strict"))]
        for _ in range(2):
            for name, query, args in readers:
                priced.clear()
                answer = _answer(query, c, *args)
                own = 2 if name == "strict" and not isinstance(answer, tuple) else 0
                assert len(priced) == own, (m, name, len(priced))
                strict += own > 0
        assert checked == [], m
        priced.clear()
        robust += holds[1]
    assert robust >= 40 and strict >= 40, (robust, strict)


def test_four_threads_on_a_fresh_market_run_one_phase_one_and_one_solve(monkeypatch):
    # the first check_nar on a freshly parsed market builds the face from
    # inside the floor's build; a slow phase 1 keeps every thread's first
    # call in flight together, and none may wait on the lock it holds
    built, solved = slow_phase_one(monkeypatch), []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda p: solved.append(p) or solve(p))
    for m in [binomial_with_spread_option(), trinomial_straddle_market()]:
        text = dump_market(require_valid(m))
        warm = parse_market(text)
        arbitrage._face(warm)  # so the reference answer builds nothing from inside a build
        expected = arbitrage.check_nar(warm)
        built.clear()
        solved.clear()
        c = parse_market(text)
        assert "_face" not in c._state
        answers = run_together(4, lambda i: arbitrage.check_nar(c), timeout=10)
        assert len(built) == 1 and len(solved) == 1, m
        assert answers == [expected] * 4, m


def test_four_threads_on_a_fresh_arbitrage_market_derive_one_certificate(monkeypatch):
    # the first check_na or sharper_ftap on a freshly parsed arbitrage
    # market solves push 0 and derives its arbitrage once, however many
    # threads ask together, and each thread gets a certificate of its own
    derived = []
    slow_phase_one(monkeypatch)
    arbitrage_of = arbitrage._arbitrage
    monkeypatch.setattr(arbitrage, "_arbitrage", lambda *a: derived.append(a) or arbitrage_of(*a))
    spread = next(m for m in _reference_markets()[6:] if any(opt.has_spread() for opt in m.options)
                  and isinstance(_answer(redundancy.sharper_ftap, m), redundancy.SharperFtapBundle)
                  and not arbitrage.check_na(m).holds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for m in [binomial_with_free_option(), spread]:
            for query, na in [(arbitrage.check_na, lambda a: a),
                              (redundancy.sharper_ftap, lambda a: a.na)]:
                text = dump_market(require_valid(m))
                expected = query(parse_market(text))
                derived.clear()
                c = parse_market(text)
                answers = run_together(4, lambda i: query(c), timeout=10)
                assert len(derived) == 1 and not na(expected).holds, (m, query)
                assert answers == [expected] * 4, (m, query)
                assert len({id(na(a).certificate.gains) for a in answers}) == 4, (m, query)
    finally:
        sys.setswitchinterval(interval)


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
                _answer(queries[k], c)
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


def test_copies_start_with_no_kept_floors_and_floors_stay_out_of_equality():
    m = binomial_with_spread_option()
    c = require_valid(m)
    fresh = require_valid(m)
    arbitrage.check_na(c)
    arbitrage.check_nar(c)
    assert "_na" in c._state and "_nar" in c._state
    assert "_na" not in fresh._state and "_nar" not in fresh._state
    assert c == fresh and repr(c) == repr(fresh)
    assert market_to_json(c) == market_to_json(fresh)
    copied = replace(c)
    assert "_na" not in copied._state and "_nar" not in copied._state
    reduced = superhedge.market_without_option(c, 0)
    assert "_na" not in reduced._state and "_nar" not in reduced._state
    # the copy answers for its own options, not from the market it came from
    assert arbitrage.check_na(reduced) == arbitrage.check_na(
        parse_market(dump_market(reduced)))


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
            _answer(arbitrage.check_nar, c)
            ftap = _answer(redundancy.sharper_ftap, c)
            _answer(superhedge.dual_price, c, claim)
            for leaf in c.charged:
                _answer(arbitrage.scenario_pricing_measure, c, leaf)
            assert calls == [], m
        if na.holds:
            superhedge.superhedge_price(c, claim)
            assert len(calls) == 1, m
            holds += 1
            spread += any(opt.has_spread() for opt in m.options)
        fails += not nar.holds and isinstance(ftap, redundancy.SharperFtapBundle)
    assert holds >= 40 and spread >= 20 and fails >= 15, (holds, spread, fails)
