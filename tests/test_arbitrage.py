import collections
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgecert import arbitrage, lp
from hedgecert.arbitrage import (
    ArbitrageCertificate,
    MartingaleMeasure,
    _measure,
    check_na,
    check_nar,
    dominating_measure,
    scenario_pricing_measure,
    strictly_inside_quotes,
    verify_measure,
    verify_na_certificate,
    verify_nar_witness,
)
from hedgecert.errors import (ArbitrageError, DomainError, RobustArbitrageError, SoundnessError,
                              StructureError)
from hedgecert.model import (
    Claim,
    OptionQuote,
    Strategy,
    require_valid,
    support,
    terminal_gain,
)
from hedgecert.redundancy import check_nonredundant, verify_replication
from hedgecert.superhedge import dual_price, superhedge_price, verify_super_replication
from markets import (
    binomial_market,
    binomial_with_free_option,
    binomial_with_spread_option,
    dense_rows,
    measure_of,
    measure_program,
    net_legs,
    nar_fixture_markets,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_rational,
    routed,
    single_leaf_market,
    sparse_rows,
    stockless_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
    zero_strategy,
)


def test_na_holds_on_binomial():
    assert check_na(binomial_market()).holds


def test_na_holds_on_pinned_identical_options():
    assert check_na(pinned_identical_options_market()).holds


def test_na_fails_with_free_option():
    verdict = check_na(binomial_with_free_option())
    assert not verdict.holds
    cert = verdict.certificate
    assert cert.gains[cert.strict_leaf] > 0
    assert all(g >= 0 for g in cert.gains)
    assert verify_na_certificate(binomial_with_free_option(), cert)


def test_na_certificate_replays_through_terminal_gain():
    m = binomial_with_free_option()
    cert = check_na(m).certificate
    from hedgecert.model import terminal_gain

    assert terminal_gain(m, cert.strategy) == cert.gains


def test_nar_fails_on_pinned_identical_options():
    verdict = check_nar(pinned_identical_options_market())
    assert not verdict.holds
    assert "slack is 0" in verdict.blocking


def test_nar_holds_on_binomial_with_unique_measure():
    verdict = check_nar(binomial_market())
    assert verdict.holds
    w = verdict.witness
    assert w.interior_measure.weights == [F(1, 3), F(2, 3)]
    assert w.slack == F(1, 3)
    assert verify_nar_witness(binomial_market(), w)


def test_nar_holds_on_wide_quote_market_with_interior_values():
    m = wide_quote_identical_options_market()
    verdict = check_nar(m)
    assert verdict.holds
    q = verdict.witness.interior_measure
    assert q.weights == [F(1, 2), F(1, 2)]
    assert q.option_values == [F(3, 2), F(3, 2)]
    assert strictly_inside_quotes(m, q)


def test_nar_infeasible_blocking_description():
    # pinned quote no measure can match: payoff (0,1) pinned at 2
    m = stockless_market(
        2, [OptionQuote("g", [F(0), F(1)], F(2), F(2))], [[F(1, 2), F(1, 2)]]
    )
    verdict = check_nar(m)
    assert not verdict.holds
    assert "no quote-consistent" in verdict.blocking


def test_nar_witness_shrunk_quotes_bracket_strictly():
    m = wide_quote_identical_options_market()
    w = check_nar(m).witness
    for i, opt in enumerate(m.options):
        assert opt.bid < w.shrunk_bids[i] <= w.shrunk_asks[i] < opt.ask


def test_dominating_measure_binomial_each_generator():
    m = binomial_market()
    for k in range(2):
        q = dominating_measure(m, k)
        assert q.weights == [F(1, 3), F(2, 3)]


def test_dominating_measure_wide_quote_market():
    q = dominating_measure(wide_quote_identical_options_market(), 1)
    assert q.weights == [F(1, 2), F(1, 2)]


def test_dominating_measure_single_leaf():
    assert dominating_measure(single_leaf_market(), 0).weights == [F(1)]


def test_dominating_measure_requires_robustness():
    with pytest.raises(RobustArbitrageError):
        dominating_measure(pinned_identical_options_market(), 0)


def test_dominating_measure_index_range():
    with pytest.raises(DomainError):
        dominating_measure(binomial_market(), 5)


def test_scenario_pricing_measure_binomial():
    q = scenario_pricing_measure(binomial_market(), 0)
    assert q.weights == [F(1, 3), F(2, 3)]


def test_scenario_pricing_measure_pinned_market():
    q = scenario_pricing_measure(pinned_identical_options_market(), 1)
    assert q.weights == [F(1, 2), F(1, 2)]


def test_scenario_pricing_measure_none_when_leaf_forced_null():
    assert scenario_pricing_measure(binomial_with_free_option(), 0) is None


def test_scenario_pricing_measure_domain_errors():
    m = stockless_market(2, [], [[F(1), F(0)]])
    with pytest.raises(DomainError):
        scenario_pricing_measure(m, 1)  # uncharged leaf
    with pytest.raises(DomainError):
        scenario_pricing_measure(m, 9)


def test_na_iff_every_support_leaf_priceable():
    rng = random.Random(41)
    for _ in range(40):
        m = random_arbitrary_market(rng)
        holds = check_na(m).holds
        pricable = all(
            scenario_pricing_measure(m, leaf) is not None for leaf in sorted(support(m))
        )
        assert holds == pricable


def test_invalid_market_raises_structural():
    m = stockless_market(2, [], [[F(1, 2), F(1, 3)]])
    with pytest.raises(StructureError):
        check_na(m)
    with pytest.raises(StructureError):
        check_nar(m)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_robust_implies_plain_no_arbitrage(seed):
    rng = random.Random(seed)
    m = random_arbitrary_market(rng)
    if check_nar(m).holds:
        assert check_na(m).holds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_zero_spread_markets_na_equals_nar(seed):
    rng = random.Random(seed)
    m = random_arbitrary_market(rng)
    if any(opt.has_spread() for opt in m.options):
        return
    assert check_na(m).holds == check_nar(m).holds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_constructed_markets_are_robust_and_witnesses_replay(seed):
    rng = random.Random(seed)
    m = random_arbitrage_free_market(rng, max_leaves=8)
    verdict = check_nar(m)
    assert verdict.holds
    assert verify_nar_witness(m, verdict.witness)


def test_measure_replay_invariants_on_fixtures():
    for m in nar_fixture_markets():
        w = check_nar(m).witness
        assert verify_measure(m, w.interior_measure)
        assert strictly_inside_quotes(m, w.interior_measure)


def test_verify_measure_rejects_bad_weights():
    m = binomial_market()
    good = check_nar(m).witness.interior_measure
    assert verify_measure(m, good)
    bad = measure_of(m, [F(1, 2), F(1, 2)])  # not a martingale here
    assert not verify_measure(m, bad)
    lopsided = measure_of(m, [F(1, 3), F(1, 3)])  # mass 2/3
    assert not verify_measure(m, lopsided)
    # one weight too many, and a negative weight in a mass of one
    assert not verify_measure(m, MartingaleMeasure([*good.weights, F(0)], []))
    assert not verify_measure(m, MartingaleMeasure([F(4, 3), F(-1, 3)], []))


def test_verify_measure_rejects_option_values_off_the_weights_or_the_quotes():
    # the one martingale measure of the binomial market values the digital
    # (1, 0) at 1/3: inside [1/4, 1/2], below the bid of [1/2, 1]
    m = binomial_with_spread_option()
    q = check_nar(m).witness.interior_measure
    assert verify_measure(m, q)
    assert not verify_measure(m, replace(q, option_values=[F(1, 2)]))
    tight = binomial_market([OptionQuote("digital", [F(1), F(0)], F(1, 2), F(1))])
    assert not verify_measure(tight, measure_of(tight, q.weights))


def test_strictly_inside_quotes_rejects_a_value_on_a_quote():
    # a spread option valued at its bid, and a zero-spread one off its quote
    m = binomial_with_spread_option()
    q = check_nar(m).witness.interior_measure
    assert not strictly_inside_quotes(m, replace(q, option_values=[F(1, 4)]))
    pinned = binomial_market([OptionQuote("pinned", [F(1), F(0)], F(1, 3), F(1, 3))])
    assert strictly_inside_quotes(pinned, q)
    assert not strictly_inside_quotes(pinned, replace(q, option_values=[F(1, 4)]))


def test_verify_na_certificate_rejects_each_broken_condition():
    m = binomial_with_free_option()
    cert = check_na(m).certificate
    assert verify_na_certificate(m, cert)
    # gains that are not the strategy's
    assert not verify_na_certificate(m, replace(cert, gains=[g + 1 for g in cert.gains]))
    # selling the free option: its own gains, but -1 on leaf 0
    sold = replace(zero_strategy(m), sell_leg=[F(1)])
    assert not verify_na_certificate(m, ArbitrageCertificate(sold, terminal_gain(m, sold), 0))
    # a strict leaf no generator charges, though its gain is positive
    m = stockless_market(2, [OptionQuote("free", [F(1), F(1)], F(0), F(0))], [[F(1), F(0)]])
    cert = check_na(m).certificate
    assert verify_na_certificate(m, cert) and cert.gains[1] > 0
    assert not verify_na_certificate(m, replace(cert, strict_leaf=1))


def test_verify_nar_witness_rejects_each_broken_condition():
    # the digital (1, 0) quoted [1/4, 1/2] is valued at 1/3
    m = binomial_with_spread_option()
    w = check_nar(m).witness
    assert verify_nar_witness(m, w)
    for bad in (
        replace(w, shrunk_bids=w.shrunk_bids * 2),  # one shrunk bid per option
        replace(w, shrunk_bids=[F(1, 4)]),  # not strictly above the bid
        replace(w, shrunk_bids=[F(5, 12)], shrunk_asks=[F(5, 12)]),  # 1/3 below them
    ):
        assert not verify_nar_witness(m, bad)
    # a zero-spread option's shrunk quotes are its quote
    pinned = binomial_market([OptionQuote("pinned", [F(1), F(0)], F(1, 3), F(1, 3))])
    w = check_nar(pinned).witness
    assert verify_nar_witness(pinned, w)
    assert not verify_nar_witness(pinned, replace(w, shrunk_asks=[F(1, 2)]))
    # stock 1 -> {2, 1, 0}: (1/2, 0, 1/2) is a martingale measure, but it
    # leaves the charged middle leaf at weight 0
    m = replace(trinomial_straddle_market(), options=[])
    w = check_nar(m).witness
    assert verify_nar_witness(m, w)
    zero = measure_of(m, [F(1, 2), F(0), F(1, 2)])
    assert verify_measure(m, zero)
    assert not verify_nar_witness(m, replace(w, interior_measure=zero))


def test_verify_measure_rejects_mass_off_support():
    m = stockless_market(2, [], [[F(1), F(0)]])
    off = measure_of(m, [F(1, 2), F(1, 2)])
    assert not verify_measure(m, off)


def _malformed(s: Strategy) -> list[Strategy]:
    """s with a missing node, a node with one position too many, a short
    buy leg and a negative sell leg."""
    node = min(s.dynamic)
    return [
        replace(s, dynamic={k: v for k, v in s.dynamic.items() if k != node}),
        replace(s, dynamic={**s.dynamic, node: [*s.dynamic[node], F(0)]}),
        replace(s, buy_leg=s.buy_leg[:-1]),
        replace(s, sell_leg=[F(-1), *s.sell_leg[1:]]),
    ]


def test_verifiers_reject_malformed_strategies():
    # a certificate malformed for its market fails replay, as a malformed
    # measure or witness does, instead of raising
    m = binomial_with_free_option()
    cert = check_na(m).certificate
    assert verify_na_certificate(m, cert)
    for s in _malformed(cert.strategy):
        assert not verify_na_certificate(m, replace(cert, strategy=s))

    m = trinomial_straddle_market()
    f = Claim([F(1), F(0), F(0)])
    price, strategy = superhedge_price(m, f)
    assert verify_super_replication(m, f, price, strategy)
    for s in _malformed(strategy):
        assert not verify_super_replication(m, f, price, s)

    m = binomial_with_spread_option()
    cert = check_nonredundant(m, 0).certificate
    assert verify_replication(m, 0, cert)
    for s in _malformed(Strategy(cert.dynamic, [], []))[:2]:
        assert not verify_replication(m, 0, replace(cert, dynamic=s.dynamic))


def test_verify_replication_rejects_each_broken_condition():
    # the digital (1, 0) is 1/3 plus 2/3 of a share from the root
    m = binomial_with_spread_option()
    cert = check_nonredundant(m, 0).certificate
    assert verify_replication(m, 0, cert)
    for i in (1, -1, True):  # no option 1 or -1, and True is not an index
        assert not verify_replication(m, i, cert)
    # a position in an option other than the one replicated, of which there is none
    assert not verify_replication(m, 0, replace(cert, static_signed=[F(0)]))
    assert not verify_replication(m, 0, replace(cert, initial_capital=cert.initial_capital + 1))


def test_every_replay_rejects_an_entry_that_is_not_rational():
    # a float, a string or None where a certificate holds a rational fails
    # replay: False, neither True from float arithmetic nor a TypeError
    m = binomial_with_free_option()
    cert = check_na(m).certificate
    s, node = cert.strategy, min(cert.strategy.dynamic)
    floats = {k: [float(v) for v in p] for k, p in s.dynamic.items()}
    for bad in (
        replace(cert, strategy=replace(s, dynamic={**s.dynamic, node: None})),
        replace(cert, strategy=replace(s, buy_leg=["x"] * len(s.buy_leg))),
        replace(cert, strategy=replace(s, dynamic=floats)),
        replace(cert, gains=[float(g) for g in cert.gains]),
    ):
        assert verify_na_certificate(m, bad) is False

    m = binomial_market()
    w = check_nar(m).witness
    q = w.interior_measure
    for bad in (replace(w, slack=None), replace(w, shrunk_bids=None)):
        assert verify_nar_witness(m, bad) is False
    for bad in (replace(q, weights=None), replace(q, weights=[float(v) for v in q.weights])):
        assert verify_measure(m, bad) is False
    assert strictly_inside_quotes(m, replace(q, option_values=None)) is False

    m = trinomial_straddle_market()
    f = Claim([F(1), F(0), F(0)])
    price, strategy = superhedge_price(m, f)
    for bad in (None, float(price)):
        assert verify_super_replication(m, f, bad, strategy) is False

    m = wide_quote_identical_options_market()
    cert = check_nonredundant(m, 0).certificate
    assert verify_replication(m, 0, cert)
    for bad in (
        replace(cert, static_signed=["x"] * len(cert.static_signed)),
        replace(cert, initial_capital=None),
        replace(cert, dynamic={k: None for k in cert.dynamic}),
    ):
        assert verify_replication(m, 0, bad) is False

    I = F(1)
    p = routed(lp.LpProblem([I], sparse_rows([[I]]), [lp.LE], [I]))
    out = lp.solve_lp(p)
    for bad in (
        replace(out, primal=[1.0]),
        replace(out, primal=[None]),
        replace(out, dual=[float(v) for v in out.dual]),
        replace(out, objective_value=1.0),
    ):
        assert lp.verify_certificate(p, bad) is False
    p = routed(lp.LpProblem([F(0)], sparse_rows([[I], [I]]), [lp.LE, lp.GE], [F(0), I]))
    out = lp.solve_lp(p)
    assert lp.verify_certificate(p, replace(out, farkas=[float(v) for v in out.farkas])) is False
    p = routed(lp.LpProblem([I], [], [], []))
    out = lp.solve_lp(p)
    assert lp.verify_certificate(p, replace(out, ray=[1.0])) is False


def test_compiled_and_public_measures_agree_on_every_weight_vector_a_query_makes():
    # the interior measure of check_nar and the dual measure of dual_price,
    # built by `_measure` from the compiled payoff integers, against each
    # option's expectation of its payoff
    rng = random.Random(19)
    markets = nar_fixture_markets()
    markets += [random_arbitrage_free_market(rng) for _ in range(40)]
    markets += [random_arbitrary_market(rng, max_periods=3, max_assets=2) for _ in range(40)]
    seen = 0
    for m in markets:
        c = require_valid(m)
        made = []
        witness = check_nar(c).witness
        if witness is not None:
            made.append(witness.interior_measure)
        try:
            made.append(dual_price(c, random_claim(rng, m))[1])
        except ArbitrageError:  # no consistent measure: no dual measure either
            pass
        for q in made:
            expected = MartingaleMeasure(q.weights, [q.expectation(opt.payoff) for opt in m.options])
            assert q == expected == _measure(c, [q.weights[pos] for pos in c.charged])
            seen += 1
    assert seen > 60


def test_measure_helpers_reject_wrong_lengths():
    m = binomial_with_spread_option()
    q = check_nar(m).witness.interior_measure
    assert strictly_inside_quotes(m, q)
    # one option value too few or too many is not an interior measure
    assert not strictly_inside_quotes(m, MartingaleMeasure(q.weights, []))
    assert not strictly_inside_quotes(m, MartingaleMeasure(q.weights, q.option_values * 2))
    # a payoff must have one entry per leaf the measure weighs
    with pytest.raises(StructureError, match="1 entries"):
        q.expectation([F(1)])
    with pytest.raises(StructureError):
        q.expectation([F(1)] * 3)


def test_measure_takes_exact_values_one_per_charged_leaf_on_any_market():
    # `_measure` keeps the values as given, an int among
    # Fractions too, reads no trailing floor t and prices each option
    # exactly; a market with no option gets no values
    values = [F(1, 2), 1]
    assert _measure(require_valid(binomial_market()), values) == MartingaleMeasure(values, [])
    q = _measure(require_valid(binomial_with_spread_option()), [*values, F(7)])
    assert q.weights == values and q.option_values == [F(1, 2)]
    assert list(map(type, q.weights)) == [F, int] and type(q.option_values[0]) is F


def test_measure_weighs_the_charged_leaves_alone_on_partly_charged_markets():
    # one value per charged rank plus the shift, which the robust parts add
    # as the slack (`_robustness`), is that leaf's weight, every other leaf
    # weighs 0, a trailing floor t is not read, and each option's value is
    # the dot product of the weights with its payoff by leaf position; the
    # robust parts keep that measure's weights and values whole, and a
    # program's R_w is >= 0, so with a negative one the kept weights fail to
    # dominate a generator
    rng = random.Random(53)
    seen = shifted = moved = 0
    while seen < 150:
        c = require_valid(random_arbitrary_market(rng, max_periods=3, max_assets=2, max_leaves=8,
                                                  max_options=3))
        if len(c.charged) == len(c.leaves) or not c.options:
            continue
        values = [random_rational(rng, -2, 3, dens=(1, 2, 3, 5, 7)) for _ in c.charged]
        for shift in (F(0), F(rng.randint(1, 9), rng.choice((2, 3, 11)))):
            given = values
            if shift:
                given = [abs(v) for v in values]
                out = lp.LpOutcome(lp.OPTIMAL, [*given, shift], None, shift, None, None)
                *_, kept_weights, kept_values = arbitrage._robustness(c, out)
                q = MartingaleMeasure(list(kept_weights), list(kept_values))
                out.primal[0] = -shift
                with pytest.raises(SoundnessError, match="fails to dominate"):
                    arbitrage._robustness(c, out)
            else:
                q = _measure(c, [*given, F(99)])
            weights = [F(0)] * len(c.leaves)
            for pos, v in zip(c.charged, given):
                weights[pos] = v + shift
            assert q.weights == weights, (c, values, shift)
            assert q.option_values == [lp._dot(weights, opt.payoff) for opt in c.options], (c, shift)
        # the shift moves some option's value, and some leaf's rank is not its position
        shifted += any(sum(opt.payoff[pos] for pos in c.charged) for opt in c.options)
        moved += c.charged[-1] >= len(c.charged)
        seen += 1
    assert shifted > 100 and moved > 100, (shifted, moved)


def test_redundant_spread_option_market_is_still_robust():
    # complete stock market prices the option inside its quotes
    verdict = check_nar(binomial_with_spread_option())
    assert verdict.holds
    q = verdict.witness.interior_measure
    assert q.weights == [F(1, 3), F(2, 3)]
    assert q.option_values == [F(1, 3)]


def test_floor_column_is_the_row_sum_plus_the_push_offset():
    # the floor t enters every row through all charged leaves' weights
    # Q_w = R_w + t, and spread quote rows move inward by push * t
    rng = random.Random(20250301)
    markets = nar_fixture_markets() + [pinned_identical_options_market(), binomial_with_free_option()]
    markets += [random_arbitrary_market(rng, max_options=3) for _ in range(300)]
    offset = {lp.EQ: 0, lp.GE: -1, lp.LE: 1}
    for m in markets:
        c = require_valid(m)
        for push in (0, 1):
            problem, _ = measure_program(c, [F(0)] * len(c.charged) + [F(1)], push)
            assert problem.rows is problem.phase1[0].rows  # the face's, one column short
            width = len(problem.objective)
            full = lp._program_rows(problem)
            for face_row, row, rel in zip(problem.rows, full, problem.relations):
                late = dense_rows([row], width)[0][-1]
                assert late == sum((v for _, v in face_row), F(0)) + offset[rel] * push
                assert type(late) is F
                # the face row's pairs, then the late pair (width - 1, late) when late is not 0
                assert row == ((*face_row, (width - 1, late)) if late else face_row)


def _legs_then_netted(c, problem, out):
    """(capital, strategy) of the multipliers read leg by leg: each option
    row's y a buy (y > 0) or a sell (y < 0) leg in the 2e option columns of
    `strategy_from`, the legs then netted by `markets.net_legs`."""
    layout = arbitrage._face(c)[1]
    y = out.dual if out.status == lp.OPTIMAL else [-v for v in out.farkas]
    nh, e = len(c.columns), len(c.options)
    position = [F(0)] * (nh + 2 * e)
    for (kind, index), v in zip(layout, y):
        if kind == "martingale":
            position[index] = v
        elif kind == "option" and v:
            position[nh + index if v > 0 else nh + e + index] += abs(v)
    return lp._dot(y, problem.rhs), net_legs(c.strategy_from(position))


def test_the_hedge_nets_each_option_as_the_legs_netted_would():
    # `_hedge` sums each option's bid and ask multipliers into one net
    # position; the capital and the strategy its positions build
    # (`strategy_from`) must be, field for field and entry type for entry
    # type, those that splitting the rows into legs and netting them after
    # gives, on optimal duals and Farkas vectors alike.
    # Each option is then held long or short, never both, so a caller has
    # no legs left to net
    seen = collections.Counter()
    rng = random.Random(34034)
    markets = []
    for k in range(400):
        m = (random_arbitrary_market if k % 2 else random_arbitrage_free_market)(rng)
        markets.append(m)
        verdict = check_nar(m)
        if verdict.holds and any(opt.has_spread() for opt in m.options):
            # each spread quoted a quarter of the slack either side of its
            # interior value, so a spread holds the push-1 floor down and its
            # bid and ask rows are both tight
            q, s = verdict.witness.interior_measure, verdict.witness.slack / 4
            markets.append(replace(m, options=[
                replace(opt, bid=v - s, ask=v + s) if opt.has_spread() else opt
                for opt, v in zip(m.options, q.option_values)]))
    for k, m in enumerate(markets):
        c = require_valid(m)
        floor = [F(0)] * len(c.charged) + [F(1)]
        pricing = [random_rational(rng, -3, 3) for _ in c.charged]
        for objective, push in ((floor, 0), (floor, 1), (pricing, None)):
            problem, out = measure_program(c, objective, push)
            capital, positions = arbitrage._hedge(c, out)
            hedge, expected = (capital, c.strategy_from(positions)), _legs_then_netted(c, problem, out)
            assert hedge == expected and repr(hedge) == repr(expected), (k, push)
            legs = zip(hedge[1].buy_leg, hedge[1].sell_leg)
            assert not any(b and v for b, v in legs), (k, push)
            seen[out.status] += 1
            y = out.dual or out.farkas
            rows = collections.Counter(index for (kind, index), v in zip(arbitrage._face(c)[1], y)
                                       if kind == "option" and v)
            seen["both rows"] += 2 in rows.values()
    assert all(seen[case] >= 50 for case in (lp.OPTIMAL, lp.INFEASIBLE, "both rows")), seen

