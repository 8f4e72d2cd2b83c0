import random
from fractions import Fraction as F

import pytest

import oracle
from hedgecert.arbitrage import strictly_inside_quotes, verify_measure, verify_na_certificate
from hedgecert.errors import DomainError, HedgecertError, PreconditionError
from hedgecert.model import OptionQuote
from hedgecert.redundancy import (
    all_spread_options_nonredundant,
    check_nonredundant,
    sharper_ftap,
    verify_replication,
)
from markets import (
    binomial_market,
    binomial_with_free_option,
    binomial_with_spread_option,
    pinned_identical_options_market,
    random_arbitrary_market,
    spread_option_only_market,
    stockless_market,
    wide_quote_identical_options_market,
    trinomial_straddle_market,
)


def test_identical_option_is_redundant():
    m = wide_quote_identical_options_market()
    verdict = check_nonredundant(m, 1)
    assert not verdict.non_redundant
    cert = verdict.certificate
    assert cert.initial_capital == 0
    assert cert.static_signed == [F(1)]
    assert verify_replication(m, 1, cert)


def test_complete_market_replicates_any_option():
    m = binomial_with_free_option()
    verdict = check_nonredundant(m, 0)
    assert not verdict.non_redundant
    cert = verdict.certificate
    assert cert.initial_capital == F(1, 3)
    assert cert.dynamic == {0: [F(2, 3)]}
    assert verify_replication(m, 0, cert)


def test_scaled_option_redundant_then_alone_nonredundant():
    scaled = stockless_market(
        2,
        [
            OptionQuote("g1", [F(0), F(1)], F(1, 4), F(1, 2)),
            OptionQuote("g2", [F(0), F(2)], F(1, 2), F(1)),
        ],
        [[F(1), F(0)], [F(0), F(1)]],
    )
    verdict = check_nonredundant(scaled, 0)
    assert not verdict.non_redundant
    assert verdict.certificate.initial_capital == 0
    assert verdict.certificate.static_signed == [F(1, 2)]

    alone = stockless_market(
        2,
        [OptionQuote("g1", [F(0), F(1)], F(1, 4), F(1, 2))],
        [[F(1), F(0)], [F(0), F(1)]],
    )
    assert check_nonredundant(alone, 0).non_redundant


def test_index_out_of_range():
    with pytest.raises(DomainError):
        check_nonredundant(binomial_market(), 0)


def _uncharged_leaf_market():
    # third leaf carries no mass, so disagreement there does not matter
    return stockless_market(
        3,
        [
            OptionQuote("g1", [F(0), F(1), F(5)], F(1, 4), F(1, 2)),
            OptionQuote("g2", [F(0), F(1), F(7)], F(1, 4), F(1, 2)),
        ],
        [[F(1, 2), F(1, 2), F(0)]],
    )


def test_redundancy_only_over_charged_leaves():
    m = _uncharged_leaf_market()
    verdict = check_nonredundant(m, 1)
    assert not verdict.non_redundant
    assert verify_replication(m, 1, verdict.certificate)


def test_all_spread_options_wide_quote_market():
    report = all_spread_options_nonredundant(wide_quote_identical_options_market())
    assert not report.all_non_redundant
    assert set(report.verdicts) == {0, 1}


def test_all_spread_options_pinned_market():
    # only g2 has a spread; it is replicated by g1
    report = all_spread_options_nonredundant(pinned_identical_options_market())
    assert not report.all_non_redundant
    assert set(report.verdicts) == {1}


def test_all_spread_options_vacuous_for_zero_spread():
    report = all_spread_options_nonredundant(trinomial_straddle_market())
    assert report.all_non_redundant
    assert report.verdicts == {}


def test_sharper_ftap_positive_bundle():
    m = spread_option_only_market()
    bundle = sharper_ftap(m)
    assert bundle.na.holds
    assert bundle.nar_witness is not None and bundle.nar_witness.slack > 0
    assert len(bundle.dominating) == 2
    for k, q in enumerate(bundle.dominating):
        assert verify_measure(m, q)
        assert strictly_inside_quotes(m, q)
        gen = m.measures.generators[k]
        assert all(q.weights[p] > 0 for p, w in enumerate(gen) if w > 0)


def test_sharper_ftap_precondition_names_redundant_options():
    with pytest.raises(PreconditionError) as err:
        sharper_ftap(wide_quote_identical_options_market())
    assert "g1" in str(err.value) and "g2" in str(err.value)


def test_sharper_ftap_redundant_spread_option_in_complete_market():
    # the stock replicates the option, so the hypothesis fails even though
    # both arbitrage checks would pass on this market
    with pytest.raises(PreconditionError):
        sharper_ftap(binomial_with_spread_option())


def test_sharper_ftap_arbitrage_with_certificate():
    # the given-away option has zero spread: hypothesis is vacuous
    bundle = sharper_ftap(binomial_with_free_option())
    assert not bundle.na.holds
    assert bundle.na.certificate is not None
    assert bundle.nar_witness is None


def test_replication_invariant_under_uncharged_leaf_changes():
    rng = random.Random(3)
    for _ in range(10):
        payoff_tail = F(rng.randint(-3, 3))
        m = stockless_market(
            3,
            [
                OptionQuote("a", [F(1), F(2), payoff_tail], F(0), F(3)),
                OptionQuote("b", [F(1), F(2), payoff_tail + 1], F(0), F(3)),
            ],
            [[F(2, 3), F(1, 3), F(0)]],
        )
        assert not check_nonredundant(m, 1).non_redundant


def _reference_markets():
    """The fixtures with pinned, zero-spread and uncharged-leaf options,
    then 300 random markets of up to three options."""
    fixtures = [
        pinned_identical_options_market(),
        binomial_with_free_option(),
        binomial_with_spread_option(),
        wide_quote_identical_options_market(),
        trinomial_straddle_market(),
        spread_option_only_market(),
        _uncharged_leaf_market(),
    ]
    rng = random.Random(20261018)
    return fixtures + [random_arbitrary_market(rng, max_options=3) for _ in range(300)]


def test_shared_elimination_equals_one_elimination_per_option():
    seen = {True: 0, False: 0}
    for m in _reference_markets():
        report = all_spread_options_nonredundant(m)
        assert set(report.verdicts) == {i for i, opt in enumerate(m.options) if opt.has_spread()}
        for i in range(len(m.options)):
            verdict = check_nonredundant(m, i)
            assert verdict == oracle.replication_solve(m, i), (m, i)
            if i in report.verdicts:
                assert report.verdicts[i] == verdict
            if not verdict.non_redundant:
                assert verify_replication(m, i, verdict.certificate)
            seen[verdict.non_redundant] += 1
    assert min(seen.values()) >= 50, seen


def _outcome(query, m):
    try:
        return query(m)
    except HedgecertError as err:
        return type(err), str(err), getattr(err, "details", None)


def test_sharper_ftap_equals_the_two_program_path():
    # one robust solve settles every market the two-program path settles, to
    # the same bundle; on an arbitrage market the certificate is read off the
    # robust program's multipliers rather than the no-arbitrage program's, so
    # it may differ from the oracle's but must replay
    kinds = {"settled": 0, "arbitrage": 0, "precondition": 0}
    for m in _reference_markets():
        outcome = _outcome(sharper_ftap, m)
        expected = _outcome(oracle.two_program_sharper_ftap, m)
        if isinstance(outcome, tuple) or outcome.na.holds:
            assert outcome == expected, m
            kinds["precondition" if isinstance(outcome, tuple) else "settled"] += 1
            continue
        assert not isinstance(expected, tuple) and not expected.na.holds, m
        assert (outcome.nar_witness, outcome.dominating) == (None, None)
        assert verify_na_certificate(m, outcome.na.certificate), m
        kinds["arbitrage"] += 1
    assert min(kinds.values()) >= 10, kinds
