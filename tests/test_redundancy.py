import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction as F

import pytest

import oracle
from hedgecert import redundancy
from hedgecert.arbitrage import strictly_inside_quotes, verify_measure, verify_na_certificate
from hedgecert.errors import DomainError, PreconditionError, StructureError
from hedgecert.model import (ONE, ZERO, MeasureFamily, OptionQuote, require_valid,
                             validate_market)
from hedgecert.redundancy import (
    ReplicationCertificate,
    all_spread_options_nonredundant,
    check_nonredundant,
    sharper_ftap,
    verify_replication,
)
from kept_store import answer
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


def _spread_node(k, **fields):
    m = binomial_with_spread_option()
    nodes = list(m.tree.nodes)
    nodes[k] = replace(nodes[k], **fields)
    return replace(m, tree=replace(m.tree, nodes=nodes))


def _spread_payoff(payoff):
    m = binomial_with_spread_option()
    return replace(m, options=[replace(m.options[0], payoff=payoff)])


_SPREAD = binomial_with_spread_option()

# Each market would hand the elimination rows of the wrong shape or with
# inexact entries: ragged gain rows, a payoff longer or shorter than the
# leaf count, an entry that is no rational, no row at all, or more or fewer
# gain columns than the prices carry. The elimination checks none of this;
# the market's validation stops every one first and names it.
MALFORMED_ROWS = {
    "ragged gain row": (_spread_node(1, prices=[F(2), F(3)]),
                        "tree: node 1 carries 2 prices, expected 1"),
    "long payoff": (_spread_payoff([F(1), F(0), F(1)]),
                    "options[0] ('digital'): payoff has 3 entries, expected 2"),
    "short payoff": (_spread_payoff([F(1)]),
                     "options[0] ('digital'): payoff has 1 entries, expected 2"),
    "float leaf price": (_spread_node(2, prices=[0.5]), "tree: node 2 prices[0] is float 0.5"),
    "Decimal payoff": (_spread_payoff([Decimal("0.5"), F(0)]),
                       "options[0] ('digital'): payoff[0] is Decimal"),
    "no generator": (replace(_SPREAD, measures=MeasureFamily([])),
                     "measures: at least one generator required"),
    "no payoff entry": (_spread_payoff([F(1), None]),
                        "options[0] ('digital'): payoff[1] is NoneType None"),
    "no payoff list": (_spread_payoff(None),
                       "options[0] ('digital'): payoff is NoneType, not a list"),
    "no node list": (replace(_SPREAD, tree=replace(_SPREAD.tree, nodes=None)),
                     "tree: nodes is NoneType, not a list"),
    "no price list": (_spread_node(1, prices=None), "tree: node 1 prices is NoneType, not a list"),
    "bool payoff": (_spread_payoff([True, F(0)]),
                    "options[0] ('digital'): payoff[0] is bool True"),
    "no node": (replace(_SPREAD, tree=replace(_SPREAD.tree, nodes=[])), "tree: no nodes"),
    "more assets than prices": (replace(_SPREAD, tree=replace(_SPREAD.tree, num_assets=3)),
                                "tree: node 0 carries 1 prices, expected 3"),
    "negative asset count": (replace(_SPREAD, tree=replace(_SPREAD.tree, num_assets=-1)),
                             "tree: num_assets is -1, must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_markets_never_reach_the_elimination(case, monkeypatch):
    m, where = MALFORMED_ROWS[case]
    report = validate_market(m)
    assert not report.ok
    assert any(v.startswith(where) for v in report.violations), report.violations
    reached = []
    monkeypatch.setattr(redundancy, "_reduce", lambda *a: reached.append(a))
    queries = [
        lambda m: check_nonredundant(m, 0),
        all_spread_options_nonredundant,
        sharper_ftap,
        lambda m: verify_replication(m, 0, ReplicationCertificate(ZERO, {}, [])),
    ]
    for query in queries:
        with pytest.raises(StructureError, match=re.escape(where)):
            query(m)
    assert reached == []


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


def _reading(m, i) -> str:
    """How the reduced row-echelon form of [1 | G | P], by the dense
    reference, decides option i: "free" when its column takes no pivot,
    "leaning" when it does and a later column without a pivot has a nonzero
    entry in its pivot row, else "alone"."""
    c = require_valid(m)
    gains = oracle.reference_gain_rows(c)[1]
    rows = [[ONE, *gains[pos], *(opt.payoff[pos] for opt in c.options)] for pos in c.charged]
    a, piv = oracle._dense_gauss_jordan(rows, [ZERO] * len(rows))
    col = 1 + len(c.columns) + i
    if col not in piv:
        return "free"
    row = a[piv.index(col)]
    return "leaning" if any(row[j] for j in range(col + 1, len(rows[0])) if j not in piv) else "alone"


def test_shared_elimination_equals_one_elimination_per_option():
    # every verdict and certificate is the one the dense elimination of
    # [1 | G | P_others] against P_i gives, on enough options of each reading
    seen = {"free": 0, "leaning": 0, "alone": 0}
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
            reading = _reading(m, i)
            assert verdict.non_redundant == (reading == "alone"), (m, i)
            seen[reading] += 1
    assert min(seen.values()) >= 20, seen


def test_sharper_ftap_equals_the_two_program_path():
    # the robust verdict first, then no-arbitrage only where it fails, gives
    # the two-program path's bundle on every market, arbitrage certificate
    # included: both hand out check_na's
    kinds = {"settled": 0, "arbitrage": 0, "precondition": 0}
    for m in _reference_markets():
        outcome = answer(sharper_ftap, m)
        assert outcome == answer(oracle.two_program_sharper_ftap, m), m
        if isinstance(outcome, tuple):
            kinds["precondition"] += 1
        elif outcome.na.holds:
            kinds["settled"] += 1
        else:
            assert verify_na_certificate(m, outcome.na.certificate), m
            kinds["arbitrage"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_one_elimination_per_market_gives_every_option_its_dense_verdict(monkeypatch):
    # a compiled market's first redundancy query solves every option's
    # replication in one elimination; each verdict and report is what
    # each option's own dense elimination gives, and every redundant
    # certificate replays
    eliminations = []
    eliminate = redundancy._reduce
    monkeypatch.setattr(redundancy, "_reduce",
                        lambda *args: eliminations.append(args) or eliminate(*args))
    redundant = 0
    for m in _reference_markets():
        c = require_valid(m)
        expected = [oracle.replication_solve(m, i) for i in range(len(m.options))]
        eliminations.clear()
        verdicts = [check_nonredundant(c, i) for i in range(len(c.options))]
        report = all_spread_options_nonredundant(c)
        assert verdicts == expected, m
        assert report.verdicts == {i: expected[i] for i in report.verdicts}, m
        for i, verdict in enumerate(verdicts):
            if not verdict.non_redundant:
                assert verify_replication(c, i, verdict.certificate), (m, i)
                redundant += 1
        assert len(eliminations) == (1 if c.options else 0), m
    assert redundant >= 40, redundant
