"""Inputs of the wrong type: a replay answers False, a query raises a
StructureError or a DomainError, and nothing ends in an AttributeError or a
TypeError from deep inside the package."""

import json
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from hedgecert import lp
from hedgecert.arbitrage import (
    MartingaleMeasure,
    check_na,
    check_nar,
    dominates,
    dominating_measure,
    scenario_pricing_measure,
    strictly_inside_quotes,
    verify_measure,
    verify_na_certificate,
    verify_nar_witness,
)
from hedgecert.errors import DomainError, StructureError
from hedgecert.marketio import (
    claim_to_json,
    measure_to_json,
    na_certificate_to_json,
    parse_claim,
    replication_to_json,
    strategy_to_json,
    witness_to_json,
)
from hedgecert.model import (
    Claim,
    MeasureFamily,
    OptionQuote,
    Strategy,
    validate_market,
)
from hedgecert.redundancy import (
    all_spread_options_nonredundant,
    check_nonredundant,
    verify_replication,
)
from hedgecert.superhedge import (
    dual_price,
    market_without_option,
    price_bounds_excluding,
    strict_dual_approx,
    superhedge_price,
    verify_super_replication,
)
from markets import (binomial_market, binomial_with_free_option, binomial_with_spread_option,
                     pinned_identical_options_market, routed, sparse_rows)


def test_replays_return_false_on_missing_or_mistyped_certificates():
    m = binomial_market()
    witness = check_nar(m).witness
    free = binomial_with_free_option()
    cert = check_na(free).certificate
    claim = Claim([F(1), F(0)])
    price, strategy = superhedge_price(m, claim)
    unrouted = lp.LpProblem([F(1)], sparse_rows([[F(1)]]), [lp.LE], [F(1)])
    problem = routed(unrouted)
    interior, generator = witness.interior_measure, m.measures.generators[0]
    cases = {
        "no witness": lambda: verify_nar_witness(m, None),
        "no interior measure": lambda: verify_nar_witness(m, replace(witness, interior_measure=None)),
        "no arbitrage certificate": lambda: verify_na_certificate(free, None),
        "no arbitrage strategy": lambda: verify_na_certificate(free, replace(cert, strategy=None)),
        # a bool is no leaf index, though it would index leaf 1 or 0
        "bool strict leaf 1": lambda: verify_na_certificate(free, replace(cert, strict_leaf=True)),
        "bool strict leaf 0": lambda: verify_na_certificate(free, replace(cert, strict_leaf=False)),
        "no measure": lambda: verify_measure(m, None),
        "no interior candidate": lambda: strictly_inside_quotes(m, None),
        "no hedge": lambda: verify_super_replication(m, claim, price, None),
        "no claim": lambda: verify_super_replication(m, None, price, strategy),
        # the same claim in floating point would replay in floating point
        "float claim": lambda: verify_super_replication(m, Claim([1.0, 0.0]), price, strategy),
        "no replication": lambda: verify_replication(free, 0, None),
        "no outcome": lambda: lp.verify_certificate(problem, None),
        # the same data no face built: the program's outcome does not replay
        "unrouted problem": lambda: lp.verify_certificate(unrouted, lp.solve_lp(problem)),
        "no dominating measure": lambda: dominates(None, generator),
        "no weight": lambda: dominates(replace(interior, weights=[None, F(1)]), generator),
        "no generator": lambda: dominates(interior, None),
        "no generator weight": lambda: dominates(interior, [None, F(1)]),
    }
    for name, replay in cases.items():
        assert replay() is False, name
    # the certificates themselves still replay
    assert verify_nar_witness(m, witness) and verify_na_certificate(free, cert)
    assert verify_super_replication(m, claim, price, strategy)
    assert dominates(interior, generator)
    assert lp.verify_certificate(problem, lp.solve_lp(problem))


def _with_prices(m, convert):
    nodes = [replace(node, prices=[convert(p) for p in node.prices]) for node in m.tree.nodes]
    return replace(m, tree=replace(m.tree, nodes=nodes))


_QUOTED = OptionQuote("c", [F(1), F(0)], F(1, 4), F(1, 2))

WRONG_ENTRIES = {
    "float prices": (_with_prices(binomial_market([_QUOTED]), float),
                     "tree: node 0 prices[0] is float 1.0"),
    "float payoff": (binomial_market([replace(_QUOTED, payoff=[1.0, F(0)])]),
                     "options[0] ('c'): payoff[0] is float 1.0"),
    "no bid": (binomial_market([replace(_QUOTED, bid=None)]),
               "options[0] ('c'): bid is NoneType None"),
    "string ask": (binomial_market([replace(_QUOTED, ask="1/2")]),
                   "options[0] ('c'): ask is str '1/2'"),
    "float weights": (replace(binomial_market([_QUOTED]), measures=MeasureFamily([[0.5, 0.5]])),
                      "measures[0]: weights[0] is float 0.5"),
    "no payoff list": (binomial_market([replace(_QUOTED, payoff=None)]),
                       "options[0] ('c'): payoff is NoneType, not a list"),
}


@pytest.mark.parametrize("case", sorted(WRONG_ENTRIES))
def test_market_entries_that_are_not_rationals_are_located_violations(case):
    m, where = WRONG_ENTRIES[case]
    report = validate_market(m)
    assert not report.ok
    assert any(v.startswith(where) for v in report.violations), report.violations
    queries = [
        check_na,
        check_nar,
        lambda m: superhedge_price(m, Claim([F(1), F(0)])),
        all_spread_options_nonredundant,
    ]
    for query in queries:
        with pytest.raises(StructureError, match=re.escape(where)):
            query(m)


@pytest.mark.parametrize(
    "query",
    [dominating_measure, scenario_pricing_measure, check_nonredundant, price_bounds_excluding],
)
def test_index_arguments_that_are_not_ints_are_domain_errors(query):
    m = binomial_with_spread_option()
    for bad in (0.5, 1.0, None, "0"):
        with pytest.raises(DomainError, match="is not an int"):
            query(m, bad)
    query(m, 0)  # an int in range is answered


def test_a_bool_claim_payoff_is_structural():
    # bool is an int subclass, but a payoff of True is no rational: every
    # query taking a claim names it, as `validate_market` names one in a market
    m = binomial_market()
    for query in (superhedge_price, dual_price, lambda m, f: strict_dual_approx(m, f, F(1, 4))):
        with pytest.raises(StructureError, match=re.escape("claim payoff[0] is bool True")):
            query(m, Claim([True, F(0)]))


def test_an_eps_that_is_not_an_int_or_a_fraction_is_a_domain_error():
    m = binomial_with_spread_option()
    for bad in (0.25, None, "1/4"):
        with pytest.raises(DomainError, match="not an int or a Fraction"):
            strict_dual_approx(m, Claim([F(1), F(0)]), bad)


def _with_tree(m, **fields):
    return replace(m, tree=replace(m.tree, **fields))


def _with_node(m, k, **fields):
    nodes = list(m.tree.nodes)
    nodes[k] = replace(nodes[k], **fields)
    return _with_tree(m, nodes=nodes)


_SPREAD = binomial_with_spread_option()

WRONG_STRUCTURE = {
    "no tree": (replace(_SPREAD, tree=None), "tree is NoneType, not a ScenarioTree"),
    "no measure family": (replace(_SPREAD, measures=[[F(1), F(0)]]),
                          "measures is list, not a MeasureFamily"),
    "no generator list": (replace(_SPREAD, measures=MeasureFamily(None)),
                          "measures: generators is NoneType, not a list"),
    "no node list": (_with_tree(_SPREAD, nodes=None), "tree: nodes is NoneType, not a list"),
    "no option list": (replace(_SPREAD, options=None), "options is NoneType, not a list"),
    "string names": (replace(_SPREAD, measures=MeasureFamily([[F(1), F(0)]], "up")),
                     "measures: names is str, not a list or None"),
    "no node": (_with_tree(_SPREAD, nodes=[*_SPREAD.tree.nodes[:2], None]),
                "tree: nodes[2] is NoneType, not a Node"),
    "no option": (replace(_SPREAD, options=[None]), "options[0] is NoneType, not an OptionQuote"),
    "no periods": (_with_tree(_SPREAD, periods=None), "tree: periods is NoneType None, not an int"),
    "float periods": (_with_tree(_SPREAD, periods=1.0), "tree: periods is float 1.0, not an int"),
    "bool asset count": (_with_tree(_SPREAD, num_assets=True),
                         "tree: num_assets is bool True, not an int"),
    "string node id": (_with_node(_SPREAD, 1, id="1"), "tree: nodes[1].id is str '1', not an int"),
    "no node time": (_with_node(_SPREAD, 2, time=None),
                     "tree: nodes[2].time is NoneType None, not an int"),
    "float parent": (_with_node(_SPREAD, 1, parent=0.0),
                     "tree: nodes[1].parent is float 0.0, not an int"),
}


@pytest.mark.parametrize("case", sorted(WRONG_STRUCTURE))
def test_structural_fields_of_the_wrong_type_are_located_violations(case):
    m, where = WRONG_STRUCTURE[case]
    report = validate_market(m)  # a report, never a TypeError
    assert report.violations == [where]
    queries = [
        check_na,
        check_nar,
        lambda m: superhedge_price(m, Claim([F(1), F(0)])),
        all_spread_options_nonredundant,
    ]
    for query in queries:
        with pytest.raises(StructureError, match=re.escape(where)):
            query(m)


def test_market_without_option_takes_only_an_option_index():
    m = binomial_with_spread_option()
    for bad in (0.5, 1.0, None, "0", True):
        with pytest.raises(DomainError, match="is not an int"):
            market_without_option(m, bad)
    for bad in (1, -1):
        with pytest.raises(DomainError, match="out of range"):
            market_without_option(m, bad)
    assert market_without_option(m, 0).options == []


def _free_certificate():
    return check_na(binomial_with_free_option()).certificate


def _spread_witness():
    return check_nar(_SPREAD).witness


_PINNED = pinned_identical_options_market()  # g1 and g2 pay alike, so each replicates the other


def _pinned_replication():
    return check_nonredundant(_PINNED, 0).certificate


# each would otherwise end in an AttributeError or a TypeError, or for the
# hand-built problem in an answer to a program no face built, or print a
# field of the wrong type; a market is validated first, so its error is the
# one `require_valid` gives
WRONG_TYPE_CALLS = {
    "problem is NoneType with no route to a phase 1, not a program _Phase1.program built":
        lambda: lp.solve_lp(None),
    "problem is LpProblem with no route to a phase 1":
        lambda: lp.solve_lp(lp.LpProblem([F(1)], sparse_rows([[F(1)]]), [lp.LE], [F(1)])),
    # the report serializers, each of which read a field of its argument first
    "strategy is Claim, not a Strategy": lambda: strategy_to_json(Claim([F(1), F(0)])),
    "measure is NoneType, not a MartingaleMeasure": lambda: measure_to_json(None),
    "witness is NoneType, not a RobustnessWitness": lambda: witness_to_json(None),
    "certificate is NoneType, not an ArbitrageCertificate": lambda: na_certificate_to_json(None),
    "certificate is NoneType, not a ReplicationCertificate":
        lambda: replication_to_json(_SPREAD, 0, None),
    # and each of them on a field of the wrong type
    "certificate gains is NoneType, not a list of ints and Fractions":
        lambda: na_certificate_to_json(replace(_free_certificate(), gains=None)),
    "certificate strict_leaf is str, not an int leaf":
        lambda: na_certificate_to_json(replace(_free_certificate(), strict_leaf="x")),
    "strategy dynamic is NoneType, not a dict from int node ids to lists of ints and Fractions":
        lambda: strategy_to_json(replace(_free_certificate().strategy, dynamic=None)),
    "strategy dynamic is dict, not a dict from int node ids to lists of ints and Fractions":
        lambda: strategy_to_json(replace(_free_certificate().strategy, dynamic={0: [], "1": []})),
    "strategy buy_leg is list, not a list of ints and Fractions":
        lambda: strategy_to_json(replace(_free_certificate().strategy, buy_leg=[1.5])),
    "strategy is NoneType, not a Strategy": lambda: strategy_to_json(None),
    "strategy buy_leg is NoneType, not a list": lambda: strategy_to_json(Strategy({}, None, None)),
    "strategy sell_leg is float, not a list": lambda: strategy_to_json(Strategy({}, [F(1)], 0.5)),
    # a bool is an int to Python but no exact entry, here and below
    "strategy sell_leg is list, not a list of ints and Fractions":
        lambda: strategy_to_json(Strategy({}, [F(1)], [True])),
    "witness shrunk_bids is NoneType, not a list of ints and Fractions":
        lambda: witness_to_json(replace(_spread_witness(), shrunk_bids=None)),
    "witness shrunk_asks is float, not a list of ints and Fractions":
        lambda: witness_to_json(replace(_spread_witness(), shrunk_asks=0.5)),
    "witness slack is float, not an int or a Fraction":
        lambda: witness_to_json(replace(_spread_witness(), slack=0.5)),
    "witness slack is bool, not an int or a Fraction":
        lambda: witness_to_json(replace(_spread_witness(), slack=True)),
    "certificate strict_leaf is bool, not an int leaf":
        lambda: na_certificate_to_json(replace(_free_certificate(), strict_leaf=True)),
    "measure weights is NoneType, not a list of ints and Fractions":
        lambda: measure_to_json(replace(_spread_witness().interior_measure, weights=None)),
    "measure weights is list, not a list of ints and Fractions":
        lambda: measure_to_json(MartingaleMeasure(["x", F(1, 2)], [])),
    "measure option_values is NoneType, not a list of ints and Fractions":
        lambda: measure_to_json(replace(_spread_witness().interior_measure, option_values=None)),
    "certificate initial_capital is NoneType, not an int or a Fraction":
        lambda: replication_to_json(_SPREAD, 0, replace(
            check_nonredundant(_SPREAD, 0).certificate, initial_capital=None)),
    "certificate dynamic is NoneType, not a dict from int node ids to lists of ints and Fractions":
        lambda: replication_to_json(_SPREAD, 0, replace(
            check_nonredundant(_SPREAD, 0).certificate, dynamic=None)),
    "certificate static_signed is NoneType, not a list of ints and Fractions":
        lambda: replication_to_json(_PINNED, 0, replace(_pinned_replication(), static_signed=None)),
    # and on fields of the right types whose lengths do not fit, which were
    # printed cut short to the shorter one
    "strategy legs sized 1/2, not one length":
        lambda: strategy_to_json(Strategy({0: []}, [F(1)], [F(0), F(1)])),
    "certificate static_signed has 0 positions for 1 other options":
        lambda: replication_to_json(_PINNED, 0, replace(_pinned_replication(), static_signed=[])),
    "certificate static_signed has 2 positions for 1 other options":
        lambda: replication_to_json(_PINNED, 0, replace(_pinned_replication(),
                                                        static_signed=[F(1), F(1)])),
    # the message of `check_na(None)`, and of `market_without_option(None, 0)`
    # below, keyed without its prefix, as every key names one case
    "market is NoneType, not a MarketModel": lambda: check_na(None),
    "invalid market: market is ScenarioTree, not a MarketModel":
        lambda: replication_to_json(_SPREAD.tree, 0, check_nonredundant(_SPREAD, 0).certificate),
    "invalid market: market is NoneType, not a MarketModel": lambda: market_without_option(None, 0),
    "invalid market: options is NoneType, not a list":
        lambda: market_without_option(replace(binomial_with_spread_option(), options=None), 0),
}


@pytest.mark.parametrize("where", sorted(WRONG_TYPE_CALLS))
def test_helpers_name_a_wrong_type_in_a_structure_error(where):
    with pytest.raises(StructureError, match=re.escape(where)):
        WRONG_TYPE_CALLS[where]()


def test_replication_to_json_takes_only_an_option_index():
    # an index past the options ended in an IndexError; a bool would name
    # option 1 or 0
    m = binomial_with_spread_option()
    cert = check_nonredundant(m, 0).certificate
    assert replication_to_json(m, 0, cert)["option"] == "digital"
    for bad, where in ((5, "option index 5 out of range"), (-1, "option index -1 out of range"),
                       (True, "option index True is not an int"), (None, "is not an int")):
        with pytest.raises(DomainError, match=re.escape(where)):
            replication_to_json(m, bad, cert)


def test_interior_replays_validate_the_market_first():
    # a market whose option list holds None, and one quoted with bid > ask:
    # both replays raise the market's StructureError, as `verify_measure`
    # does, instead of reading the options of a market never validated
    m = binomial_with_spread_option()
    witness = check_nar(m).witness
    measure = witness.interior_measure
    assert strictly_inside_quotes(m, measure) and verify_nar_witness(m, witness)
    no_option = replace(m, options=[None])
    crossed = replace(m, options=[replace(m.options[0], bid=F(1, 2), ask=F(1, 4))])
    for bad, where in [(no_option, "options[0] is NoneType"), (crossed, "options[0] ('digital')")]:
        for replay in (strictly_inside_quotes, verify_nar_witness, verify_measure):
            with pytest.raises(StructureError, match=re.escape(where)):
                replay(bad, witness if replay is verify_nar_witness else measure)


def test_an_expectation_takes_only_exact_entries():
    # a float would be read as the binary fraction it stores, and a bool is
    # no rational: each is a StructureError naming the entry, not a value
    q = MartingaleMeasure([F(1, 3), F(2, 3)], [])
    cases = {
        "payoff[0] is float 0.1": ([0.1, 1], q),
        "payoff[0] is bool True": ([True, 1], q),
        "payoff[1] is str '1'": ([F(1), "1"], q),
        "payoff is NoneType, not a list": (None, q),
        "weights[1] is float 0.5": ([F(1), 1], MartingaleMeasure([F(1, 2), 0.5], [])),
        "weights is NoneType, not a list": ([F(1), 1], MartingaleMeasure(None, [])),
    }
    for where, (payoff, measure) in cases.items():
        with pytest.raises(StructureError, match=re.escape(where)):
            measure.expectation(payoff)
    assert q.expectation([F(1, 2), 1]) == F(5, 6)
    assert type(q.expectation([1, 1])) is F


_CLAIM = Claim([F(1), F(0)])
_CLAIM_FILE = json.dumps({"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["1", "0"]})


@pytest.mark.parametrize("call, where", [
    (lambda m: parse_claim(_CLAIM_FILE, None), "invalid market: market is NoneType, not a MarketModel"),
    (lambda m: parse_claim(_CLAIM_FILE, {}), "invalid market: market is dict, not a MarketModel"),
    (lambda m: claim_to_json(None, _CLAIM), "invalid market: market is NoneType, not a MarketModel"),
    (lambda m: claim_to_json(m, None), "claim is NoneType, not a Claim"),
    (lambda m: claim_to_json(m, Claim([1.0, F(0)])), "claim payoff[0] is float 1.0"),
    (lambda m: claim_to_json(m, Claim([F(1)])), "claim has 1 payoffs, market has 2 leaves"),
], ids=["parse None", "parse dict", "write None market", "write None claim",
        "write float payoff", "write short payoff"])
def test_the_claim_file_api_names_a_wrong_market_or_claim(call, where):
    m = binomial_market()
    with pytest.raises(StructureError, match=re.escape(where)):
        call(m)
    assert parse_claim(json.dumps(claim_to_json(m, _CLAIM)), m) == _CLAIM
