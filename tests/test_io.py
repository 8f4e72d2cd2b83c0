import dataclasses
import itertools
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from hedgecert import marketio
from hedgecert.errors import StructureError
from hedgecert.marketio import (
    MarketParseError,
    claim_to_json,
    dump_market,
    format_rational,
    market_to_json,
    parse_claim,
    parse_market,
    parse_rational_text,
)
from hedgecert.model import CompiledMarket, MeasureFamily, require_valid, validate_market
from markets import (
    binomial_market,
    binomial_with_spread_option,
    ladder_market,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)

DATA = Path(__file__).parent / "data"


def test_fixture_file_round_trips_to_model():
    m = parse_market((DATA / "m1.json").read_text())
    assert len(m.tree.nodes) == 3
    assert m.tree.num_assets == 1
    assert m.tree.nodes[2].prices == [F(1, 2)]
    assert m.measures.names == ["up", "down"]


def test_decimal_string_parses_exactly():
    assert parse_rational_text("0.25") == F(1, 4)
    assert parse_rational_text("-0.125") == F(-1, 8)
    market = json.loads((DATA / "m2.json").read_text())
    market["options"][1]["bid"] = "0.25"
    m = parse_market(json.dumps(market))
    assert m.options[1].bid == F(1, 4)


def test_zero_denominator_is_located():
    market = json.loads((DATA / "m1.json").read_text())
    market["tree"]["nodes"][0]["prices"] = ["1/0"]
    with pytest.raises(MarketParseError) as err:
        parse_market(json.dumps(market))
    assert any("zero denominator" in msg for _, msg in err.value.issues)
    assert any("tree.nodes[0].prices[0]" == path for path, _ in err.value.issues)


def test_unknown_field_rejected():
    market = json.loads((DATA / "m1.json").read_text())
    market["extra"] = 1
    market["options"] = [
        {"name": "x", "payoff": ["1", "0"], "bid": "0", "ask": "1", "typo": True}
    ]
    with pytest.raises(MarketParseError) as err:
        parse_market(json.dumps(market))
    paths = [path for path, _ in err.value.issues]
    assert "$.extra" in paths
    assert "options[0].typo" in paths


def test_unsupported_schema_version():
    with pytest.raises(MarketParseError):
        parse_market(json.dumps({"schemaVersion": 2}))


def test_malformed_json():
    with pytest.raises(MarketParseError):
        parse_market(b"{not json")


def test_bad_rational_grammar_rejected():
    for bad in ["1e5", "1.5e2", "0x3", " 1", "1/ 2", "--1", "1.2.3", "1" + "0" * 5000]:
        market = json.loads((DATA / "m1.json").read_text())
        market["tree"]["nodes"][0]["prices"] = [bad]
        with pytest.raises(MarketParseError) as err:
            parse_market(json.dumps(market))
        assert [p for p, _ in err.value.issues] == ["tree.nodes[0].prices[0]"]


def test_validation_violations_surface_as_parse_errors():
    market = json.loads((DATA / "m2.json").read_text())
    market["options"][0]["bid"] = "3"
    with pytest.raises(MarketParseError) as err:
        parse_market(json.dumps(market))
    assert any("exceeds ask" in msg for _, msg in err.value.issues)


def test_leaf_order_permutation_reorders_payoffs():
    market = json.loads((DATA / "m2.json").read_text())
    market["leafOrder"] = [2, 1]
    market["options"][0]["payoff"] = ["1", "0"]  # leaf 2 pays 1, leaf 1 pays 0
    market["options"][1]["payoff"] = ["1", "0"]
    market["measures"] = [{"name": "w", "weights": ["1/3", "2/3"]}]
    m = parse_market(json.dumps(market))
    # canonical order is ascending node id: leaf 1 then leaf 2
    assert m.options[0].payoff == [F(0), F(1)]
    assert m.measures.generators[0] == [F(2, 3), F(1, 3)]


def test_leaf_order_must_cover_leaves():
    market = json.loads((DATA / "m1.json").read_text())
    market["leafOrder"] = [1, 1]
    with pytest.raises(MarketParseError):
        parse_market(json.dumps(market))


def test_duplicate_option_name_rejected():
    market = json.loads((DATA / "m3.json").read_text())
    market["options"][1]["name"] = "g1"
    with pytest.raises(MarketParseError) as err:
        parse_market(json.dumps(market))
    assert any("duplicate option name" in msg for _, msg in err.value.issues)
    # validate_market's own name check, located in the market
    assert ("market", "options[1]: duplicate option name 'g1'") in err.value.issues


def test_round_trip_models():
    import random

    rng = random.Random(5)
    fixtures = [
        binomial_market(),
        pinned_identical_options_market(),
        wide_quote_identical_options_market(),
        trinomial_straddle_market(),
        binomial_with_spread_option(),
    ] + [random_arbitrage_free_market(rng, max_leaves=6) for _ in range(10)]
    for m in fixtures:
        again = parse_market(dump_market(m))
        assert market_to_json(again) == market_to_json(m)


def _renamed(option_names, generator_names):
    """binomial_with_spread_option with its option repeated once per name
    and its two generators named as given."""
    m = binomial_with_spread_option()
    option = m.options[0]
    return replace(
        m,
        options=[replace(option, name=name) for name in option_names],
        measures=MeasureFamily(m.measures.generators, generator_names),
    )


@pytest.mark.parametrize("option_names, generator_names, located", [
    (["digital"], [1, 2], "measures[0]: name 1 is not a non-empty string"),
    ([None], ["up", "down"], "options[0]: name None is not a non-empty string"),
    (["digital", ""], ["up", "down"], "options[1]: name '' is not a non-empty string"),
    (["digital", "digital"], ["up", "down"], "options[1]: duplicate option name 'digital'"),
    (["digital"], ["up", "up"], "measures[1]: duplicate generator name 'up'"),
])
def test_names_the_file_format_rejects_are_located_violations(option_names, generator_names, located):
    m = _renamed(option_names, generator_names)
    assert located in validate_market(m).violations
    with pytest.raises(StructureError, match="invalid market"):
        dump_market(m)  # never a file that parse_market cannot read


def test_every_market_validation_accepts_round_trips_through_a_file():
    # names drawn from ones the format takes and ones it rejects: a market
    # validate_market accepts is written and read back unchanged, and one
    # it rejects is never written
    pool = ["a", "b", "", None, 1]
    accepted = 0
    for option_names in itertools.chain.from_iterable(
            itertools.product(pool, repeat=k) for k in range(3)):
        for generator_names in [None, *itertools.product(pool, repeat=2)]:
            m = _renamed(list(option_names), generator_names and list(generator_names))
            if validate_market(m).ok:
                accepted += 1
                assert market_to_json(parse_market(dump_market(m))) == market_to_json(m)
            else:
                with pytest.raises(StructureError):
                    dump_market(m)
    assert accepted == 5 * 3  # option names: (), a, b, ab, ba; generators: None, ab, ba


def test_dump_is_deterministic():
    a = dump_market(binomial_with_spread_option())
    b = dump_market(binomial_with_spread_option())
    assert a == b


def test_claim_round_trip_and_reordering():
    m = binomial_market()
    from hedgecert.model import Claim

    f = Claim([F(1), F(0)])
    as_json = claim_to_json(m, f)
    assert parse_claim(json.dumps(as_json), m).payoff == f.payoff
    flipped = {"schemaVersion": 1, "leafOrder": [2, 1], "payoff": ["0", "1"]}
    assert parse_claim(json.dumps(flipped), m).payoff == [F(1), F(0)]


def test_claim_length_mismatch():
    m = binomial_market()
    bad = {"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["1"]}
    with pytest.raises(MarketParseError):
        parse_claim(json.dumps(bad), m)


def _claim_and_market_issues(edit) -> tuple[list, list]:
    """The issues parse_claim and parse_market raise for one fault, `edit`
    applied to a valid claim file on m1 and to m1.json itself."""
    market = parse_market((DATA / "m1.json").read_bytes())
    claim = {"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["1", "0"]}
    edit(claim)
    with pytest.raises(MarketParseError) as claim_error:
        parse_claim(json.dumps(claim), market)
    with pytest.raises(MarketParseError) as market_error:
        parse_market(_m1_with(edit))
    return claim_error.value.issues, market_error.value.issues


def test_claim_schema_version_issue_is_the_market_files():
    claim, market = _claim_and_market_issues(lambda doc: doc.update(schemaVersion=2))
    assert claim == market == [("schemaVersion", "unsupported value 2, expected 1")]


def test_claim_leaf_order_of_no_ids_issue_is_the_market_files():
    claim, market = _claim_and_market_issues(lambda doc: doc.update(leafOrder=[1, "2"]))
    assert claim == market == [("leafOrder", "expected a list of node ids")]


def test_claim_leaf_order_of_wrong_nodes_issue_is_the_market_files():
    claim, market = _claim_and_market_issues(lambda doc: doc.update(leafOrder=[1, 1]))
    assert claim == market == [("leafOrder", "must list exactly the nodes at the final period")]


def test_format_rational_canonical():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(F(0)) == "0"


def _m1_with(edit) -> bytes:
    """m1.json with `edit` applied to its parsed object, as bytes."""
    market = json.loads((DATA / "m1.json").read_text())
    edit(market)
    return json.dumps(market).encode()


def _node0(**fields):
    """An edit that updates node 0 of the tree with `fields`."""
    return lambda m: m["tree"]["nodes"][0].update(fields)


_LONG = "1" + "0" * 5000  # past the int-string limit of int()


def _int_limit_message() -> str:
    try:
        int(_LONG)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize(
    "data, issues",
    [
        (b"[" * 100_000, [("$", "malformed JSON: nested too deeply")]),
        (b'{"schemaVersion": 1, "x": "\xff"}', [("$", "not UTF-8: invalid byte at offset 27")]),
        (b'{"schemaVersion": 1' + b"0" * 5000 + b"}",
         [("$", f"malformed JSON: {_int_limit_message()}")]),
        (b"[1]", [("$", "top level must be an object")]),
        (_m1_with(lambda m: m.update(options={})), [("options", "expected a list")]),
        (_m1_with(lambda m: m.update(leafOrder=[1, "2"])),
         [("leafOrder", "expected a list of node ids")]),
        (_m1_with(_node0(id="0")), [("tree.nodes[0].id", "expected an integer, got '0'")]),
        (_m1_with(lambda m: m["tree"].update(nodes=[])),
         [("tree.nodes", "expected a non-empty list")]),
        (_m1_with(lambda m: m["tree"].update(nodes="x")),
         [("tree.nodes", "expected a non-empty list")]),
        (_m1_with(lambda m: m.update(tree=[])), [("tree", "expected an object")]),
        (_m1_with(lambda m: m.update(tree={})), [("tree", "missing fields: nodes")]),
        # a string is no list, though its characters would each parse
        (_m1_with(_node0(prices="1")),
         [("tree.nodes[0].prices", "expected a list of rational strings")]),
        (_m1_with(lambda m: m.update(options=[1])), [("options[0]", "expected an object")]),
        # the literal grammar is ASCII digits alone, with nothing around them
        (_m1_with(_node0(prices=["3\n"])),
         [("tree.nodes[0].prices[0]", "not a rational string: '3\\n'")]),
        (_m1_with(_node0(prices=["\u0663"])),
         [("tree.nodes[0].prices[0]", "not a rational string: '\u0663'")]),
        (_m1_with(_node0(prices=["1/\u0664"])),
         [("tree.nodes[0].prices[0]", "not a rational string: '1/\u0664'")]),
        (_m1_with(_node0(prices=["\uff11"])),
         [("tree.nodes[0].prices[0]", "not a rational string: '\uff11'")]),
        # entries that are no string: none is looked up as a literal
        (_m1_with(_node0(prices=[1])), [("tree.nodes[0].prices[0]", "not a rational string: 1")]),
        (_m1_with(_node0(prices=[True])),
         [("tree.nodes[0].prices[0]", "not a rational string: True")]),
        (_m1_with(_node0(prices=[None])),
         [("tree.nodes[0].prices[0]", "not a rational string: None")]),
        (_m1_with(_node0(prices=[1.5])),
         [("tree.nodes[0].prices[0]", "not a rational string: 1.5")]),
        (_m1_with(_node0(prices=[["1"]])),
         [("tree.nodes[0].prices[0]", "not a rational string: ['1']")]),
        (_m1_with(_node0(prices=[{}])), [("tree.nodes[0].prices[0]", "not a rational string: {}")]),
        (_m1_with(_node0(prices=[_LONG])),
         [("tree.nodes[0].prices[0]", "rational string of 5001 characters is too long")]),
        # a literal that fails is never kept: each place it recurs is an issue
        (_m1_with(lambda m: [node.update(prices=["1/0"]) for node in m["tree"]["nodes"][1:]]),
         [("tree.nodes[1].prices[0]", "zero denominator"),
          ("tree.nodes[2].prices[0]", "zero denominator")]),
        (_m1_with(lambda m: (m["measures"][0].update(weights=["0x1", "0"]),
                             m["measures"][1].update(weights=["0", "0x1"]))),
         [("measures[0].weights[0]", "not a rational string: '0x1'"),
          ("measures[1].weights[1]", "not a rational string: '0x1'")]),
        # a node's issues in field order: id, then prices
        (_m1_with(_node0(id="0", prices=["x"])),
         [("tree.nodes[0].id", "expected an integer, got '0'"),
          ("tree.nodes[0].prices[0]", "not a rational string: 'x'")]),
        (_m1_with(_node0(extra=1)), [("tree.nodes[0].extra", "unknown field")]),
        (_m1_with(lambda m: m["tree"]["nodes"][1].pop("time")),
         [("tree.nodes[1]", "missing fields: time")]),
        (_m1_with(lambda m: (m["tree"]["nodes"][1].pop("time"), m["tree"]["nodes"][1].update(b=0, a=0))),
         [("tree.nodes[1].b", "unknown field"), ("tree.nodes[1].a", "unknown field"),
          ("tree.nodes[1]", "missing fields: time")]),
        (_m1_with(lambda m: m.update(options=[{"name": "c", "payoff": "10", "bid": "0", "ask": "1"}])),
         [("options[0].payoff", "expected a list of rational strings")]),
        (_m1_with(lambda m: m.update(options=[{"name": "c", "payoff": "10", "bid": "x", "ask": "1"}])),
         [("options[0].payoff", "expected a list of rational strings"),
          ("options[0].bid", "not a rational string: 'x'")]),
        (_m1_with(lambda m: m["measures"][0].update(weights=[True, "0"])),
         [("measures[0].weights[0]", "not a rational string: True")]),
    ],
)
def test_hostile_bytes_are_located_parse_errors(data, issues):
    with pytest.raises(MarketParseError) as err:
        parse_market(data)
    assert err.value.issues == issues


def test_claim_leaf_order_of_mixed_types_is_rejected():
    bad = {"schemaVersion": 1, "leafOrder": [1, "2"], "payoff": ["1", "0"]}
    with pytest.raises(MarketParseError) as err:
        parse_claim(json.dumps(bad), binomial_market())
    assert [p for p, _ in err.value.issues] == ["leafOrder"]


@pytest.mark.parametrize("data, kind", [(None, "NoneType"), (123, "int")])
def test_input_that_is_neither_bytes_nor_str_is_a_located_parse_error(data, kind):
    for parse in (parse_market, lambda d: parse_claim(d, binomial_market())):
        with pytest.raises(MarketParseError) as err:
            parse(data)
        assert err.value.issues == [("$", f"input is {kind}, not bytes or str")]


def _literals(document: dict) -> list[str]:
    """Every rational literal of a market document, in file order."""
    out = [p for node in document["tree"]["nodes"] for p in node["prices"]]
    out += [v for opt in document["options"] for v in (*opt["payoff"], opt["bid"], opt["ask"])]
    return out + [w for gen in document["measures"] for w in gen["weights"]]


def _distinct_fractions(m):
    """m with every price, payoff, quote and weight a Fraction object of its own."""
    def fresh(v):
        return F(v.numerator, v.denominator)

    nodes = [replace(node, prices=list(map(fresh, node.prices))) for node in m.tree.nodes]
    options = [replace(opt, payoff=list(map(fresh, opt.payoff)), bid=fresh(opt.bid),
                       ask=fresh(opt.ask)) for opt in m.options]
    generators = [list(map(fresh, w)) for w in m.measures.generators]
    return replace(m, tree=replace(m.tree, nodes=nodes), options=options,
                   measures=replace(m.measures, generators=generators))


def test_a_document_parses_each_distinct_literal_once(monkeypatch):
    # the benchmark ladder's 64-leaf binomial tree, where most literals repeat
    document = market_to_json(ladder_market(2, 6))
    literals = _literals(document)
    parsed_texts = []

    def counted(text):
        parsed_texts.append(text)
        return parse_rational_text(text)

    monkeypatch.setattr(marketio, "parse_rational_text", counted)
    parsed = parse_market(json.dumps(document))
    assert sorted(parsed_texts) == sorted(set(literals))
    assert (len(parsed_texts), len(literals)) == (35, 389)
    # one Fraction object per distinct literal, shared by every entry
    values = [p for node in parsed.tree.nodes for p in node.prices]
    values += [v for opt in parsed.options for v in (*opt.payoff, opt.bid, opt.ask)]
    values += [w for gen in parsed.measures.generators for w in gen]
    assert len(values) == len(literals)
    assert len({id(v) for v in values}) == len(set(literals))

    # the shared Fractions compile to the market distinct ones compile to
    distinct = require_valid(_distinct_fractions(ladder_market(2, 6)))
    for f in dataclasses.fields(CompiledMarket):
        assert getattr(parsed, f.name) == getattr(distinct, f.name), f.name
    assert dump_market(parsed) == dump_market(distinct)
