import itertools
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

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
from hedgecert.model import MeasureFamily, validate_market
from markets import (
    binomial_market,
    binomial_with_spread_option,
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


def test_format_rational_canonical():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(F(0)) == "0"


def _m1_with(edit) -> bytes:
    """m1.json with `edit` applied to its parsed object, as bytes."""
    market = json.loads((DATA / "m1.json").read_text())
    edit(market)
    return json.dumps(market).encode()


@pytest.mark.parametrize(
    "data, path",
    [
        (b"[" * 100_000, "$"),
        (b'{"schemaVersion": 1, "x": "\xff"}', "$"),
        (b'{"schemaVersion": 1' + b"0" * 5000 + b"}", "$"),
        (b"[1]", "$"),  # a top level that is not an object
        (_m1_with(lambda m: m.update(options={})), "options"),
        (_m1_with(lambda m: m.update(leafOrder=[1, "2"])), "leafOrder"),
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(id="0")), "tree.nodes[0].id"),
        # no node list: "expected a non-empty list"
        (_m1_with(lambda m: m["tree"].update(nodes=[])), "tree.nodes"),
        (_m1_with(lambda m: m["tree"].update(nodes="x")), "tree.nodes"),
        (_m1_with(lambda m: m.update(tree=[])), "tree"),  # "expected an object"
        (_m1_with(lambda m: m.update(tree={})), "tree"),  # "missing fields: nodes"
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(prices="1")), "tree.nodes[0].prices"),
        (_m1_with(lambda m: m.update(options=[1])), "options[0]"),  # "expected an object"
        # the literal grammar is ASCII digits alone, with nothing around them
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(prices=["3\n"])), "tree.nodes[0].prices[0]"),
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(prices=["\u0663"])), "tree.nodes[0].prices[0]"),
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(prices=["1/\u0664"])), "tree.nodes[0].prices[0]"),
        (_m1_with(lambda m: m["tree"]["nodes"][0].update(prices=["\uff11"])), "tree.nodes[0].prices[0]"),
    ],
)
def test_hostile_bytes_are_located_parse_errors(data, path):
    with pytest.raises(MarketParseError) as err:
        parse_market(data)
    assert [p for p, _ in err.value.issues] == [path]


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
