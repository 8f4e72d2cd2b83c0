"""Each public query validates its market exactly once, and a parsed
market, which `parse_market` has validated and compiled, not at all.
sharper_ftap settles a market with one shared elimination and one program,
two where robust no-arbitrage fails beside a spread option, and a warm call
with none; superhedge_price and duality_report each solve one program, and
`strict-dual --verify` solves the dual program once. The CLI validates and
compiles each market file once and builds its parser once per process,
never at import. The compiled gain columns are the nonzeros of a reference
built from the price differences along each charged leaf's path, one entry
per path edge and asset.

A `replace` copy of a compiled market is validated and compiled again:
only a market `_compile` built, or `market_without_option` copied from one,
passes `require_valid` unchanged.

The counts come from rebinding `validate_market`, `_compile`, `lp.solve_lp`
and `redundancy._reduce` around a single call, so they hold for
whatever the call delegates to.
"""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import hedgecert.model as model
from hedgecert import arbitrage, cli, lp, marketio, redundancy, superhedge
from hedgecert.errors import HedgecertError, PreconditionError, StructureError
from hedgecert.model import (Claim, CompiledMarket, MarketModel, MeasureFamily, Node, OptionQuote,
                             ScenarioTree)
from markets import (
    binomial_market,
    binomial_with_free_option,
    binomial_with_spread_option,
    dense_rows,
    ladder_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    spread_option_only_market,
    stockless_market,
    trinomial_straddle_market,
    two_period_stock_market,
    wide_quote_identical_options_market,
)
from oracle import dense_face, reference_gain_rows

QUERIES = {
    "check_na": lambda m, f: arbitrage.check_na(m),
    "check_nar": lambda m, f: arbitrage.check_nar(m),
    "superhedge_price": superhedge.superhedge_price,
    "dual_price": superhedge.dual_price,
    "duality_report": superhedge.duality_report,
    "strict_dual_approx": lambda m, f: superhedge.strict_dual_approx(m, f, F(1, 100)),
    "price_bounds_excluding": lambda m, f: superhedge.price_bounds_excluding(m, 0),
    "all_spread_options_nonredundant": lambda m, f: redundancy.all_spread_options_nonredundant(m),
    "dominating_measure": lambda m, f: arbitrage.dominating_measure(m, 0),
    "sharper_ftap": lambda m, f: redundancy.sharper_ftap(m),
}


def _markets():
    fixtures = [
        binomial_market(),
        binomial_with_free_option(),
        binomial_with_spread_option(),
        spread_option_only_market(),
        trinomial_straddle_market(),
        two_period_stock_market(),
        wide_quote_identical_options_market(),
    ]
    fixtures += [random_arbitrage_free_market(random.Random(s), min_periods=2) for s in range(6)]
    return fixtures


class _Counter:
    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_public_query_validates_once(monkeypatch, query):
    validations = _Counter(monkeypatch, model, "validate_market")
    rng = random.Random(query)
    for m in _markets():
        f = random_claim(rng, m)
        before = validations.calls
        try:
            QUERIES[query](m, f)
        except HedgecertError:
            pass  # an arbitrage or precondition verdict still compiles once
        assert validations.calls - before == 1, query


def _parsed(m):
    return marketio.parse_market(marketio.dump_market(m))


def test_parse_market_returns_a_compiled_market():
    for m in _markets():
        parsed = _parsed(m)
        assert isinstance(parsed, CompiledMarket)
        assert marketio.market_to_json(parsed) == marketio.market_to_json(m)
        # dataclass equality compares classes: a parsed market never equals
        # a plain MarketModel, even one with the same fields
        assert parsed != model.MarketModel(parsed.tree, parsed.options, parsed.measures)


@pytest.mark.parametrize(
    "query", ["check_na", "check_nar", "superhedge_price", "dual_price", "sharper_ftap"]
)
def test_queries_on_a_parsed_market_neither_validate_nor_compile(monkeypatch, query):
    rng = random.Random(query)
    parsed = [(_parsed(m), random_claim(rng, m)) for m in _markets()]
    validations = _Counter(monkeypatch, model, "validate_market")
    compiles = _Counter(monkeypatch, model, "_compile")
    for m, f in parsed:
        try:
            QUERIES[query](m, f)
        except HedgecertError:
            pass  # an arbitrage or precondition verdict reads the same compiled market
    assert (validations.calls, compiles.calls) == (0, 0), query


def _binomial_tree(up, down):
    return ScenarioTree([Node(0, 0, None, [F(1)]), Node(1, 1, 0, [up]), Node(2, 1, 0, [down])],
                        periods=1, num_assets=1)


_UP = Claim([F(1), F(0)])


def _na(m):
    return arbitrage.check_na(m).holds


# (copy of the compiled 1 -> {2, 1/2} market, query, the fresh market's answer)
# the compiled market holds NA and prices the up claim at 1/3 on both leaves;
# a copy answered from its compiled fields would say the same
REPLACE_COPIES = {
    "tree rising on both children": (dict(tree=_binomial_tree(F(2), F(3, 2))), _na, False),
    "tree 1 -> {3, 1/2}": (dict(tree=_binomial_tree(F(3), F(1, 2))),
                           lambda m: superhedge.superhedge_price(m, _UP)[0], F(1, 5)),
    "measures charging the up leaf": (dict(measures=MeasureFamily([[F(1), F(0)]], ["up"])), _na, False),
    "measures summing to 2": (dict(measures=MeasureFamily([[F(1), F(1)]], ["twice"])), _na,
                              "measures[0]: measure sums to 2, expected 1"),
}


@pytest.mark.parametrize("case", sorted(REPLACE_COPIES))
def test_replace_copies_of_a_compiled_market_are_validated_and_compiled_again(case):
    fields, query, expected = REPLACE_COPIES[case]
    c = model.require_valid(binomial_market())
    assert _na(c) and superhedge.superhedge_price(c, _UP)[0] == F(1, 3)
    copy = replace(c, **fields)
    fresh = MarketModel(copy.tree, copy.options, copy.measures)
    if isinstance(expected, str):
        for m in (copy, fresh):
            with pytest.raises(StructureError, match=re.escape(expected)):
                query(m)
        return
    assert query(copy) == query(fresh) == expected
    compiled, again = model.require_valid(copy), model.require_valid(fresh)
    assert compiled is not copy and model.require_valid(compiled) is compiled
    assert (compiled.gain_columns, compiled.charged) == (again.gain_columns, again.charged)


def test_a_replace_copy_with_a_float_payoff_is_named_before_any_program_runs(monkeypatch):
    def unreachable(*args):
        raise AssertionError("an LP or an elimination ran on an invalid market")

    for module, name in ((lp, "_Phase1"), (lp, "solve_lp"), (lp, "_reduce"),
                         (redundancy, "_reduce")):
        monkeypatch.setattr(module, name, unreachable)
    c = model.require_valid(binomial_market())
    floaty = replace(c, options=[OptionQuote("x", [0.1, F(1)], F(0), F(1))])
    for query, run in QUERIES.items():
        with pytest.raises(StructureError, match=re.escape("options[0] ('x'): payoff[0] is float 0.1")):
            run(floaty, _UP)


def test_only_compile_and_market_without_option_mark_a_market():
    # that no copy holds a kept entry is the copies contract of `kept_store.ENTRIES`
    m = binomial_with_spread_option()
    c = model.require_valid(m)
    reduced = superhedge.market_without_option(c, 0)
    assert model.require_valid(reduced) is reduced
    # an unmarked copy is compiled again first, so its reduction is marked too
    again = superhedge.market_without_option(replace(c), 0)
    assert isinstance(again, CompiledMarket) and model.require_valid(again) is again
    plain = superhedge.market_without_option(m, 0)
    assert type(plain) is MarketModel and plain.options == []
    with pytest.raises(ValueError, match="init=False"):
        replace(c, _checked=True)
    with pytest.raises(TypeError):
        CompiledMarket(c.tree, c.options, c.measures, c.prices, c.children, c.order,
                       c.leaves, c.nonleaf, c.charged, c.columns, c.gain_columns,
                       c.payoff_columns, c.integer_payoffs, c.generator_names, True)
    assert not replace(c)._checked and model.require_valid(replace(c)) is not c


def test_a_reduced_market_keeps_the_payoff_integers_a_fresh_parse_compiles():
    # each option's payoff on the charged leaves, by charged rank, as
    # integers over those entries' lcm; the market less option i drops its
    # entry, as a fresh parse of that market compiles it
    rng = random.Random(17)
    markets = _markets() + [random_arbitrary_market(rng, max_periods=3, max_assets=2)
                            for _ in range(20)]
    reductions = 0
    for m in markets:
        c = model.require_valid(m)
        assert c.integer_payoffs == tuple(
            (tuple(nums), den) for nums, den in
            (lp._over_lcm([opt.payoff[pos] for pos in c.charged]) for opt in m.options))
        for i in range(len(m.options)):
            reduced = superhedge.market_without_option(c, i)
            fresh = _parsed(superhedge.market_without_option(m, i))
            assert reduced.integer_payoffs == fresh.integer_payoffs
            assert reduced.integer_payoffs == c.integer_payoffs[:i] + c.integer_payoffs[i + 1:]
            reductions += 1
    assert reductions > 20


def test_gain_columns_match_per_path_price_differences():
    # each column holds the nonzero per-path price moves of the charged
    # leaves alone, keyed by a leaf's rank among them, ranks ascending
    rng = random.Random(11)
    markets = [random_arbitrage_free_market(rng, min_periods=2) for _ in range(40)]
    markets += [random_arbitrary_market(rng, max_periods=3, max_assets=2) for _ in range(40)]
    partial = 0
    for m in markets:
        # node order in the list is not id order: compile must not rely on it
        nodes = list(m.tree.nodes)
        rng.shuffle(nodes)
        shuffled = replace(m, tree=replace(m.tree, nodes=nodes))
        columns, rows = reference_gain_rows(m)
        charged = sorted({pos for w in m.measures.generators for pos, v in enumerate(w) if v})
        partial += len(charged) < len(rows)
        # the reference on the charged leaves transposed, each column the
        # (rank, move) pairs of its nonzeros
        expected = tuple(tuple((rank, rows[pos][k]) for rank, pos in enumerate(charged)
                               if rows[pos][k])
                         for k in range(len(columns)))
        for market in (m, shuffled):
            c = model.require_valid(market)
            assert (c.columns, c.charged, c.gain_columns) == (columns, tuple(charged), expected)
    assert partial > 15


def _partly_charged(rng, m):
    """m with one generator that charges a random proper subset of its leaves."""
    leaves = len(m.measures.generators[0])
    kept = rng.sample(range(leaves), rng.randint(1, max(1, leaves - 1)))
    weights = [F(1, len(kept)) if pos in kept else F(0) for pos in range(leaves)]
    return replace(m, measures=MeasureFamily([weights]))


def test_face_rows_are_increasing_nonzero_pairs_that_densify_to_the_oracle_face():
    # every face row, and so every program row, is a tuple of (column,
    # value) pairs over the charged leaves alone, columns increasing and
    # values nonzero; densified, the face is the oracle's, built from the tree;
    # each martingale row is its compiled gain column tuple itself, shared
    rng = random.Random(31)
    markets = [_partly_charged(rng, random_arbitrage_free_market(rng, min_periods=2))
               for _ in range(30)]
    markets += [_partly_charged(rng, random_arbitrary_market(rng, max_periods=3, max_assets=2))
                for _ in range(30)]
    while len(markets) < 80:  # partly charged by their own generators
        m = random_arbitrary_market(rng, max_periods=3, max_assets=2)
        if len(model.support(m)) < len(model.require_valid(m).leaves):
            markets.append(m)
    partial = shared = 0
    for m in markets:
        c = model.require_valid(m)
        partial += len(c.charged) < len(c.leaves)
        face, layout, _ = arbitrage._face(c)
        for row, (kind, col) in zip(face.rows, layout):
            if kind == "martingale":
                assert row is c.gain_columns[col]
                shared += 1
        width = len(c.charged)
        for row in face.rows:
            assert type(row) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in row)
            columns = [j for j, _ in row]
            assert columns == sorted(set(columns)) and all(0 <= j < width for j in columns), row
            assert all(v for _, v in row), row
        expected = dense_face(m)
        assert dense_rows(face.rows, width) == [coefs for coefs, _, _ in expected]
        assert (face.relations, face.rhs) == ([rel for _, rel, _ in expected],
                                              [bound for _, _, bound in expected])
    assert partial > 70 and shared > 200


def test_payoff_columns_are_the_face_quote_rows_and_drop_with_their_option():
    # each option's column of [1 | G | P] holds its nonzero payoffs on the
    # charged leaves alone, keyed by a leaf's rank among them; each quote
    # row of the face is that tuple itself, and the market less option i
    # holds the columns a fresh parse of that market compiles
    rng = random.Random(44)
    markets = [_partly_charged(rng, random_arbitrary_market(rng, max_periods=3, max_assets=2))
               for _ in range(30)] + _markets()
    partial = shared = reductions = 0
    for m in markets:
        c = model.require_valid(m)
        partial += len(c.charged) < len(c.leaves)
        assert c.payoff_columns == tuple(
            tuple((rank, opt.payoff[pos]) for rank, pos in enumerate(c.charged) if opt.payoff[pos])
            for opt in m.options)
        face, layout, _ = arbitrage._face(c)
        for row, (kind, i) in zip(face.rows, layout):
            if kind == "option":
                assert row is c.payoff_columns[i]
                shared += 1
        for i in range(len(m.options)):
            reduced = superhedge.market_without_option(c, i)
            fresh = _parsed(superhedge.market_without_option(m, i))
            assert reduced.payoff_columns == fresh.payoff_columns
            reductions += 1
    assert partial > 20 and shared > 30 and reductions > 20, (partial, shared, reductions)


@pytest.mark.parametrize("periods", range(1, 11))
def test_gain_columns_hold_one_entry_per_path_edge(periods):
    # a binomial ladder's 2^p leaves each have a path of p edges, each with a
    # nonzero move: 2^p * p entries, where a dense layout held 2^p (2^p - 1);
    # with every down step flat, only the up edges hold one, p * 2^(p - 1)
    m = ladder_market(2, periods)
    assert sum(map(len, model.require_valid(m).gain_columns)) == 2 ** periods * periods
    prices = {}
    nodes = []
    for node in m.tree.nodes:  # ids ascending, each after its parent; up children are odd
        price = F(1) if node.parent is None else prices[node.parent] * (2 if node.id % 2 else 1)
        prices[node.id] = price
        nodes.append(replace(node, prices=[price]))
    flat = model.require_valid(replace(m, tree=replace(m.tree, nodes=nodes)))
    assert sum(map(len, flat.gain_columns)) == periods * 2 ** (periods - 1)


def test_sharper_ftap_solves_one_program_and_one_elimination(monkeypatch):
    # the robust program settles the market when robust no-arbitrage holds;
    # where it fails, the no-arbitrage program gives the arbitrage, which is
    # the same program without a spread option and one more solve with one;
    # every spread option is decided from one reduced row-echelon form of
    # [1 | G | P], which is skipped when no option has a spread, and a warm
    # call solves and eliminates nothing
    solves = _Counter(monkeypatch, lp, "solve_lp")
    eliminations = _Counter(monkeypatch, redundancy, "_reduce")
    # a non-redundant spread option bid above its largest payoff
    overbid = stockless_market(
        2, [OptionQuote("digital", [F(0), F(1)], F(3, 2), F(2))], [[F(1), F(0)], [F(0), F(1)]]
    )
    kinds = {"settled": 0, "arbitrage": 0, "spread arbitrage": 0}
    for m in _markets() + [overbid]:
        c = model.require_valid(m)
        before, eliminated = solves.calls, eliminations.calls
        try:
            bundle = redundancy.sharper_ftap(c)
        except PreconditionError:
            continue
        spread = any(opt.has_spread() for opt in m.options)
        assert solves.calls - before == (2 if spread and not bundle.na.holds else 1)
        assert eliminations.calls - eliminated == (1 if spread else 0)
        before, eliminated = solves.calls, eliminations.calls
        assert redundancy.sharper_ftap(c) == bundle
        assert (solves.calls, eliminations.calls) == (before, eliminated)
        if bundle.na.holds:
            assert len(bundle.dominating) == len(m.measures.generators)
            kinds["settled"] += 1
        else:
            assert arbitrage.verify_na_certificate(m, bundle.na.certificate)
            kinds["spread arbitrage" if spread else "arbitrage"] += 1
    assert kinds == {"settled": 8, "arbitrage": 1, "spread arbitrage": 1}, kinds


@pytest.mark.parametrize("query", ["superhedge_price", "duality_report"])
def test_pricing_solves_one_program(monkeypatch, query):
    # the hedge is read off the measure program's multipliers, so both sides
    # of the duality come from a single solve, also when arbitrage is raised
    solves = _Counter(monkeypatch, lp, "solve_lp")
    rng = random.Random(query)
    for m in _markets():
        before = solves.calls
        try:
            QUERIES[query](m, random_claim(rng, m))
        except HedgecertError:
            pass
        assert solves.calls - before == 1, query


def test_strict_dual_verify_solves_the_dual_once(monkeypatch, tmp_path, capsys):
    duals = _Counter(monkeypatch, superhedge, "dual_price")
    rng = random.Random(5)
    commands = 0
    for k, m in enumerate(_markets()):
        if not arbitrage.check_nar(m).holds:
            continue
        market, claim = tmp_path / f"m{k}.json", tmp_path / f"f{k}.json"
        market.write_text(marketio.dump_market(m))
        claim.write_text(json.dumps(marketio.claim_to_json(m, random_claim(rng, m))))
        before = duals.calls
        argv = ["strict-dual", str(market), "--claim", str(claim), "--eps", "1/100", "--verify"]
        assert cli.main(argv) == 0
        assert duals.calls - before == 1
        commands += 1
    capsys.readouterr()
    assert commands >= 4


class _ParserCounter:
    """Counts `argparse.ArgumentParser.__init__` runs, subparsers included."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            self.calls += 1
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)


def _cli_commands(tmp_path):
    """One argv per subcommand, with --verify, on a small arbitrage-free market."""
    m = random_arbitrage_free_market(random.Random(2), min_periods=2)
    market, claim = tmp_path / "m.json", tmp_path / "f.json"
    market.write_text(marketio.dump_market(m))
    claim.write_text(json.dumps(marketio.claim_to_json(m, random_claim(random.Random(2), m))))
    extra = {
        "superhedge": ["--claim", str(claim)],
        "dual": ["--claim", str(claim)],
        "bounds": ["--option", m.options[0].name],
        "dominate": ["--generator", (m.measures.names or ["P0"])[0]],
        "strict-dual": ["--claim", str(claim), "--eps", "1/100"],
    }
    commands = ["check-na", "check-nar", "superhedge", "dual", "bounds", "redundancy",
                "sharper-ftap", "dominate", "strict-dual"]
    return [[command, str(market), *extra.get(command, []), "--verify"] for command in commands]


def test_cli_builds_its_parser_once_per_process(monkeypatch, tmp_path, capsys):
    commands = _cli_commands(tmp_path)
    cli.main(commands[0])
    parsers = _ParserCounter(monkeypatch)
    for k in range(20):
        cli.main(commands[k % len(commands)])
    capsys.readouterr()
    assert parsers.calls == 0
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import argparse\n"
        "built = []\n"
        "original = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), original(self, *a, **k))[1]\n"
        "import hedgecert.cli\n"
        "print(len(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr


def test_each_cli_command_validates_its_market_once(monkeypatch, tmp_path, capsys):
    # parse_market validates and compiles; every query and replay after it
    # reads the compiled market it returns
    validations = _Counter(monkeypatch, model, "validate_market")
    compiles = _Counter(monkeypatch, model, "_compile")
    monkeypatch.setattr(marketio, "validate_market", model.validate_market)
    monkeypatch.setattr(marketio, "_compile", model._compile)
    for argv in _cli_commands(tmp_path):
        before = (validations.calls, compiles.calls)
        assert cli.main(argv) in (0, 3)
        assert (validations.calls - before[0], compiles.calls - before[1]) == (1, 1), argv[0]
    capsys.readouterr()
