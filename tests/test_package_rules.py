"""Every rule of tests/package_rules.py reports its mutations of a copy of
src/hedgecert/, line for line, and the untouched copy reports nothing.

A mutation inserts one line before the one line of a module that holds an
anchor, indented as that line. Unless a message names a text, it is
reported at the inserted line; one that names a text is reported at the
line of the mutated module that holds it.
"""

import collections
import pathlib
import shutil

import pytest

import package_rules

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hedgecert"
Mutation = collections.namedtuple("Mutation", "rule module anchor line messages")
SOLVE = "return _solve(c, [f.payoff[pos]"  # in superhedge._solve_pricing
HEDGE = "phase1, layout, ray = _face(c)"  # in arbitrage._hedge
REPLICATIONS = 'replications, nb = _kept(c, "_replications"'  # in redundancy._replications
FIELD = "payoff_columns: tuple["  # in model.CompiledMarket
MUTATIONS = (
    Mutation("unused import", "model.py", "import threading", "import os",
             ["os imported but unused"]),
    Mutation("unbound annotation name", "lp.py", "def _dot(a, b)", "spare: Foo = None",
             ["annotation names Foo, which nothing binds"]),
    Mutation("dead private code", "errors.py", "class SoundnessError", "def _never(): pass",
             ["private _never is never used"]),
    Mutation("solver use outside lp.py and arbitrage.py", "superhedge.py", SOLVE, "lp.solve_lp(None)",
             ["solve_lp used outside lp.py and arbitrage.py, which alone build and solve programs"]),
    # an annotation is not a use
    Mutation("solver use outside lp.py and arbitrage.py", "superhedge.py", "def _solve_pricing(",
             "def probe(p: lp.LpProblem) -> None: pass", []),
    Mutation("program solved outside _solve", "arbitrage.py", HEDGE, "lp.solve_lp(out)",
             ["solve_lp used in _hedge; only _solve may use it"]),
    Mutation("program solved outside _solve", "arbitrage.py", HEDGE, "out.program",
             ["program used in _hedge; only _solve may use it"]),
    Mutation("program built outside _face", "arbitrage.py", HEDGE, "lp.LpProblem([], [], [], [])",
             ["LpProblem used in _hedge; only _face may use it"]),
    Mutation("row read outside lp.py", "superhedge.py", SOLVE, "c.rows",
             [".rows read outside lp.py, the one reader of a program's rows"]),
    Mutation("unread compiled field", "model.py", FIELD, "spare: int = 0",
             ["CompiledMarket field spare is never read in the package"]),
    Mutation("replay of compiled payoffs", "redundancy.py",
             "if type(i) is not int or not 0 <= i < len(c.options):", "c.payoff_columns",
             ["replay verify_replication reads payoff_columns, the compiled state it must check "
              "independently"]),
    # a replay of REPLAYS that no name pattern picks out
    Mutation("replay of compiled payoffs", "arbitrage.py",
             "if not isinstance(q, MartingaleMeasure) or not lp._rational_lists(q.weights, generator)",
             "q.payoff_columns",
             ["replay dominates reads payoff_columns, the compiled state it must check independently"]),
    Mutation("row update outside _pivot", "lp.py", "    seen = set()", "_combine(tab[0], 0, 1, ())",
             ["_combine used in _optimize; only _pivot may update a row"]),
    Mutation("non-init field besides _checked and _state", "model.py", FIELD,
             "_na: tuple = field(default=None, init=False)",
             ["CompiledMarket field _na is never read in the package",
              "CompiledMarket declares the non-init field _na; only _checked and the store, _state, "
              "may be one"]),
    Mutation("kept state written outside _kept", "arbitrage.py", HEDGE, 'c._state["_face"] = None',
             ["store of kept state written in _hedge; only model._kept may write it"]),
    Mutation("kept state written outside _kept", "arbitrage.py", HEDGE,
             'state = c._state; state.setdefault("_face", None)',
             ["store of kept state written in _hedge; only model._kept may write it"]),
    Mutation("kept state written outside _kept", "arbitrage.py", HEDGE,
             'object.__setattr__(c, "_state", {})',
             ["store of kept state written in _hedge; only model._kept may write it"]),
    Mutation("kept entry named by no literal or twice", "redundancy.py", REPLICATIONS,
             '_kept(c, "_face", _replicate)',
             ["_kept entry _face named by a second call; each entry has one builder"]),
    Mutation("kept entry named by no literal or twice", "redundancy.py", REPLICATIONS,
             "_kept(c, str(targets), _replicate)", ["_kept entry named by no string literal"]),
    Mutation("measure built outside _measure", "superhedge.py", "if eps <= 0:",
             "MartingaleMeasure([], [])",
             ["MartingaleMeasure built in _strict_dual; only arbitrage._measure may build a "
              "measure, and _nar_verdict copy a kept one"]),
    Mutation("measure built outside _measure", "arbitrage.py",
             "measure = MartingaleMeasure(list(weights), list(values))",
             "MartingaleMeasure(list(weights), [ONE])",
             ["MartingaleMeasure built in _nar_verdict; only arbitrage._measure may build a "
              "measure, and _nar_verdict copy a kept one"]),
    Mutation("floor program solved outside _floor", "superhedge.py", SOLVE, "_solve(c, [], push=1)",
             ["_solve given a push in _solve_pricing; only arbitrage._floor, which keeps the "
              "outcome, may solve a floor program"]),
    Mutation("floor verdict derived outside _floor", "arbitrage.py",
             "return _nar_verdict(_floor(c, push=1)[1])", "_robustness(c, _solve(c, []))",
             ["_robustness called in check_nar; only the kept floor's build derives a verdict's parts"]),
    Mutation("floor verdict read outside check_na and check_nar", "redundancy.py", REPLICATIONS,
             "arbitrage._floor(c, 1)",
             ["_floor named outside arbitrage.py, where a verdict is read from check_na and "
              "check_nar alone"]),
    Mutation("floor verdict read outside check_na and check_nar", "redundancy.py",
             "from .errors import PreconditionError", "from .arbitrage import _na_verdict",
             ["_na_verdict imported but unused",
              "_na_verdict named outside arbitrage.py, where a verdict is read from check_na and "
              "check_nar alone"]),
    Mutation("Farkas vector read outside _face", "arbitrage.py", HEDGE, "out.farkas",
             [".farkas read in _hedge; only arbitrage._face, which keeps the ray, may read a "
              "Farkas vector"]),
    Mutation("duals derived before they are read", "lp.py",
             "if not isinstance(p, LpProblem) or p.phase1 is None:", "_duals(None, (), 1)",
             ["_duals used outside a partial and _Phase1.__init__; an outcome's duals are derived "
              "only when read"]),
    Mutation("report printed at more than main's one site", "cli.py", '_emit_error("arbitrage", exc)',
             "_print_report({}, False)",
             ["_print_report named in _failure; main alone prints a report, at one site",
              ("_print_report(report, args.pretty)",
               "_print_report named in main; main alone prints a report, at one site")]),
    Mutation("arbitrage error emitted outside _failure", "cli.py", "verdict = arbitrage.check_na(m)",
             '_emit_error("arbitrage", None)',
             ["arbitrage error emitted in _cmd_check_na; only _failure reports a raised arbitrage "
              "failure"]),
)


def mutate(source, anchor, line):
    """The source with line inserted before the one line holding anchor, and
    the inserted line's number."""
    lines = source.splitlines(keepends=True)
    at = [i for i, text in enumerate(lines) if anchor in text]
    assert len(at) == 1, f"{anchor!r} is on {len(at)} lines"
    indent = lines[at[0]][:len(lines[at[0]]) - len(lines[at[0]].lstrip())]
    lines.insert(at[0], indent + line + "\n")
    return "".join(lines), at[0] + 1


@pytest.fixture(scope="module")
def copy(tmp_path_factory):
    """One copy of the package for every mutation, so the checker surveys
    again only the module a mutation changed."""
    root = tmp_path_factory.mktemp("src") / "hedgecert"
    shutil.copytree(SRC, root)
    return root


def test_the_untouched_copy_breaks_no_rule(copy):
    assert package_rules.check(copy) == []


def test_every_rule_has_a_mutation():
    names = [rule.name for rule in package_rules.RULES]
    assert len(set(names)) == len(names)
    assert {m.rule for m in MUTATIONS} == set(names)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: f"{m.rule}: {m.line}")
def test_each_mutation_breaks_its_rule_line_for_line(copy, mutation):
    path = copy / mutation.module
    source = path.read_text(encoding="utf-8")
    mutated, line = mutate(source, mutation.anchor, mutation.line)
    lines = mutated.splitlines()
    expected = []
    for message in mutation.messages:
        if isinstance(message, tuple):
            text, message = message
            [number] = [i + 1 for i, held in enumerate(lines) if text in held]
        else:
            number = line
        expected.append(f"{path}:{number}: {message}")
    path.write_text(mutated, encoding="utf-8")
    try:
        assert package_rules.check(copy) == expected
    finally:
        path.write_text(source, encoding="utf-8")
