"""One phase 1 per market: every measure program of a compiled market starts
phase 2 from the phase 1 of their shared t = 0 face (`lp.Phase1`).

Warm outcomes are checked against a cold `solve_lp` of the same problem (no
stored phase 1): the pricing and push-0 programs equal it field for field,
because the floor column of push 0 never enters phase 1 (its reduced cost is
the sum of the leaf columns'); the push-1 program may end at another optimal
basis, so it matches in status and value and both outcomes replay. A stored
phase 1 that does not fit a problem is a StructureError, never an answer.
"""

import copy
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from hedgecert import arbitrage, cli, lp, superhedge
from hedgecert.errors import StructureError
from hedgecert.marketio import dump_market, market_to_json, parse_market
from hedgecert.model import ONE, ZERO, Claim, require_valid
from markets import (
    binomial_with_free_option,
    binomial_with_spread_option,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_lp,
    random_rational,
)


def _random_markets(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        maker = random_arbitrary_market if k % 2 else random_arbitrage_free_market
        yield rng, require_valid(maker(rng))


def _programs(rng, c):
    """(name, objective, push) of the measure programs a market solves."""
    floor = [ZERO] * len(c.charged) + [ONE]
    programs = [("push 0", floor, 0), ("push 1", floor, 1),
                ("pricing", [random_rational(rng, -3, 3) for _ in c.charged], None)]
    rng.shuffle(programs)  # any of them may be the one that builds phase 1
    return programs


def _cold(problem):
    return lp.solve_lp(replace(problem, phase1=None))


def _state(phase1):
    std = phase1.std and (phase1.std.rows, phase1.std.scale)
    return copy.deepcopy((std, phase1.tab, phase1.basis, phase1.farkas))


def test_warm_outcomes_match_a_cold_solve_of_the_same_problem():
    statuses = set()
    for rng, c in _random_markets(11, 240):
        built = None
        for name, objective, push in _programs(rng, c):
            problem, _, warm = arbitrage._solve(c, objective, push)
            assert problem.phase1 is c._phase1 is not None
            built = built or _state(c._phase1)
            assert _state(c._phase1) == built  # every phase 2 works on a copy
            cold = _cold(problem)
            assert lp.verify_certificate(problem, warm), name
            statuses.add((name, warm.status))
            if push == 1:
                assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value)
                assert lp.verify_certificate(problem, cold)
            else:
                assert warm == cold, name
    assert statuses == {(name, status) for name in ("push 0", "push 1", "pricing")
                        for status in (lp.OPTIMAL, lp.INFEASIBLE)}


def test_an_infeasible_face_gives_every_program_a_fresh_farkas_vector_that_replays():
    c = require_valid(binomial_with_free_option())
    solved = [arbitrage._solve(c, objective, push) for _, objective, push
              in _programs(random.Random(3), c)]
    outcomes = [out for _, _, out in solved]
    assert all(out.status == lp.INFEASIBLE for out in outcomes)
    assert all(out.farkas == c._phase1.farkas for out in outcomes)
    assert len({id(out.farkas) for out in outcomes} | {id(c._phase1.farkas)}) == 4
    for problem, _, out in solved:
        assert lp.verify_certificate(problem, out)
    outcomes[0].farkas[0] += 1  # a caller's edit reaches no other outcome
    assert outcomes[1].farkas == c._phase1.farkas


def test_infeasible_faces_of_random_markets_replay_against_every_program():
    infeasible = 0
    for rng, c in _random_markets(12, 160):
        programs = _programs(rng, c)
        arbitrage._solve(c, *programs[0][1:])
        if c._phase1.farkas is None:
            continue
        infeasible += 1
        for _, objective, push in programs:
            problem, _, out = arbitrage._solve(c, objective, push)
            assert out.status == lp.INFEASIBLE and out.farkas == c._phase1.farkas
            assert lp.verify_certificate(problem, out)
    assert infeasible > 20


def _with_late(rng, face, count):
    """face with `count` late columns, each the face's column sum plus a
    random nonnegative integer multiple of every slack column, and a random
    objective."""
    rows = [list(row) for row in face.rows]
    for _ in range(count):
        for row, rel in zip(rows, face.relations):
            mu = rng.choice((0, 0, 1, 2)) if rel != lp.EQ else 0
            row.append(sum(row[:len(face.objective)], ZERO) + (mu if rel == lp.LE else -mu))
    objective = [random_rational(rng, -3, 3) for _ in range(len(rows[0]) if rows else
                                                            len(face.objective) + count)]
    return lp.LpProblem(objective, rows, list(face.relations), list(face.rhs))


def test_late_columns_of_random_programs_keep_status_and_value():
    # phase 1s built on the face alone or on a problem with two late
    # columns, used by problems with 0, 1 or 2 late columns: the late
    # columns move up or down past the slack columns, rows with a negative
    # rhs are negated in the standard form, and the answers are a cold
    # solve's
    rng = random.Random(14)
    statuses = set()
    for _ in range(300):
        face = random_lp(rng)
        builder = face if rng.random() < 0.5 else _with_late(rng, face, 2)
        phase1 = lp.phase_one(builder, len(face.objective))
        for count in (0, 1, 2):
            p = _with_late(rng, face, count)
            warm = lp.solve_lp(replace(p, phase1=phase1))
            cold = lp.solve_lp(p)
            assert lp.verify_certificate(p, warm)
            assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value)
            statuses.add(warm.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def _face_and_floor():
    """A phase 1 of the robust program's face, and that program."""
    c = require_valid(binomial_with_spread_option())
    problem, _ = arbitrage._consistency_rows(c, [ZERO] * len(c.charged) + [ONE], push=1)
    return lp.phase_one(problem, len(c.charged)), problem


def test_a_late_column_that_cannot_be_derived_is_structural():
    phase1, problem = _face_and_floor()
    assert lp.solve_lp(replace(problem, phase1=phase1)).status == lp.OPTIMAL
    relations = problem.relations
    eq = relations.index(lp.EQ)
    ge, le = relations.index(lp.GE), relations.index(lp.LE)
    # the floor column is the leaf sum on = rows, one below it on the >= row
    # and one above on the <= row: off the sum on an = row, a negative
    # multiple of a slack column, or a fractional one
    for row, delta in [(eq, ONE), (ge, F(2)), (le, F(-2)), (le, F(-1, 2))]:
        rows = [list(r) for r in problem.rows]
        rows[row][-1] += delta
        bad = replace(problem, rows=rows, phase1=phase1)
        with pytest.raises(StructureError, match=f"rows\\[{row}\\]"):
            lp.solve_lp(bad)
        lp.solve_lp(replace(bad, phase1=None))  # the problem itself is fine


def test_a_phase_one_of_another_problem_is_structural():
    phase1, problem = _face_and_floor()
    le = problem.relations.index(lp.LE)
    rows = [list(r) for r in problem.rows]
    rows[0][0] += 1
    variants = {
        "row count": replace(problem, rows=problem.rows[:-1], relations=problem.relations[:-1],
                             rhs=problem.rhs[:-1]),
        "relations": replace(problem, relations=[lp.GE if r == lp.LE else r
                                                 for r in problem.relations]),
        "rhs": replace(problem, rhs=[b + (k == le) for k, b in enumerate(problem.rhs)]),
        "face": replace(problem, rows=rows),
        "columns": replace(problem, objective=problem.objective[:1],
                           rows=[r[:1] for r in problem.rows]),
    }
    for what, p in variants.items():
        with pytest.raises(StructureError):
            lp.solve_lp(replace(p, phase1=phase1))
        lp.solve_lp(p)  # a cold solve of the same problem raises nothing
    with pytest.raises(StructureError, match="not a Phase1"):
        lp.solve_lp(replace(problem, phase1="phase 1"))
    with pytest.raises(StructureError):
        lp.phase_one(problem, len(problem.objective) + 1)


def test_each_market_runs_phase_one_once(monkeypatch, tmp_path, capsys):
    built = []
    original = lp.phase_one

    def counted(problem, nvars=None):
        built.append(len(problem.rows))
        return original(problem, nvars)

    monkeypatch.setattr(lp, "phase_one", counted)
    c = require_valid(binomial_with_spread_option())
    arbitrage.check_na(c)
    arbitrage.check_nar(c)
    superhedge.claim_price_bounds(c, Claim([F(1), F(0)]))
    assert len(built) == 1
    # `bounds` in a fresh parse: the robust program and both pricing
    # programs of the market less the option share one phase 1
    path = tmp_path / "m.json"
    path.write_text(dump_market(c))
    built.clear()
    assert cli.main(["bounds", str(path), "--option", "digital", "--verify"]) == 0
    assert '"lower":"1/3","upper":"1/3"' in capsys.readouterr().out
    assert len(built) == 1


def test_a_reduced_market_builds_its_own_phase_one(monkeypatch):
    original = lp.solve_lp

    def cold(problem):
        return original(replace(problem, phase1=None))

    def bounds(m, i):
        try:
            return superhedge.price_bounds_excluding(m, i)
        except Exception as exc:  # the reduced market may fail robust no-arbitrage
            return type(exc)

    checked = 0
    for rng, c in _random_markets(13, 80):
        if not c.options:
            continue
        arbitrage.check_nar(c)  # the full market's phase 1 is built
        for i in range(len(c.options)):
            reduced = superhedge.market_without_option(c, i)
            assert reduced._phase1 is None
            warm = bounds(c, i)
            # cold: a fresh parse of the same market, every solve without a phase 1
            with monkeypatch.context() as patch:
                patch.setattr(lp, "solve_lp", cold)
                assert bounds(parse_market(dump_market(c)), i) == warm
            checked += isinstance(warm, tuple)
    assert checked > 20


def test_the_stored_phase_one_reaches_no_comparison_repr_or_file():
    warm = parse_market(dump_market(binomial_with_spread_option()))
    fresh = parse_market(dump_market(warm))
    arbitrage.check_nar(warm)
    assert warm._phase1 is not None and fresh._phase1 is None
    assert warm == fresh
    assert repr(warm) == repr(fresh) and "phase1" not in repr(warm)
    assert market_to_json(warm) == market_to_json(fresh)
    assert dump_market(warm) == dump_market(fresh)
    problem, _, _ = arbitrage._solve(warm, [ZERO] * len(warm.charged) + [ONE], 1)
    assert problem == replace(problem, phase1=None)
    assert "phase1" not in repr(problem)
