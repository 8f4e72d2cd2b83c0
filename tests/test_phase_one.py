"""One phase 1 per market: every measure program of a compiled market is
built by the phase 1 of their shared t = 0 face (`lp._Phase1.program`) and
starts phase 2 from it.

Warm outcomes are checked against a cold solve of the same problem (built
by a fresh phase 1 of its own, `markets.routed`): the pricing and push-0
programs equal it field for field, because the floor column of push 0 never
enters phase 1 (its reduced cost is the sum of the leaf columns'); the
push-1 program may end at another optimal basis, so it matches in status and
value and both outcomes replay. Only `_Phase1.program` sets a route, so no
problem can start phase 2 from a face it does not match, and `solve_lp`
refuses a problem without one.
"""

import copy
import dataclasses
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from concurrency import run_together, slow_phase_one
from hedgecert import arbitrage, cli, lp, redundancy, superhedge
from hedgecert.errors import StructureError
from hedgecert.marketio import dump_market, market_to_json, parse_market
from hedgecert.model import ONE, ZERO, Claim, require_valid
from markets import (
    binomial_with_free_option,
    binomial_with_spread_option,
    dense_rows,
    ladder_market,
    measure_program,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_lp,
    random_rational,
    routed,
    sparse_rows,
    trinomial_straddle_market,
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
    rng.shuffle(programs)  # any of them may be the one that builds the face
    return programs


def _cold(problem):
    return lp.solve_lp(routed(problem))


def _phase1(c):
    return c._state["_face"][0]


def _state(phase1):
    return copy.deepcopy((phase1.inverse, phase1.tab, phase1.basis, phase1.farkas))


def test_warm_outcomes_match_a_cold_solve_of_the_same_problem():
    statuses = set()
    for rng, c in _random_markets(11, 240):
        built = None
        for name, objective, push in _programs(rng, c):
            problem, warm = measure_program(c, objective, push)
            assert problem.phase1 == (_phase1(c), push) and _phase1(c) is not None
            built = built or _state(_phase1(c))
            assert _state(_phase1(c)) == built  # every phase 2 works on a copy
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
    solved = [measure_program(c, objective, push) for _, objective, push
              in _programs(random.Random(3), c)]
    outcomes = [out for _, out in solved]
    farkas = _phase1(c).farkas
    assert all(out.status == lp.INFEASIBLE for out in outcomes)
    assert all(out.farkas == farkas for out in outcomes)
    assert len({id(out.farkas) for out in outcomes} | {id(farkas)}) == 4
    for problem, out in solved:
        assert lp.verify_certificate(problem, out)
    outcomes[0].farkas[0] += 1  # a caller's edit reaches no other outcome
    assert outcomes[1].farkas == farkas


def test_infeasible_faces_of_random_markets_replay_against_every_program():
    infeasible = 0
    for rng, c in _random_markets(12, 160):
        programs = _programs(rng, c)
        arbitrage._solve(c, *programs[0][1:])
        if _phase1(c).farkas is None:
            continue
        infeasible += 1
        for _, objective, push in programs:
            problem, out = measure_program(c, objective, push)
            assert out.status == lp.INFEASIBLE and out.farkas == _phase1(c).farkas
            assert lp.verify_certificate(problem, out)
    assert infeasible > 20


def test_late_columns_of_random_programs_keep_status_and_value():
    # every program of a random face, on its own columns or with the late
    # column of mu 0, 1 or 2, against a cold solve of the same problem:
    # rows with a negative rhs are negated in the standard form, the late
    # column moves the slack columns up by one, and a late column on an
    # infeasible face keeps its Farkas vector
    rng = random.Random(14)
    statuses = set()
    for _ in range(300):
        face = lp._Phase1(random_lp(rng))
        for mu in (None, 0, 1, 2):
            width = face.n + (mu is not None)
            p = face.program([random_rational(rng, -3, 3) for _ in range(width)], mu)
            assert p.phase1 == (face, mu) and p.rows is face.rows
            assert p.relations is face.relations and p.rhs is face.rhs
            warm = lp.solve_lp(p)
            cold = _cold(p)
            assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value)
            assert lp.verify_certificate(p, warm) and lp.verify_certificate(p, cold)
            if mu is None:
                assert warm == cold  # the same phase 1, the same pivots
            statuses.add(warm.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_the_optimal_value_off_the_cost_row_is_the_objective_at_the_primal():
    # phase 2 reads the optimal value off its cost row, never summing c . x;
    # on pricing objectives with negative entries, with no late column or
    # the late column of push 0, 1 or 2, it is the dot product exactly
    optimal = 0
    for rng, c in _random_markets(15, 120):
        for push in (None, 0, 1, 2):
            width = len(c.charged) + (push is not None)
            objective = [random_rational(rng, -3, 3) for _ in range(width)]
            problem, out = measure_program(c, objective, push)
            if out.status == lp.OPTIMAL:
                optimal += 1
                assert type(out.objective_value) is F
                assert out.objective_value == lp._dot(problem.objective, out.primal)
    rng = random.Random(16)
    for _ in range(200):
        face = lp._Phase1(random_lp(rng))
        for mu in (None, 0, 1, 2):
            width = face.n + (mu is not None)
            p = face.program([random_rational(rng, -3, 3) for _ in range(width)], mu)
            out = lp.solve_lp(p)
            if out.status == lp.OPTIMAL:
                optimal += 1
                assert out.objective_value == lp._dot(p.objective, out.primal)
    assert optimal > 400


def _face_and_floor():
    """The robust program's phase 1 and that program."""
    c = require_valid(binomial_with_spread_option())
    problem, _ = measure_program(c, [ZERO] * len(c.charged) + [ONE], push=1)
    return problem.phase1[0], problem


def test_a_copy_of_a_program_has_no_route_and_is_refused():
    # a late column is only ever one a route derives: the face's rows or a
    # copy of them, the program's full rows (`lp._program_rows`) or the
    # floor column of another push written by hand, each in a problem no
    # face built, is one the kernel refuses and its replay rejects
    phase1, problem = _face_and_floor()
    out = lp.solve_lp(problem)
    assert out.status == lp.OPTIMAL and lp.verify_certificate(problem, out)
    full = lp._program_rows(problem)
    offset = {lp.EQ: 0, lp.GE: -1, lp.LE: 1}
    push2 = sparse_rows([*row, sum(row, ZERO) + 2 * offset[rel]]
                        for row, rel in zip(dense_rows(problem.rows, phase1.n), problem.relations))
    assert push2 == lp._program_rows(phase1.program(problem.objective, 2))
    for rows in (problem.rows, copy.deepcopy(problem.rows), list(problem.rows), full, push2):
        bad = replace(problem, rows=rows)
        assert bad.phase1 is None
        with pytest.raises(StructureError, match="LpProblem with no route"):
            lp.solve_lp(bad)
        assert lp.verify_certificate(bad, out) is False
    # no field is reassigned, and no copy is given a route
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.rows = push2
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.phase1 = (phase1, 2)
    with pytest.raises(ValueError, match="init=False"):
        replace(problem, phase1=(phase1, 2))
    with pytest.raises(TypeError):
        lp.LpProblem(problem.objective, problem.rows, problem.relations, problem.rhs, (phase1, 1))


def test_every_program_shares_the_face_rows():
    # whatever its mu, a program is the face's own lists and its route; a
    # push's late column is derived, one entry past each face row
    phase1, problem = _face_and_floor()
    objective = [ZERO] * phase1.n + [ONE]
    programs = [problem, phase1.program([ONE] * (phase1.n + 1), 1),
                *(phase1.program(objective, mu) for mu in (0, 1, 2)),
                phase1.program(objective[:-1])]
    assert [p.phase1 for p in programs] == [(phase1, mu) for mu in (1, 1, 0, 1, 2, None)]
    for p in programs:
        assert p.rows is phase1.rows and p.relations is phase1.relations and p.rhs is phase1.rhs
        full, width = lp._program_rows(p), len(p.objective)
        # each full row is its face row's pairs, then at most the late pair, all inside the width
        assert [row[:len(face)] for row, face in zip(full, phase1.rows)] == phase1.rows
        assert all(0 <= j < width and v for row in full for j, v in row)
        assert [row[:phase1.n] for row in dense_rows(full, width)] == dense_rows(phase1.rows, phase1.n)
        assert lp.solve_lp(p).status == lp.OPTIMAL
    assert lp._program_rows(programs[-1]) is phase1.rows


def test_building_and_solving_programs_writes_nothing_to_the_face(monkeypatch):
    # once built, a face is read-only: the five queries, a push-1 program,
    # which on this face without a spread option no query solves (push 1
    # reads push 0's kept outcome), and a program of a push no query uses,
    # leave every attribute the same object holding the same values, and
    # every program they build is on the face's own rows. The face is built
    # with no program solved, so the queries solve push 0 while recorded
    c = require_valid(trinomial_straddle_market())
    phase1 = arbitrage._face(c)[0]
    assert "_na" not in c._state and "_nar" not in c._state
    attributes = dict(vars(phase1))
    values = copy.deepcopy(attributes)
    assert phase1.tab is not None and phase1.tab_sums is not None
    programs, solve = [], lp.solve_lp

    def recorded(problem):
        programs.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve_lp", recorded)
    claim = Claim([F(1), F(0), F(1)])
    assert arbitrage.check_na(c).holds and arbitrage.check_nar(c).holds
    assert superhedge.superhedge_price(c, claim)[0] == superhedge.dual_price(c, claim)[0]
    assert redundancy.sharper_ftap(c).na.holds
    assert lp.solve_lp(phase1.program([ZERO] * phase1.n + [ONE], 1)).status == lp.OPTIMAL
    programs.append(phase1.program([ONE] * (phase1.n + 1), 2))
    assert vars(phase1).keys() == attributes.keys()
    assert all(vars(phase1)[name] is value for name, value in attributes.items())
    assert vars(phase1) == values
    assert {p.phase1[1] for p in programs} == {None, 0, 1, 2}
    assert all(p.phase1[0] is phase1 and p.rows is phase1.rows for p in programs)


def test_each_market_runs_phase_one_once(monkeypatch, tmp_path, capsys):
    built = []

    class Counted(lp._Phase1):
        def __init__(self, problem):
            built.append(len(problem.rows))
            super().__init__(problem)

    monkeypatch.setattr(lp, "_Phase1", Counted)
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
        return original(routed(problem))

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
            assert "_face" not in reduced._state
            warm = bounds(c, i)
            # cold: a fresh parse of the same market, every solve without a phase 1
            with monkeypatch.context() as patch:
                patch.setattr(lp, "solve_lp", cold)
                assert bounds(parse_market(dump_market(c)), i) == warm
            checked += isinstance(warm, tuple)
    assert checked > 20


def _queries(c, claim):
    """The four queries on one market, each answer or the error it raised."""
    def answer(query, *args):
        try:
            return query(c, *args)
        except Exception as exc:  # a market may admit arbitrage
            return type(exc), str(exc)

    return [lambda: answer(arbitrage.check_na), lambda: answer(arbitrage.check_nar),
            lambda: answer(superhedge.dual_price, claim),
            lambda: answer(superhedge.superhedge_price, claim)]


def test_four_threads_on_one_fresh_market_get_the_sequential_answers():
    # thread i runs the four queries from the i-th on: every thread may
    # find the face unbuilt, and all of them build programs on one face
    rng = random.Random(15)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(24):
            maker = random_arbitrary_market if k % 2 else random_arbitrage_free_market
            m = maker(rng)
            text, claim = dump_market(require_valid(m)), random_claim(rng, m)
            expected = [query() for query in _queries(parse_market(text), claim)]
            c = parse_market(text)
            queries = _queries(c, claim)
            answers = run_together(4, lambda i: [queries[(i + j) % 4]() for j in range(4)])
            assert answers == [expected[i:] + expected[:i] for i in range(4)], k
            assert "_face" in c._state
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_queries_on_one_market_run_one_phase_one(monkeypatch):
    # a slow phase 1 keeps every thread's first query in flight together:
    # each finds the face unbuilt, and all but one must wait for that one
    claim = Claim([F(1), F(0)])
    expected = [query() for query in _queries(require_valid(binomial_with_spread_option()), claim)]
    calls = slow_phase_one(monkeypatch)
    c = require_valid(binomial_with_spread_option())
    queries = _queries(c, claim)
    answers = run_together(4, lambda i: queries[i]())
    assert len(calls) == 1
    assert answers == expected


def test_threads_that_build_programs_at_once_share_the_face_rows():
    rng = random.Random(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            face = lp._Phase1(random_lp(rng, max_vars=40, max_rows=40))
            objective = [ONE] * (face.n + 1)
            problems = run_together(4, lambda i: face.program(objective, 1))
            assert all(p.rows is face.rows and p.phase1 == (face, 1) for p in problems)
            assert len({lp.solve_lp(p).status for p in problems}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_the_stored_phase_one_reaches_no_comparison_repr_or_file():
    # nor do the kept option replications
    warm = parse_market(dump_market(binomial_with_spread_option()))
    fresh = parse_market(dump_market(warm))
    arbitrage.check_nar(warm)
    redundancy.all_spread_options_nonredundant(warm)
    assert "_face" in warm._state and "_face" not in fresh._state
    assert "_replications" in warm._state and "_replications" not in fresh._state
    assert warm == fresh
    assert repr(warm) == repr(fresh)
    assert "_state" not in repr(warm) and "_face" not in repr(warm)
    assert market_to_json(warm) == market_to_json(fresh)
    assert dump_market(warm) == dump_market(fresh)
    problem, _ = measure_program(warm, [ZERO] * len(warm.charged) + [ONE], 1)
    assert problem == replace(problem) and replace(problem).phase1 is None
    assert "phase1" not in repr(problem)


def test_phase_one_of_the_64_leaf_binomial_face_makes_at_most_1000_row_updates(monkeypatch):
    # Bland's rule from an all-artificial basis makes 4042 row updates on
    # this face; from the crash basis, 962
    combine, phase_one = lp._combine, lp._phase_one
    counts = []

    def counted(*args):
        counts[-1] += 1
        combine(*args)

    def spied(*args):
        counts.append(0)
        monkeypatch.setattr(lp, "_combine", counted)
        try:
            return phase_one(*args)
        finally:
            monkeypatch.setattr(lp, "_combine", combine)

    monkeypatch.setattr(lp, "_phase_one", spied)
    c = require_valid(ladder_market(2, 6))
    assert len(c.charged) == 64
    assert arbitrage.check_na(c).holds
    assert len(counts) == 1 and counts[0] <= 1000, counts


def test_warm_pricing_on_the_64_leaf_binomial_face_makes_no_row_update(monkeypatch):
    # phase 2 builds its start row in one integer sum and makes no pivot
    # here, so neither warm pricing call updates a row; eliminating each
    # basic column from the cost row by its own `_combine` made 56 in each
    c = require_valid(ladder_market(2, 6))
    claim = Claim([F((7 * k) % 9, 4) for k in range(64)])  # the benchmark ladder's claim
    assert arbitrage.check_na(c).holds  # builds the face
    combine, calls = lp._combine, []

    def counted(*args):
        calls.append(args[1])
        combine(*args)

    monkeypatch.setattr(lp, "_combine", counted)
    for query in (superhedge.dual_price, superhedge.superhedge_price):
        calls.clear()
        query(c, claim)
        assert calls == [], query.__name__
