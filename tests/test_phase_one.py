"""One phase 1 per market: every measure program of a compiled market is
built by the phase 1 of their shared t = 0 face (`lp._Phase1.program`) and
starts phase 2 from it.

Warm outcomes against a cold solve of the same problem, and every other
contract of a program on its face, are checked on every corpus of
`lp_cases.PROGRAMS` (`tests/test_lp_contracts.py`). This file keeps the
route itself: only `_Phase1.program` sets one, so no problem can start
phase 2 from a face it does not match, and `solve_lp` refuses a problem
without one; a market builds its face once, and no query writes to it.
"""

import copy
import dataclasses
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from concurrency import run_together
from hedgecert import arbitrage, cli, lp, redundancy, superhedge
from hedgecert.errors import StructureError
from hedgecert.marketio import dump_market, parse_market
from hedgecert.model import ONE, ZERO, Claim, require_valid
from markets import (
    binomial_with_spread_option,
    dense_rows,
    measure_program,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_lp,
    routed,
    sparse_rows,
    trinomial_straddle_market,
)


def _random_markets(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        maker = random_arbitrary_market if k % 2 else random_arbitrage_free_market
        yield rng, require_valid(maker(rng))


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
    # `bounds` in a fresh parse: the robust program and both pricing
    # programs of the market less the option share one phase 1
    built = []

    class Counted(lp._Phase1):
        def __init__(self, problem):
            built.append(len(problem.rows))
            super().__init__(problem)

    monkeypatch.setattr(lp, "_Phase1", Counted)
    path = tmp_path / "m.json"
    path.write_text(dump_market(binomial_with_spread_option()))
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


def test_a_programs_route_reaches_no_comparison_or_repr():
    c = require_valid(binomial_with_spread_option())
    problem, _ = measure_program(c, [ZERO] * len(c.charged) + [ONE], 1)
    assert problem == replace(problem) and replace(problem).phase1 is None
    assert "phase1" not in repr(problem)
