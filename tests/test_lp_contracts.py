"""The LP kernel's contracts, each checked once on every row of
`lp_cases.PROGRAMS`, on every face of the row and every program it carries:

1. equal to the dense kernel on the route `lp` takes, floors included, and
   `_reduce` equal to the dense elimination on the wide row;
2. warm equals cold in status and value, and field for field from one
   phase-1 basis;
3. the value taken off the cost row is the objective at the primal;
4. every side read is a fresh list, and a `replace` twin is equal;
5. nothing is written to the problem, the face or the face's inverse;
6. the duals off the stored inverse are the reference elimination's;
7. the phase-2 start row is the per-column elimination;
8. each standard row is |scale| times its reference row;
9. each row a pivot writes holds only nonzeros and is primitive;
10. the crash pivots only on zero-rhs rows and keeps the phase-1 costs;
11. an infeasible face gives every program a fresh Farkas vector.

A row's corpus reaches each case its contracts rely on at least as often as
the row's `least` says (`test_each_row_reaches_its_cases`).
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from hedgecert import lp
from lp_cases import (
    PROGRAMS,
    _ONE,
    _ZERO,
    _assert_linear_solve,
    _dense_basis_dual,
    _ReferenceStdForm,
)
from markets import dense_rows


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def row(request):
    # built by the first contract that reads it, dropped after the last, so
    # no later test carries its faces
    yield PROGRAMS[request.param]
    PROGRAMS[request.param].drop()


def _programs(row):
    for face in row.faces:
        yield from face.programs


def test_outcomes_equal_the_dense_kernels(row):
    # every program, floors included, is the dense kernel's outcome field
    # for field, and in repr, on the route `lp` takes: one dense phase 1 of
    # the face, kept, and a phase 2 per program from it, a late column
    # written into the slot (`lp_cases._solve`). `_reduce` of each wide
    # face's [A | b] is the dense reduced row-echelon form: the wide row is
    # the one whose integer rows need the lcm of coprime denominators, and
    # `test_lp_sparse.py` checks `_reduce` on small systems of its own
    for face in row.faces:
        p = face.problem
        if face.kind == "wide" and p.rows:
            _assert_linear_solve(dense_rows(p.rows, len(p.objective)), p.rhs)
        for program in face.programs:
            dense = program.dense[0]
            assert program.warm == dense, (program.name, program.problem)
            assert repr(program.warm) == repr(dense), (program.name, program.problem)


def test_a_warm_outcome_is_the_cold_one(row):
    # a program with a late column, on its face's phase 1, against a cold
    # solve: a fresh phase 1 of its full rows, which holds the late column
    # as a column like the others. Status and value agree. The cold crash
    # takes columns by their counts, so it may pivot on the late column
    # where that is the sparsest in a zero-rhs row, and its phase 1 may end
    # on another basis, then phase 2 at another optimal one. Where both
    # phase 1s end on one basis, the tableau, B^-1 A, is the same whatever
    # the path, and so is the outcome, field for field. Both replay, as
    # every outcome does: `conftest`'s audit re-verifies each solve
    for face in row.faces:
        for program in face.programs:
            warm, cold = program.warm, program.cold
            if cold is None:
                continue  # no late column: the face's phase 1 is the cold one (contract 1)
            assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value), (
                program.name, program.problem)
            if program.cold_ended == face.ended:
                assert warm == cold, (program.name, program.problem)


def test_the_value_off_the_cost_row_is_the_objective_at_the_primal(row):
    # phase 2 reads the optimal value off its cost row, never summing c . x
    for program in _programs(row):
        out = program.warm
        if out.status == lp.OPTIMAL:
            assert type(out.objective_value) is Fraction, program.name
            assert out.objective_value == lp._dot(program.problem.objective, out.primal), program.name


def test_every_side_read_is_a_fresh_list_and_a_replace_twin_is_equal(row):
    # an outcome derives its primal and dual on each read (`lp.LpOutcome`);
    # a `replace` copy holds the lists themselves, and equals the outcome
    for program in _programs(row):
        out = program.warm
        for side in ("primal", "dual"):
            read = getattr(out, side)
            if read is not None:
                again = getattr(out, side)
                assert again is not read and again == read, (side, program.name)
        twin = replace(out)
        assert twin == out and repr(twin) == repr(out), program.name
        assert twin.primal is twin.primal, program.name


def test_nothing_is_written_to_the_problem_the_face_or_its_inverse(row):
    # the kernel eliminates in place, but only its own copies: after phase
    # 1, every program's phase 2 and a `_reduce` of the face's rows, the
    # face is as given and its phase 1 holds what a fresh phase 1 of it
    # holds; every program is on the face's own lists
    for face in row.faces:
        p, phase1 = face.problem, face.phase1
        lp._reduce([lp._int_row(r) for r in p.rows], len(p.objective))
        assert p == face.before, p
        assert vars(phase1) == vars(lp._Phase1(p)), p
        for program in face.programs:
            q = program.problem
            assert q.phase1[0] is phase1, program.name
            assert q.rows is p.rows and q.relations is p.relations and q.rhs is p.rhs, program.name


def _reference_dual(p, basis, costs):
    """`_dense_basis_dual` of p's reference standard form on the basis `lp`
    ended on, as problem-row multipliers: the two share their columns, the
    artificials unit columns in both."""
    std = _ReferenceStdForm(p)
    return std.problem_multipliers(_dense_basis_dual(
        std, range(len(std.rows)), basis, lambda col: costs(std, col)))


def test_duals_off_the_stored_inverse_are_the_reference_eliminations(row):
    # a program's duals are read off its face's stored inverse and its final
    # reduced costs; the elimination of the basis its phase 2 ended on gives
    # the same vector, as the infeasible face's phase-1 basis does for the
    # Farkas vector, which is the dense kernel's own phase 1's. Where the
    # dense kernel ended on that basis, over the rows it keeps, contract 1
    # has compared the duals with its elimination of that very basis
    for face in row.faces:
        phase1 = face.phase1
        if phase1.farkas is not None:
            expected = _reference_dual(face.problem, face.ended,
                                       lambda std, col: _ONE if col >= std.ncols else _ZERO)
            assert phase1.farkas == expected == face.dense.farkas, face.problem
            continue
        for program in face.programs:
            if program.warm.status != lp.OPTIMAL:
                continue
            ended = program.run.end[1]
            if [col for col in ended if col < phase1.ncols] != program.dense[1]:
                expected = _reference_dual(program.problem, ended, lambda std, col: (
                    std.cost[col] if col < std.ncols else _ZERO))
                assert program.warm.dual == [-v for v in expected], (program.name, program.problem)
            # an artificial of B0 is still basic, so its reduced cost is 0
            assert all(col in ended for col in phase1.basis if col >= phase1.ncols), program.name


def _per_column_start_row(tab, basis, objective):
    """Phase 2's start row the long way: the primitive cost row of min -c . x
    with lam's entry at key -1, then each basic column with a cost
    eliminated from it by a `_combine` of its own, row by row."""
    cost, den = lp._over_lcm(objective)
    red = lp._primitive({j: -u for j, u in enumerate(cost) if u} | {-1: den})
    for row, col in zip(tab, basis):
        if col in red:
            lp._combine(red, col, row[col], row.items())
    return red


def test_the_phase_two_start_row_is_the_per_column_elimination(row):
    # phase 2 builds its start row in one integer sum over the face's
    # tableau; it is the very dict that eliminating each basic column by its
    # own `_combine` gives, key -1 included, and phase 2 run again from the
    # same tableau and basis with that row ends where it ended
    for program in _programs(row):
        if program.run is None:
            continue  # an infeasible face runs no phase 2
        tab, red, basis, *rest = program.run.start
        expected = _per_column_start_row(tab, basis, program.problem.objective)
        assert red == expected, (program.name, program.problem)
        tab, basis = [r.copy() for r in tab], list(basis)
        returned = lp._optimize(tab, expected, basis, *rest)
        assert (expected, basis, returned) == program.run.end, (program.name, program.problem)


def test_each_standard_row_is_its_scale_times_the_reference_row(row):
    for face in row.faces:
        p = face.problem
        (rows, scale, cols, ncols), ref = lp._standard(p), _ReferenceStdForm(p)
        assert ncols == ref.ncols and len(rows) == len(ref.rows), p
        n = ref.nvars
        for stored, s, sign, ref_row, ref_b in zip(rows, scale, ref.row_sign, ref.rows, ref.rhs):
            # a row stores its nonzeros by column, the rhs at key ncols; its
            # scale is negative exactly where the reference negated the row
            assert all(type(v) is int and v for v in stored.values()), p
            dense = [stored.get(j, 0) for j in range(ncols + 1)]
            assert (s < 0) == (sign < 0) and len(stored) == sum(1 for v in dense if v), p
            assert gcd(*dense) in (0, 1), p
            assert dense == [abs(s) * v for v in ref_row + [ref_b]], p
            assert dense[n] == 0, p  # the late column's slot, empty
        # the same entries by column, the rhs left out
        assert cols == [{k: r[j] for k, r in enumerate(rows) if j in r} for j in range(ncols)], p


def test_each_row_a_pivot_writes_holds_only_nonzeros_and_is_primitive(row):
    # in the tableau, the cost rows and `_factor`'s elimination alike; a row
    # no pivot writes is as `_standard` built it (contract 8)
    assert row.spy.unreduced == []


def test_the_crash_pivots_only_on_zero_rhs_rows_and_keeps_the_phase_one_costs(row):
    # every crash pivot is on a row whose rhs is 0 and updates the cost
    # row; where Bland's rule starts, that row is a positive multiple of
    # the phase-1 reduced costs and value computed from scratch for the
    # crash basis: y^T B = 1 on the artificials, d_j = -y . A_j, -y . b
    for face in row.faces:
        assert all(rhs == 0 and with_costs for _, _, rhs, with_costs in face.crash), face.problem
        std = _ReferenceStdForm(face.problem)
        n = std.ncols
        _, red, basis, _ = face.bland.start
        y = _dense_basis_dual(std, range(len(std.rows)), basis,
                              lambda col: _ONE if col >= n else _ZERO)
        expected = [-sum((v * std.rows[k][j] for k, v in y.items()), _ZERO) for j in range(n)]
        expected.append(-sum((v * std.rhs[k] for k, v in y.items()), _ZERO))
        assert set(red) == {j for j, v in enumerate(expected) if v}, face.problem
        if red:
            lam = red[min(red)] / expected[min(red)]
            assert lam > 0 and all(red[j] == lam * expected[j] for j in red), face.problem


def test_an_infeasible_face_gives_every_program_a_fresh_farkas_vector(row):
    # the face's own vector, as a list of its own; each replays against the
    # program's full rows, as every outcome does (`conftest`'s audit)
    for face in row.faces:
        farkas = face.phase1.farkas
        if farkas is None:
            continue
        outcomes = [program.warm for program in face.programs]
        assert all(out.status == lp.INFEASIBLE and out.farkas == farkas for out in outcomes)
        assert len({id(out.farkas) for out in outcomes} | {id(farkas)}) == len(outcomes) + 1


def test_each_row_reaches_its_cases(row):
    # how often the row's corpus reaches each case its contracts rely on
    seen = Counter(pivots=row.spy.counts()[0], faces=len(row.faces))
    for face in row.faces:
        phase1 = face.phase1
        seen["crash pivots"] += len(face.crash)
        if phase1.farkas is not None:
            seen["infeasible face"] += 1
        else:
            seen["redundant row, its artificial basic"] += any(
                col >= phase1.ncols for col in phase1.basis)
        for program in face.programs:
            objective, status = program.problem.objective, program.warm.status
            seen[program.name, status] += 1
            seen[status] += 1
            if program.cold is not None:
                seen[program.name, "cold from one basis"] += program.cold_ended == face.ended
            if program.run is None:
                continue
            seen["phase 2"] += 1
            seen[program.name] += 1
            seen[{0: "0 phase-2 pivots", 1: "1 phase-2 pivot"}.get(program.run.pivots,
                                                                    "several phase-2 pivots")] += 1
            seen["zero entry"] += program.name.startswith("priced") and _ZERO in objective
            seen["negative entry"] += any(v < 0 for v in objective)
            pivots = [r[col] for r, col in zip(phase1.tab, phase1.basis)
                      if col < len(objective) and objective[col]]
            seen["several basic columns with a cost"] += len(pivots) > 1
            seen["a basic pivot above 1"] += any(a > 1 for a in pivots)
    # the hedge programs are the sparse ones: most coefficients are zero
    hedges = [face.problem for face in row.faces if face.kind == "hedge"]
    if hedges:
        widest = max(hedges, key=lambda p: len(p.rows) * len(p.objective))
        seen["the widest hedge face under half full"] = (
            2 * sum(map(len, widest.rows)) < len(widest.rows) * len(widest.objective))
    assert all(seen[case] >= least for case, least in row.least.items()), (
        {case: seen[case] for case in row.least})
