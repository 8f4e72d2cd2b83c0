import math
import random
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgecert import lp
from hedgecert.errors import SoundnessError
from markets import random_lp, routed, sparse_rows

Z = F(0)
I = F(1)


def test_one_variable_maximum():
    p = routed(lp.LpProblem([I], sparse_rows([[I]]), [lp.LE], [I]))
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [I]
    assert out.objective_value == 1
    assert lp.verify_certificate(p, out)


def test_obvious_ray():
    p = routed(lp.LpProblem([I], [], [], []))
    out = lp.solve_lp(p)
    assert out.status == lp.UNBOUNDED
    assert out.ray == [I]
    assert lp.verify_certificate(p, out)


def test_contradictory_rows_infeasible():
    p = routed(lp.LpProblem([Z], sparse_rows([[I], [I]]), [lp.LE, lp.GE], [Z, I]))
    out = lp.solve_lp(p)
    assert out.status == lp.INFEASIBLE
    assert out.farkas is not None
    assert lp.verify_certificate(p, out)


def test_verify_rejects_perturbed_primal():
    p = routed(lp.LpProblem([I], sparse_rows([[I]]), [lp.LE], [I]))
    out = lp.solve_lp(p)
    bad = lp.LpOutcome(
        status=out.status,
        primal=[out.primal[0] + 1],
        dual=list(out.dual),
        objective_value=out.objective_value,
    )
    assert not lp.verify_certificate(p, bad)


def test_verify_rejects_zeroed_farkas():
    p = routed(lp.LpProblem([Z], sparse_rows([[I], [I]]), [lp.LE, lp.GE], [Z, I]))
    out = lp.solve_lp(p)
    bad = lp.LpOutcome(status=lp.INFEASIBLE, farkas=[Z, Z])
    assert not lp.verify_certificate(p, bad)


def test_verify_rejects_wrong_field_population():
    p = routed(lp.LpProblem([I], sparse_rows([[I]]), [lp.LE], [I]))
    out = lp.solve_lp(p)
    assert not lp.verify_certificate(
        p, lp.LpOutcome(status=lp.OPTIMAL, primal=out.primal, dual=out.dual)
    )
    # a field another status fills, a wrong length, and a status of none
    assert not lp.verify_certificate(p, replace(out, farkas=[Z]))
    assert not lp.verify_certificate(p, replace(out, primal=[I, Z]))
    assert not lp.verify_certificate(p, replace(out, status="maybe"))
    p = routed(lp.LpProblem([Z], sparse_rows([[I], [I]]), [lp.LE, lp.GE], [Z, I]))
    out = lp.solve_lp(p)
    assert lp.verify_certificate(p, out)
    assert not lp.verify_certificate(p, replace(out, primal=[Z]))
    assert not lp.verify_certificate(p, replace(out, objective_value=Z))
    p = routed(lp.LpProblem([I], [], [], []))
    out = lp.solve_lp(p)
    assert lp.verify_certificate(p, out)
    assert not lp.verify_certificate(p, replace(out, dual=[]))
    assert not lp.verify_certificate(p, replace(out, ray=[I, I]))


def test_each_side_is_a_plain_field_to_dataclasses():
    # the class-level read of a side is its field's default; a class built
    # with the descriptor reads a list back as it was set, and a side that
    # `_later` gave a partial as a fresh list from it on every read
    assert lp.LpOutcome.primal is None and lp.LpOutcome.dual is None
    assert [f.default for f in fields(lp.LpOutcome)][1:] == [None] * 5

    @dataclass
    class Pair:
        first: list | None = lp._Side()
        second: list | None = lp._Side()

    given = [I]
    pair = Pair(given)
    assert pair.first is given and pair.second is None
    assert vars(pair) == {"first": given, "second": None}
    derived = lp._later(Pair(None, [Z]), first=partial(list, (I, Z)))
    assert vars(derived) == {"_first": derived.__dict__["_first"], "second": [Z]}
    assert derived.first == [I, Z] and derived.first is not derived.first
    assert derived == Pair([I, Z], [Z]) and repr(derived) == repr(Pair([I, Z], [Z]))
    derived.first = given
    assert derived.first is given


def test_verify_rejects_non_rational_entries():
    # the outcome of a valid program with one float or Decimal entry: False,
    # neither True nor an arithmetic TypeError
    p = routed(lp.LpProblem([-I, -I], sparse_rows([[I, I]]), [lp.LE], [F(2)]))
    out = lp.solve_lp(p)
    assert lp.verify_certificate(p, out)
    for bad in (0.5, Decimal("0.5")):
        for broken in (replace(out, primal=[out.primal[0], bad]), replace(out, dual=[bad]),
                       replace(out, objective_value=bad)):
            assert lp.verify_certificate(p, broken) is False, (bad, broken)


def test_beale_cycling_instance_terminates_under_bland():
    # classic instance that cycles under naive pivoting; optimum is 1/20
    p = routed(lp.LpProblem(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        sparse_rows([
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [Z, Z, I, Z],
        ]),
        [lp.LE, lp.LE, lp.LE],
        [Z, Z, I],
    ))
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == F(1, 20)
    assert lp.verify_certificate(p, out)


def test_a_revisited_basis_raises_instead_of_looping(monkeypatch):
    # Bland's rule never revisits a basis; a pivot that forgets the reduced
    # costs re-enters the same column forever unless the kernel notices
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivot(*args[:3], None, *args[4:]))
    p = lp.LpProblem([I], sparse_rows([[I]]), [lp.LE], [I])
    with pytest.raises(SoundnessError, match="revisited a basis"):
        lp.solve_lp(routed(p))


def test_fixed_variable_and_equality_rows():
    # x pinned at 1 by its own equality row: max -x - y with x + y = 2 gives y = 1
    p = routed(lp.LpProblem([-I, -I], sparse_rows([[I, I], [I, Z]]), [lp.EQ, lp.EQ], [F(2), I]))
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [I, I]
    assert out.objective_value == -2
    assert lp.verify_certificate(p, out)


def test_free_variable_equality_system():
    # x + h = 1, x - 2h = 4 has h = -1: a free variable is stated as the
    # difference of two nonnegative columns, h = h+ - h-
    p = routed(lp.LpProblem(
        [Z, Z, Z, Z],
        sparse_rows([[I, F(-1), I, F(-1)], [I, F(-1), F(-2), F(2)]]),
        [lp.EQ, lp.EQ],
        [I, F(4)],
    ))
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    x = out.primal
    assert [x[0] - x[1], x[2] - x[3]] == [F(2), F(-1)]
    assert lp.verify_certificate(p, out)


def test_infeasible_via_bounds_and_row():
    # the row wants x + y <= -1, the nonnegativity of x and y forbids it
    p = routed(lp.LpProblem([Z, Z], sparse_rows([[I, I]]), [lp.LE], [F(-1)]))
    out = lp.solve_lp(p)
    assert out.status == lp.INFEASIBLE
    assert out.farkas == [F(-1)]
    assert lp.verify_certificate(p, out)


def test_verify_rejects_each_broken_nonnegative_certificate():
    # each outcome below breaks exactly one condition of the x >= 0 form and
    # meets every other check, so it is that condition's check that rejects it
    def optimal(primal, dual, value):
        return lp.LpOutcome(lp.OPTIMAL, primal=primal, dual=dual, objective_value=value)

    both = routed(lp.LpProblem([-I, -I], sparse_rows([[I, I]]), [lp.EQ], [I]))
    tied = routed(lp.LpProblem([-I, Z], sparse_rows([[I, F(-1)]]), [lp.EQ], [Z]))
    assert lp.verify_certificate(both, optimal([I, Z], [-I], -I))
    assert lp.verify_certificate(tied, optimal([Z, Z], [Z], Z))
    # a negative primal entry that meets every row, with zero reduced costs
    assert not lp.verify_certificate(both, optimal([F(-1), F(2)], [-I], -I))
    # reduced costs (1, -2) at x = 0: the 1 would let x0 raise the maximum
    assert not lp.verify_certificate(tied, optimal([Z, Z], [F(-2)], Z))
    # reduced costs (-1/2, -1/2), right-signed, but x0 = 1 is not held at 0
    assert not lp.verify_certificate(both, optimal([I, Z], [F(-1, 2)], -I))
    # an objective value that is not c . x
    assert not lp.verify_certificate(both, optimal([I, Z], [-I], Z))

    # max -x with x <= 1: x = 0 leaves the row slack, so its dual must be 0
    slack = routed(lp.LpProblem([-I], sparse_rows([[I]]), [lp.LE], [I]))
    assert lp.verify_certificate(slack, optimal([Z], [Z], Z))
    assert not lp.verify_certificate(slack, optimal([Z], [I], Z))

    # max x with x <= 1 and x >= 1: duals (1, 0) are right; (0, 1) meet
    # every identity, but a >= row's dual must be <= 0
    pinned = routed(lp.LpProblem([I], sparse_rows([[I], [I]]), [lp.LE, lp.GE], [I, I]))
    assert lp.verify_certificate(pinned, optimal([I], [I, Z], I))
    assert not lp.verify_certificate(pinned, optimal([I], [Z, I], I))

    # x >= 1 is feasible: y = 1 has y . rhs > 0 but y^T A = 1 > 0
    at_least = routed(lp.LpProblem([Z], sparse_rows([[I]]), [lp.GE], [I]))
    assert not lp.verify_certificate(at_least, lp.LpOutcome(lp.INFEASIBLE, farkas=[I]))
    # -x <= 1 is feasible: y = 1 has y^T A = -1 <= 0 and y . rhs > 0, but a
    # Farkas vector is <= 0 on a <= row
    at_most = routed(lp.LpProblem([Z], sparse_rows([[-I]]), [lp.LE], [I]))
    assert not lp.verify_certificate(at_most, lp.LpOutcome(lp.INFEASIBLE, farkas=[I]))

    # max x0 with x0 + x1 = 1 is bounded: the ray (1, -1) leaves x >= 0
    capped = routed(lp.LpProblem([I, Z], sparse_rows([[I, I]]), [lp.EQ], [I]))
    assert lp.verify_certificate(capped, lp.solve_lp(capped))
    assert not lp.verify_certificate(
        capped, lp.LpOutcome(lp.UNBOUNDED, primal=[I, Z], ray=[I, F(-1)])
    )


def test_redundant_rows_keep_a_zero_dual():
    # rows 2 and 3 repeat row 1: their artificials stay basic at zero, and
    # their duals are 0
    p = routed(lp.LpProblem(
        [-I, -I],
        sparse_rows([[I, I], [I, I], [F(2), F(2)]]),
        [lp.EQ, lp.EQ, lp.EQ],
        [F(2), F(2), F(4)],
    ))
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == -2
    assert out.dual == [-1, 0, 0]
    assert lp.verify_certificate(p, out)


def _reduce(rows, n):
    """`lp._reduce` of dense rows, each made an integer row by `lp._int_row`:
    the pivot columns and each pivot row's entries in columns n on divided
    by its pivot, the reduced row-echelon form's. Every row after the last
    pivot row must be empty."""
    width = len(rows[0])
    a = [lp._int_row(row) for row in sparse_rows(rows)]
    piv = lp._reduce(a, width)
    assert not any(a[len(piv):]), a
    return piv, [[F(row.get(j, 0), row[col]) for j in range(n, width)] for row, col in zip(a, piv)]


def test_reduce():
    # [A | b] in reduced row-echelon form: the system has a unique solution
    # iff every column of A takes a pivot and b none, and b's entries are it
    assert _reduce([[I, I, F(2)], [I, F(-1), Z]], 2) == ([0, 1], [[I], [I]])
    # underdetermined: column 1 takes no pivot, and x0 = 2 - x1
    assert _reduce([[I, I, F(2)]], 1) == ([0], [[I, F(2)]])
    # inconsistent: b takes a pivot
    assert _reduce([[I, I, F(2)], [I, I, F(3)]], 2) == ([0, 2], [[Z], [I]])
    # overdetermined but consistent
    assert _reduce([[I, Z, I], [Z, I, F(2)], [I, I, F(3)]], 2) == ([0, 1], [[I], [F(2)]])
    # a column of zeros takes no pivot and stays a column
    assert _reduce([[I, Z]], 0) == ([0], [[I, Z]])
    # columns at or past the bound take no pivot, and their rows stay
    a = [{1: 3}, {0: 2, 1: 1}]
    assert lp._reduce(a, 1) == [0] and a == [{0: 2, 1: 1}, {1: 3}]


def test_reduce_leaves_exact_pivot_tails_and_a_residual():
    # x + y + 3z, 2x + 2y + 5z, y + z: pivots on x (row 0), y (row 2,
    # swapped up) and the residual z (row 1), each row divided by its pivot
    piv, tails = _reduce([[I, I, F(3)], [F(2), F(2), F(5)], [Z, I, I]], 1)
    assert piv == [0, 1, 2]
    assert tails == [[Z, Z], [I, Z], [Z, I]]
    # a column without a pivot keeps the exact combination of the pivot columns
    piv, tails = _reduce([[F(2), F(1, 3)], [F(4), F(5)]], 0)
    assert (piv, tails) == ([0, 1], [[I, Z], [Z, I]])
    piv, tails = _reduce([[F(2), F(1, 3)], [F(4), F(2, 3)]], 1)
    assert (piv, tails) == ([0], [[F(1, 6)]])


def _over_lcm_of_every_entry(values):
    """`lp._over_lcm` as it was defined before it skipped zero entries."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return [u * (den // q) for u, q in ratios], den


def test_over_lcm_skipping_zeros_equals_the_lcm_of_every_entry():
    rng = random.Random(37)
    draws = [lambda: 0, lambda: Z, lambda: rng.randint(-50, 50),
             lambda: F(rng.randint(-50, 50), rng.randint(1, 60)),
             lambda: F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))]
    vectors = [[], [0], [Z, Z], [Z] * 64 + [I], [F(1, 3), 0, F(-1, 3)]]
    vectors += [[rng.choice(draws)() for _ in range(rng.randint(1, 40))] for _ in range(500)]
    for values in vectors:
        nums, den = lp._over_lcm(values)
        assert (nums, den) == _over_lcm_of_every_entry(values), values
        assert all(type(u) is int for u in nums) and type(den) is int and den > 0
        assert [F(u, den) for u in nums] == values


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_lps_terminate_and_verify(seed):
    rng = random.Random(seed)
    p = routed(random_lp(rng))
    out = lp.solve_lp(p)  # conftest audit re-verifies every call
    assert out.status in (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_strong_duality_is_exact_on_random_optima(seed):
    rng = random.Random(seed)
    p = routed(random_lp(rng))
    out = lp.solve_lp(p)
    if out.status != lp.OPTIMAL:
        return
    # every variable's lower bound is 0, so the dual objective is y . rhs
    dual_value = sum((y * b for y, b in zip(out.dual, p.rhs)), Z)
    assert dual_value == out.objective_value
