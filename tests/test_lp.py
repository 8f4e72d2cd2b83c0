import copy
import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgecert import lp
from hedgecert.errors import SoundnessError, StructureError
from markets import random_lp

Z = F(0)
I = F(1)


def test_one_variable_maximum():
    p = lp.LpProblem(lp.MAX, [I], [[I]], [lp.LE], [I], [Z], [None])
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [I]
    assert out.objective_value == 1
    assert lp.verify_certificate(p, out)


def test_obvious_ray():
    p = lp.LpProblem(lp.MAX, [I], [], [], [], [Z], [None])
    out = lp.solve_lp(p)
    assert out.status == lp.UNBOUNDED
    assert out.ray == [I]
    assert lp.verify_certificate(p, out)


def test_contradictory_rows_infeasible():
    p = lp.LpProblem(lp.MAX, [Z], [[I], [I]], [lp.LE, lp.GE], [Z, I], [None], [None])
    out = lp.solve_lp(p)
    assert out.status == lp.INFEASIBLE
    assert out.farkas is not None
    assert lp.verify_certificate(p, out)


def test_verify_rejects_perturbed_primal():
    p = lp.LpProblem(lp.MAX, [I], [[I]], [lp.LE], [I], [Z], [None])
    out = lp.solve_lp(p)
    bad = lp.LpOutcome(
        status=out.status,
        primal=[out.primal[0] + 1],
        dual=list(out.dual),
        objective_value=out.objective_value,
    )
    assert not lp.verify_certificate(p, bad)


def test_verify_rejects_zeroed_farkas():
    p = lp.LpProblem(lp.MAX, [Z], [[I], [I]], [lp.LE, lp.GE], [Z, I], [None], [None])
    out = lp.solve_lp(p)
    bad = lp.LpOutcome(status=lp.INFEASIBLE, farkas=[Z, Z])
    assert not lp.verify_certificate(p, bad)


def test_verify_rejects_wrong_field_population():
    p = lp.LpProblem(lp.MAX, [I], [[I]], [lp.LE], [I], [Z], [None])
    out = lp.solve_lp(p)
    assert not lp.verify_certificate(
        p, lp.LpOutcome(status=lp.OPTIMAL, primal=out.primal, dual=out.dual)
    )


def test_dimension_mismatch_is_structural():
    with pytest.raises(StructureError):
        lp.solve_lp(lp.LpProblem(lp.MIN, [I], [[I, I]], [lp.LE], [I], [Z], [None]))
    with pytest.raises(StructureError):
        lp.solve_lp(lp.LpProblem(lp.MIN, [I], [[I]], [lp.LE], [I], [F(2)], [I]))


def test_non_rational_entries_are_structural():
    # LpProblem is public: a float or Decimal anywhere is named, never an
    # AttributeError from inside the reduction
    def base():
        return lp.LpProblem(lp.MIN, [I, I], [[I, I]], [lp.LE], [F(2)], [Z, None], [I, None])

    for bad in (0.5, Decimal("0.5")):
        for field, put in [
            ("objective[1]", lambda p: p.objective.__setitem__(1, bad)),
            ("rows[0][1]", lambda p: p.rows[0].__setitem__(1, bad)),
            ("rhs[0]", lambda p: p.rhs.__setitem__(0, bad)),
            ("lower[0]", lambda p: p.lower.__setitem__(0, bad)),
            ("upper[0]", lambda p: p.upper.__setitem__(0, bad)),
        ]:
            p = base()
            put(p)
            with pytest.raises(StructureError, match=re.escape(field)):
                lp.solve_lp(p)


def test_verify_rejects_non_rational_entries():
    # the outcome of a valid problem, replayed against a copy with one float or
    # Decimal entry: False, neither True nor an arithmetic TypeError
    def base():
        return lp.LpProblem(lp.MIN, [I, I], [[I, I]], [lp.LE], [F(2)], [Z, Z], [None, None])

    out = lp.solve_lp(base())
    assert lp.verify_certificate(base(), out)
    for bad in (0.5, Decimal("0.5")):
        for put in (lambda p: p.objective.__setitem__(1, bad),
                    lambda p: p.rows[0].__setitem__(1, bad),
                    lambda p: p.rhs.__setitem__(0, bad)):
            p = base()
            put(p)
            assert lp.verify_certificate(p, out) is False, (bad, p)


def test_beale_cycling_instance_terminates_under_bland():
    # classic instance that cycles under naive pivoting; optimum is 1/20
    p = lp.LpProblem(
        lp.MAX,
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [Z, Z, I, Z],
        ],
        [lp.LE, lp.LE, lp.LE],
        [Z, Z, I],
        [Z] * 4,
        [None] * 4,
    )
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == F(1, 20)
    assert lp.verify_certificate(p, out)


def test_a_revisited_basis_raises_instead_of_looping(monkeypatch):
    # Bland's rule never revisits a basis; a pivot that forgets the reduced
    # costs re-enters the same column forever unless the kernel notices
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda rows, r, c, red=None: pivot(rows, r, c))
    p = lp.LpProblem(lp.MAX, [I], [[I]], [lp.LE], [I], [Z], [None])
    with pytest.raises(SoundnessError, match="revisited a basis"):
        lp.solve_lp(p)


def test_fixed_variable_and_equality_rows():
    # x pinned at 1, y in [0, 2]: min x + y with x + y = 2 gives y = 1
    p = lp.LpProblem(
        lp.MIN, [I, I], [[I, I]], [lp.EQ], [F(2)], [I, Z], [I, F(2)]
    )
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [I, I]
    assert out.objective_value == 2
    assert lp.verify_certificate(p, out)


def test_free_variable_equality_system():
    # classic replication system: x + h = 1, x - h/2 = 0 over free variables
    p = lp.LpProblem(
        lp.MIN,
        [Z, Z],
        [[I, I], [I, F(-1, 2)]],
        [lp.EQ, lp.EQ],
        [I, Z],
        [None, None],
        [None, None],
    )
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [F(1, 3), F(2, 3)]
    assert lp.verify_certificate(p, out)


def test_upper_bounded_only_variable():
    p = lp.LpProblem(lp.MAX, [I], [], [], [], [None], [F(5)])
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == [F(5)]
    assert lp.verify_certificate(p, out)


def test_infeasible_via_bounds_and_row():
    # x <= 1 by bound but row wants x >= 2
    p = lp.LpProblem(lp.MIN, [Z], [[I]], [lp.GE], [F(2)], [Z], [I])
    out = lp.solve_lp(p)
    assert out.status == lp.INFEASIBLE
    assert lp.verify_certificate(p, out)


def test_redundant_rows_are_dropped_cleanly():
    p = lp.LpProblem(
        lp.MIN,
        [I, I],
        [[I, I], [I, I], [F(2), F(2)]],
        [lp.EQ, lp.EQ, lp.EQ],
        [F(2), F(2), F(4)],
        [Z, Z],
        [None, None],
    )
    out = lp.solve_lp(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 2
    assert lp.verify_certificate(p, out)


def test_solve_unique():
    assert lp.solve_unique([[I, I], [I, F(-1)]], [F(2), Z]) == [I, I]
    # underdetermined
    assert lp.solve_unique([[I, I]], [F(2)]) is None
    # inconsistent
    assert lp.solve_unique([[I, I], [I, I]], [F(2), F(3)]) is None
    # overdetermined but consistent
    assert lp.solve_unique([[I, Z], [Z, I], [I, I]], [I, F(2), F(3)]) == [I, F(2)]


def test_solver_never_writes_to_its_inputs(monkeypatch):
    # the kernel eliminates in place; only its own copies may change, never
    # the caller's data or the standard form that the tableau is copied from
    # and _basis_dual re-solves from
    built = []

    class RecordedStdForm(lp._StdForm):
        def __init__(self, p):
            super().__init__(p)
            built.append((self, copy.deepcopy(self.rows), copy.deepcopy(self.scale)))

    monkeypatch.setattr(lp, "_StdForm", RecordedStdForm)
    rng = random.Random(7)
    for _ in range(300):
        p = random_lp(rng)
        before = copy.deepcopy(p)
        lp.solve_lp(p)
        assert p == before
        std, rows, scale = built[-1]
        assert std.rows == rows and std.scale == scale
        system = (p.rows, p.rhs)
        lp.solve_unique(*system)
        assert system == (before.rows, before.rhs)
    assert len(built) == 300


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_lps_terminate_and_verify(seed):
    rng = random.Random(seed)
    p = random_lp(rng)
    out = lp.solve_lp(p)  # conftest audit re-verifies every call
    assert out.status in (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_strong_duality_is_exact_on_random_optima(seed):
    rng = random.Random(seed)
    p = random_lp(rng)
    out = lp.solve_lp(p)
    if out.status != lp.OPTIMAL:
        return
    dual_value = sum((y * b for y, b in zip(out.dual, p.rhs)), Z)
    d = list(p.objective)
    for i, yi in enumerate(out.dual):
        if yi:
            for j, a in enumerate(p.rows[i]):
                d[j] -= yi * a
    minimize = p.sense == lp.MIN
    for j, dj in enumerate(d):
        if not dj:
            continue
        at_lower = (dj > 0) if minimize else (dj < 0)
        dual_value += dj * (p.lower[j] if at_lower else p.upper[j])
    assert dual_value == out.objective_value
