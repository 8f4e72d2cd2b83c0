"""The fraction-free simplex kernel against the dense `Fraction` reference.

The reference kernel, and the contracts that check every program of the
suite's corpora against it, are in `tests/lp_cases.py` and
`tests/test_lp_contracts.py`; this file keeps the cases outside those
corpora: `lp._reduce` on small systems of its own, and a hand-built crash
that empties a row.
"""

import random
from fractions import Fraction as F

from hedgecert import lp
from hedgecert.lp import EQ, LE, LpProblem
from lp_cases import _assert_linear_solve, _dense_phase_one, _dense_solve_lp, _ReferenceStdForm
from markets import sparse_rows

_ZERO = F(0)
_ONE = F(1)


def test_reduce_matches_the_dense_elimination():
    rng = random.Random(4242)
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[F(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice((1, 3))) for _ in range(n)]
                for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        _assert_linear_solve(rows, rhs)


def test_a_zero_rhs_row_that_cancels_in_the_crash_keeps_its_artificial():
    # rows 0 and 1 are one equation x0 = x1 with rhs 0: row 0 crashes on
    # x0, which empties row 1; the crash passes it by, its artificial stays
    # basic through the drive-out, and its dual is 0
    p = LpProblem([F(1), F(1)], sparse_rows([[F(1), F(-1)], [F(2), F(-2)], [F(1), F(1)]]),
                  [EQ, EQ, LE], [_ZERO, _ZERO, _ONE])
    phase1 = lp._Phase1(p)
    assert phase1.basis[:2] == [0, phase1.ncols + 1] and phase1.tab[1] == {}
    out = lp.solve_lp(phase1.program(p.objective))
    assert out == _dense_solve_lp(p, _dense_phase_one(_ReferenceStdForm(p)))[0]
    assert (out.status, out.objective_value, out.dual[1]) == (lp.OPTIMAL, _ONE, _ZERO)
