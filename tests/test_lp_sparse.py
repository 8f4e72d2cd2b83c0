"""The sparse simplex kernel returns exactly what the dense one did.

`_dense_pivot` and `_dense_solve_unique` keep the dense eliminations the
kernel used before it updated only the pivot row's nonzeros. Swapping them
into `lp` must leave every outcome equal field for field: same status,
primal, dual, objective, Farkas vector and ray, because a skipped column
would only have received u - f * 0 = u.
"""

import copy
import random
from fractions import Fraction as F

from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.errors import HedgecertError
from markets import (
    binomial_market,
    binomial_with_free_option,
    nar_fixture_markets,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_lp,
    trinomial_straddle_market,
)

_ONE = F(1)


def _dense_pivot(tab, rhs, red, basis, r, jc):
    prow = tab[r]
    piv = prow[jc]
    if piv != 1:
        inv = _ONE / piv
        tab[r] = prow = [v * inv for v in prow]
        rhs[r] *= inv
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[jc]
        if f:
            tab[i] = [u - f * v for u, v in zip(row, prow)]
            rhs[i] -= f * rhs[r]
    f = red[jc]
    if f:
        red[:] = [u - f * v for u, v in zip(red, prow)]
    basis[r] = jc


def _dense_solve_unique(rows, rhs):
    m = len(rows)
    if m == 0:
        return None
    n = len(rows[0])
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, m):
            if a[i][col]:
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        prow = a[r]
        inv = _ONE / prow[col]
        if inv != 1:
            a[r] = prow = [v * inv for v in prow]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [u - f * v for u, v in zip(a[i], prow)]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    if len(piv_cols) < n:
        return None
    x = [F(0)] * n
    for k, col in enumerate(piv_cols):
        x[col] = a[k][n]
    return x


QUERIES = (
    lambda m, f: arbitrage.check_na(m),
    lambda m, f: arbitrage.check_nar(m),
    superhedge.superhedge_price,
    superhedge.dual_price,
    lambda m, f: redundancy.sharper_ftap(m),
)


def _query_programs(monkeypatch) -> list[lp.LpProblem]:
    """Every program the five benchmark queries hand to `lp.solve_lp`."""
    markets = nar_fixture_markets() + [
        pinned_identical_options_market(),
        binomial_with_free_option(),
        binomial_market(),
        trinomial_straddle_market(),
    ]
    rng = random.Random(20240607)
    markets += [random_arbitrage_free_market(rng, min_periods=3) for _ in range(4)]
    markets += [random_arbitrage_free_market(rng, max_leaves=24, min_periods=3) for _ in range(2)]
    markets += [random_arbitrary_market(rng) for _ in range(6)]

    programs = []
    solve = lp.solve_lp

    def record(problem):
        programs.append(copy.deepcopy(problem))
        return solve(problem)

    monkeypatch.setattr(lp, "solve_lp", record)
    for m in markets:
        claim = random_claim(rng, m)
        for query in QUERIES:
            try:
                query(m, claim)
            except HedgecertError:
                pass  # a failed precondition still handed its programs over
    monkeypatch.setattr(lp, "solve_lp", solve)
    return programs


def _outcomes(problems, monkeypatch, dense):
    with monkeypatch.context() as patch:
        if dense:
            patch.setattr(lp, "_pivot", _dense_pivot)
            patch.setattr(lp, "solve_unique", _dense_solve_unique)
        return [lp.solve_lp(copy.deepcopy(p)) for p in problems]


def _assert_identical(problems, monkeypatch):
    sparse = _outcomes(problems, monkeypatch, dense=False)
    dense = _outcomes(problems, monkeypatch, dense=True)
    for p, s, d in zip(problems, sparse, dense):
        assert s == d, p


def test_random_lps_match_the_dense_kernel(monkeypatch):
    rng = random.Random(31337)
    problems = [random_lp(rng) for _ in range(1000)]
    _assert_identical(problems, monkeypatch)
    statuses = {p.status for p in _outcomes(problems, monkeypatch, dense=False)}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_market_programs_match_the_dense_kernel(monkeypatch):
    problems = _query_programs(monkeypatch)
    assert len(problems) > 100
    # the tree programs are the sparse ones: most coefficients are zero
    widest = max(problems, key=lambda p: len(p.rows) * len(p.objective))
    cells = len(widest.rows) * len(widest.objective)
    assert sum(1 for row in widest.rows for a in row if a) < cells / 2
    _assert_identical(problems, monkeypatch)


def test_solve_unique_matches_the_dense_elimination():
    rng = random.Random(4242)
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[F(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice((1, 3))) for _ in range(n)]
                for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        assert lp.solve_unique(rows, rhs) == _dense_solve_unique(rows, rhs), (rows, rhs)
