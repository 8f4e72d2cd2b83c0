"""The fraction-free simplex kernel returns exactly what a Fraction one did.

The reference below is a dense `Fraction` kernel: its own reduction to
standard form with `Fraction` rows and rhs, the tableau pivot that scales
its pivot row to 1 and subtracts full rows, the crash basis, Bland's
`_optimize`, the two-phase tableau path of `solve_lp`, and from `oracle`
the dense Gauss-Jordan elimination that `lp._reduce` is checked
against. It shares no reduction or kernel code with `lp`. The kernel in
`lp` keeps every row as a primitive integer multiple of these rows, so
every sign, Bland choice and certificate must be equal field for field:
same status, primal, dual, objective, Farkas vector and ray.
"""

import collections
import copy
import random
from dataclasses import replace
from fractions import Fraction
from fractions import Fraction as F
from functools import partial
from math import gcd

from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.errors import HedgecertError
from hedgecert.lp import EQ, LE, LpProblem
from hedgecert.model import require_valid
from markets import (
    binomial_market,
    binomial_with_free_option,
    dense_rows,
    nar_fixture_markets,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_lp,
    random_rational,
    routed,
    sparse_rows,
    trinomial_straddle_market,
)
from oracle import _dense_gauss_jordan, _dense_solve_unique, hedge_lp

_ZERO = F(0)
_ONE = F(1)


class _ReferenceStdForm:
    """Reduction of max c.x to   min cost.z  s.t.  A z = b (b >= 0), z >= 0,
    with cost = -c.

    z is the problem's columns, then the empty slot column that `lp` keeps
    for a late column, then one slack per inequality row, so a point or ray
    of the problem is z[:n]. A routed program's rows are its full rows, the
    late column included (`lp._program_rows`), each densified to the
    objective's length (`markets.dense_rows`). row_sign[k] is -1 when the
    row was negated to make its rhs nonnegative.
    """

    def __init__(self, p: LpProblem):
        n = len(p.objective)
        rows = dense_rows(p.rows if p.phase1 is None else lp._program_rows(p), n)
        rhs = list(p.rhs)
        nslack = sum(1 for rel in p.relations if rel != EQ)
        k = n + 1
        sign: list[int] = []
        for i, row in enumerate(rows):
            row.extend([_ZERO] * (1 + nslack))
            if p.relations[i] != EQ:
                row[k] = _ONE if p.relations[i] == LE else Fraction(-1)
                k += 1
            if rhs[i] < 0:
                rows[i] = [-v for v in row]
                rhs[i] = -rhs[i]
                sign.append(-1)
            else:
                sign.append(1)

        self.nvars = n
        self.ncols = n + 1 + nslack
        self.rows = rows
        self.rhs = rhs
        self.row_sign = sign
        self.cost = [-c for c in p.objective] + [_ZERO] * (1 + nslack)

    def problem_multipliers(self, y_std: dict[int, Fraction]) -> list[Fraction]:
        """The standard rows' multipliers as the problem rows' multipliers."""
        return [s * y_std.get(k, _ZERO) for k, s in enumerate(self.row_sign)]


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


def _assert_linear_solve(rows, rhs):
    """`lp._reduce` of [A | b], given dense and made integer rows by
    `lp._int_row`, against the dense elimination. A reduced row-echelon form
    is unique, so both take the same pivot columns, each integer pivot row
    divided by its pivot is the dense pivot row entry for entry, and every
    row after the last pivot row is empty; b takes a pivot exactly when the
    system is inconsistent."""
    augmented = [[*row, b] for row, b in zip(rows, rhs)]
    dense, piv_cols = _dense_gauss_jordan(augmented, [_ZERO] * len(rows))
    width = len(augmented[0])
    a = [lp._int_row(row) for row in sparse_rows(augmented)]
    assert lp._reduce(a, width) == piv_cols, (rows, rhs)
    reduced = [[F(row.get(j, 0), row[col]) for j in range(width)] for row, col in zip(a, piv_cols)]
    assert reduced == [row[:-1] for row in dense[:len(piv_cols)]], (rows, rhs)
    assert not any(a[len(piv_cols):]), (rows, rhs)


def _dense_optimize(tab, rhs, red, basis, ncols):
    while True:
        jc = next((j for j in range(ncols) if red[j] < 0), -1)
        if jc < 0:
            return None
        r, best, best_var = -1, None, -1
        for i, row in enumerate(tab):
            a = row[jc]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    best, r, best_var = ratio, i, basis[i]
        if r < 0:
            return jc
        _dense_pivot(tab, rhs, red, basis, r, jc)


def _dense_basis_dual(std, active, basis, costs):
    if not basis:
        return {}
    n = std.ncols
    mat = [[_ONE if k == col - n else _ZERO for k in active] if col >= n
           else [std.rows[k][col] for k in active] for col in basis]
    y = _dense_solve_unique(mat, [costs(col) for col in basis])
    assert y is not None
    return {k: y[pos] for pos, k in enumerate(active)}


def _dense_crash(std, tab, rhs, red, basis):
    """Each row whose rhs is 0, fewest standard-form nonzeros first (then
    lowest index), pivots on its column with the fewest standard-form
    nonzeros (then lowest index); a row that cancelled to zero is skipped.
    A zero rhs moves no value, so every rhs stays where it was."""
    def count(values):
        return sum(1 for v in values if v)

    columns = [count(row[j] for row in std.rows) for j in range(std.ncols)]
    for i in sorted(range(len(tab)), key=lambda i: (count(std.rows[i]), i)):
        held = [j for j in range(std.ncols) if tab[i][j]]
        if rhs[i] == 0 and held:
            _dense_pivot(tab, rhs, red, basis, i, min(held, key=lambda j: (columns[j], j)))


def _dense_solve_lp(p):
    """Two-phase Bland simplex on a dense Fraction tableau (reference)."""
    std = _ReferenceStdForm(p)
    m, n, nvars = len(std.rows), std.ncols, std.nvars
    tab = [row[:] for row in std.rows]
    rhs = std.rhs[:]
    basis = [n + i for i in range(m)]
    active = list(range(m))
    red = [-sum((row[j] for row in tab), _ZERO) for j in range(n)]
    _dense_crash(std, tab, rhs, red, basis)
    assert _dense_optimize(tab, rhs, red, basis, n) is None
    if sum((rhs[i] for i in range(m) if basis[i] >= n), _ZERO) > 0:
        y_std = _dense_basis_dual(std, active, basis, lambda col: _ONE if col >= n else _ZERO)
        return lp.LpOutcome(status=lp.INFEASIBLE,
                            farkas=std.problem_multipliers(y_std))
    keep = []
    for i in range(m):
        if basis[i] >= n:
            jc = next((j for j in range(n) if tab[i][j]), -1)
            if jc < 0:
                continue
            _dense_pivot(tab, rhs, red, basis, i, jc)
        keep.append(i)
    tab = [tab[i] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]
    active = [active[i] for i in keep]
    red = std.cost[:]
    for i, row in enumerate(tab):
        cb = std.cost[basis[i]]
        red = [u - cb * v for u, v in zip(red, row)]
    jc = _dense_optimize(tab, rhs, red, basis, n)
    z = [_ZERO] * n
    for i, col in enumerate(basis):
        z[col] = rhs[i]
    if jc is not None:
        d = [_ZERO] * n
        d[jc] = _ONE
        for i, row in enumerate(tab):
            if row[jc]:
                d[basis[i]] = -row[jc]
        return lp.LpOutcome(status=lp.UNBOUNDED, primal=z[:nvars], ray=d[:nvars])
    x = z[:nvars]
    y_std = _dense_basis_dual(std, active, basis, lambda col: std.cost[col])
    y = [-v for v in std.problem_multipliers(y_std)]  # min cost . z negated: max c . x
    value = sum((c * v for c, v in zip(p.objective, x) if c), _ZERO)
    return lp.LpOutcome(status=lp.OPTIMAL, primal=x, dual=y, objective_value=value)


QUERIES = (
    lambda m, f: arbitrage.check_na(m),
    lambda m, f: arbitrage.check_nar(m),
    superhedge.superhedge_price,
    superhedge.dual_price,
    lambda m, f: redundancy.sharper_ftap(m),
)


def _query_programs(monkeypatch) -> tuple[list[lp.LpProblem], list[lp.LpProblem]]:
    """Every program the five benchmark queries and the reference hedge LP
    hand to `lp.solve_lp`, and the hedge LP's programs among them."""
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
    # a four-period tree: 16 leaves, so the dynamic gains outweigh the options
    markets.append(random_arbitrage_free_market(random.Random(1), max_periods=4,
                                                min_periods=4, max_leaves=16))

    programs = []
    solve = lp.solve_lp

    def record(problem):
        programs.append(copy.deepcopy(problem))
        return solve(problem)

    monkeypatch.setattr(lp, "solve_lp", record)
    hedges = []
    for m in markets:
        claim = random_claim(rng, m)
        for query in (*QUERIES, hedge_lp):
            start = len(programs)
            try:
                query(m, claim)
            except HedgecertError:
                pass  # a failed precondition still handed its programs over
            if query is hedge_lp:
                hedges += programs[start:]
    monkeypatch.setattr(lp, "solve_lp", solve)
    return programs, hedges


def _assert_identical(problems):
    for p in problems:
        assert lp.solve_lp(copy.deepcopy(p)) == _dense_solve_lp(copy.deepcopy(p)), p


def test_random_lps_match_the_dense_kernel():
    rng = random.Random(31337)
    problems = [routed(random_lp(rng)) for _ in range(1000)]
    _assert_identical(problems)
    statuses = {lp.solve_lp(p).status for p in problems}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_market_programs_match_the_dense_kernel(monkeypatch):
    problems, hedges = _query_programs(monkeypatch)
    assert len(problems) > 100
    # the reference hedge programs are the sparse ones: most coefficients
    # are zero; a measure program's rows cover every charged leaf
    widest = max(hedges, key=lambda p: len(p.rows) * len(p.objective))
    cells = len(widest.rows) * len(widest.objective)
    assert sum(map(len, widest.rows)) < cells / 2
    _assert_identical(problems)


def test_each_side_is_derived_when_read_and_equals_the_dense_kernels(monkeypatch):
    # an outcome keeps the integers phase 2 computed and derives its primal
    # and dual from them on each read (`lp.LpOutcome`): every read is a
    # fresh list equal to the dense kernel's, and a `replace` copy, which
    # holds the lists themselves, equals both outcomes
    rng = random.Random(4343)
    market, _ = _query_programs(monkeypatch)
    seen = collections.Counter()
    labelled = [("random", routed(random_lp(rng))) for _ in range(400)]
    labelled += [("market" if p.phase1[1] is None else "push", p) for p in market]
    for kind, p in labelled:
        out, dense = lp.solve_lp(copy.deepcopy(p)), _dense_solve_lp(copy.deepcopy(p))
        for side in ("primal", "dual"):
            read = getattr(out, side)
            assert read == getattr(dense, side), (side, p)
            if read is not None:
                assert getattr(out, side) is not read, (side, p)
        twin = replace(out)
        assert twin == out == dense and repr(twin) == repr(out) == repr(dense), p
        assert twin.primal is twin.primal, p
        seen[kind, out.status] += 1
    assert all(seen[kind, lp.OPTIMAL] >= 20 for kind in ("random", "market", "push")), seen
    assert seen["random", lp.UNBOUNDED] >= 20, seen


def test_reduce_matches_the_dense_elimination():
    rng = random.Random(4242)
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[F(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice((1, 3))) for _ in range(n)]
                for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        _assert_linear_solve(rows, rhs)


WIDE_DENOMINATORS = (3, 5, 7, 11, 64, 10**6 + 3)


def _wide_rational(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return _ZERO
    # a numerator past 2**64 in a third of the draws
    top = 2**72 if rng.random() < 1 / 3 else 9
    return F(rng.randint(-top, top), rng.choice(WIDE_DENOMINATORS))


def _wide_lp(rng):
    """Programs whose row scaling needs the lcm of coprime denominators."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[_wide_rational(rng, 0.3) for _ in range(n)] for _ in range(m)]
    rhs = [_wide_rational(rng, 0.2) for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        rows[1] = [3 * a for a in rows[0]]  # a dependent row
        rhs[1] = 3 * rhs[0]
    minimize = rng.choice((True, False))  # a minimization is max -c . x
    objective = [_wide_rational(rng, 0.2) for _ in range(n)]
    relations = [rng.choice((lp.LE, lp.EQ, lp.GE)) for _ in range(m)]
    return lp.LpProblem([-c for c in objective] if minimize else objective, sparse_rows(rows),
                        relations, rhs)


def test_wide_denominator_lps_match_the_dense_kernel():
    rng = random.Random(1000003)
    statuses = set()
    for _ in range(400):
        p = routed(_wide_lp(rng))
        out = lp.solve_lp(copy.deepcopy(p))
        assert out == _dense_solve_lp(copy.deepcopy(p)), p
        assert lp.verify_certificate(p, out), p
        _assert_linear_solve(dense_rows(p.rows, len(p.objective)), p.rhs)
        statuses.add(out.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def _reference_dual(phase1, p, basis, costs):
    """`_dense_basis_dual` of p's reference standard form on the basis `lp`
    ended on, as problem-row multipliers. `lp` keeps a floor program's late
    column in its face's slot and the reference after the program's
    columns, so every column of `lp` past the slot is one further on there;
    the artificials are unit columns in both."""
    std = _ReferenceStdForm(p)
    shift = len(p.objective) - phase1.n  # 1 on a floor program, else 0
    basis = [col + shift if col > phase1.n else col for col in basis]
    return std.problem_multipliers(_dense_basis_dual(
        std, range(len(std.rows)), basis, lambda col: costs(std, col)))


def test_duals_from_the_stored_inverse_equal_the_dense_elimination(monkeypatch):
    # every program's duals are read off its face's stored inverse and its
    # final reduced costs; the dense elimination of its final basis must
    # give the same vector, as must the infeasible face's phase-1 basis for
    # the Farkas vector, the one the dense kernel's own phase 1 returns
    pivot, optimize = lp._pivot, lp._optimize
    pivots, ended = 0, []

    def counted(*args):
        nonlocal pivots
        pivots += 1
        pivot(*args)

    def spied(tab, red, basis, ncols):
        nonlocal pivots
        pivots = 0
        out = optimize(tab, red, basis, ncols)
        ended.append((list(basis), pivots))
        return out

    monkeypatch.setattr(lp, "_pivot", counted)
    monkeypatch.setattr(lp, "_optimize", spied)
    seen = collections.Counter()
    rng = random.Random(2303)
    faces = [random_lp(rng) for _ in range(500)] + [_wide_lp(rng) for _ in range(200)]
    for face in faces:
        phase1 = lp._Phase1(face)
        if phase1.farkas is not None:
            expected = _reference_dual(phase1, face, ended[-1][0],
                                       lambda std, col: _ONE if col >= std.ncols else _ZERO)
            assert phase1.farkas == expected == _dense_solve_lp(face).farkas, face
            seen["infeasible face"] += 1
            continue
        redundant = any(col >= phase1.ncols for col in phase1.basis)
        n = phase1.n
        programs = [("pricing", face.objective, None), ("zero objective", [_ZERO] * n, None),
                    ("zero objective", [_ZERO] * (n + 1), 1),
                    ("pricing", [random_rational(rng, -3, 3) for _ in range(n + 1)], 1)]
        programs += [(f"floor, mu {mu}", [_ZERO] * n + [_ONE], mu) for mu in (0, 1, 2)]
        for name, objective, mu in programs:
            problem = phase1.program(objective, mu)
            out = lp.solve_lp(problem)
            if out.status != lp.OPTIMAL:
                continue
            basis, count = ended[-1]
            expected = _reference_dual(phase1, problem, basis, lambda std, col: (
                std.cost[col] if col < std.ncols else _ZERO))
            assert out.dual == [-v for v in expected], (name, problem)
            if mu is None:  # a late column may change the dense kernel's phase 1
                assert out == _dense_solve_lp(copy.deepcopy(problem)), (name, problem)
            seen[name] += 1
            seen["0 phase-2 pivots" if count == 0 else "1 phase-2 pivot" if count == 1
                 else "several phase-2 pivots"] += 1
            # an artificial of B0 is still basic, so its reduced cost is 0
            assert all(col in basis for col in phase1.basis if col >= phase1.ncols)
            seen["redundant row, its artificial basic"] += redundant
    assert all(seen[case] >= 10 for case in (
        "infeasible face", "pricing", "zero objective", "floor, mu 0", "floor, mu 1",
        "floor, mu 2", "0 phase-2 pivots", "several phase-2 pivots",
        "redundant row, its artificial basic")), seen


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


def _start_row_programs(rng):
    """(face kind, program kind, phase 1, objective, push) on feasible
    random, wide-denominator and market faces: pricing objectives, which
    hold zero and negative entries, with and without a late entry, and the
    floor objective at push 0, 1 and 2."""
    small, wide = partial(random_rational, rng, -3, 3), partial(_wide_rational, rng, 0.2)
    faces = [("random", lp._Phase1(random_lp(rng)), small) for _ in range(500)]
    faces += [("wide", lp._Phase1(_wide_lp(rng)), wide) for _ in range(250)]
    for k in range(100):
        maker = random_arbitrary_market if k % 2 else random_arbitrage_free_market
        faces.append(("market", arbitrage._face(require_valid(maker(rng)))[0], small))
    for kind, phase1, draw in faces:
        if phase1.farkas is not None:
            continue  # an infeasible face runs no phase 2
        n = phase1.n
        yield kind, "pricing", phase1, [draw() for _ in range(n)], None
        yield (kind, "pricing, late entry", phase1, [draw() for _ in range(n + 1)],
               rng.choice((0, 1, 2)))
        for mu in (0, 1, 2):
            yield kind, f"floor, mu {mu}", phase1, [_ZERO] * n + [_ONE], mu


def test_the_phase_two_start_row_is_the_per_column_elimination(monkeypatch):
    # phase 2 builds its start row in one integer sum over the face's
    # tableau; it must be the very dict that eliminating each basic column
    # by its own `_combine` gives, key -1 included, and a phase 2 started
    # from either row must give the same outcome field for field
    programs = list(_start_row_programs(random.Random(3303)))
    optimize, state = lp._optimize, {}

    def spied(tab, red, basis, ncols):
        if -1 in red:  # phase 2's start row; no phase-1 cost row holds key -1
            expected = _per_column_start_row(tab, basis, state["problem"].objective)
            assert red == expected, state
            state["started"] += 1
            if state["swap"]:
                red.clear()
                red.update(expected)
        return optimize(tab, red, basis, ncols)

    monkeypatch.setattr(lp, "_optimize", spied)
    seen = collections.Counter()
    for kind, name, phase1, objective, mu in programs:
        problem = phase1.program(objective, mu)
        state.update(kind=kind, name=name, problem=problem, started=0)
        outcomes = []
        for swap in (False, True):
            state["swap"] = swap
            outcomes.append(lp.solve_lp(problem))
        assert state["started"] == 2, state
        assert outcomes[0] == outcomes[1], (kind, name, problem)
        seen[kind] += 1
        seen[name] += 1
        seen["zero entry"] += name.startswith("pricing") and _ZERO in objective
        seen["negative entry"] += any(v < 0 for v in objective)
        pivots = [row[col] for row, col in zip(phase1.tab, phase1.basis)
                  if col < len(objective) and objective[col]]
        seen["several basic columns with a cost"] += len(pivots) > 1
        seen["a basic pivot above 1"] += any(a > 1 for a in pivots)
    assert len(programs) >= 2000, len(programs)
    assert all(seen[case] >= 100 for case in (
        "random", "wide", "market", "pricing", "pricing, late entry", "floor, mu 0",
        "floor, mu 1", "floor, mu 2", "zero entry", "negative entry",
        "several basic columns with a cost", "a basic pivot above 1")), seen


def test_integer_rows_are_primitive_multiples_of_the_fraction_rows():
    rng = random.Random(31337)
    problems = [random_lp(rng) for _ in range(1000)]
    rng = random.Random(1000003)
    problems += [_wide_lp(rng) for _ in range(400)]
    for p in problems:
        (rows, scale, cols, ncols), ref = lp._standard(p), _ReferenceStdForm(p)
        assert ncols == ref.ncols and len(rows) == len(ref.rows), p
        n = ref.nvars
        for stored, s, sign, ref_row, ref_b in zip(rows, scale, ref.row_sign, ref.rows, ref.rhs):
            # a row stores its nonzeros by column, the rhs at key ncols; its
            # scale is negative exactly where the reference negated the row
            assert all(type(v) is int and v for v in stored.values()), p
            row = [stored.get(j, 0) for j in range(ncols + 1)]
            assert (s < 0) == (sign < 0) and len(stored) == sum(1 for v in row if v), p
            assert gcd(*row) in (0, 1), p
            assert row == [abs(s) * v for v in ref_row + [ref_b]], p
            assert row[n] == 0, p  # the late column's slot, empty
        # the same entries by column, the rhs left out
        assert cols == [{k: row[j] for k, row in enumerate(rows) if j in row}
                        for j in range(ncols)], p


def test_pivots_store_only_nonzeros_of_primitive_rows(monkeypatch):
    # after every pivot, in the tableau, the reduced-cost row and the basis
    # dual solves alike: no stored entry is 0 and every nonempty row has gcd 1
    pivot = lp._pivot
    pivots = 0

    def checked(rows, r, c, red=None):
        nonlocal pivots
        pivot(rows, r, c, red)
        pivots += 1
        for row in rows if red is None else [*rows, red]:
            assert all(type(v) is int and v for v in row.values()), row
            assert not row or gcd(*row.values()) == 1, row

    monkeypatch.setattr(lp, "_pivot", checked)
    rng = random.Random(31337)
    for _ in range(1000):
        lp.solve_lp(routed(random_lp(rng)))
    assert pivots > 1000


def _crash_spy(monkeypatch):
    """Records each phase 1's crash: for each `lp._Phase1` built, its
    problem, the row, column, rhs and cost-row flag of each pivot made
    before Bland's rule starts, and the basis and integer cost row there."""
    phase_one, optimize, pivot = lp._phase_one, lp._optimize, lp._pivot
    crashes, state = [], {}

    def spied_phase_one(tab, scale, cols, n):
        state.update(n=n, crash=True)
        return phase_one(tab, scale, cols, n)

    def spied_optimize(tab, red, basis, ncols):
        if state.pop("crash", False):
            crashes[-1]["basis"], crashes[-1]["red"] = list(basis), dict(red)
        return optimize(tab, red, basis, ncols)

    def spied_pivot(rows, r, c, red=None):
        if state.get("crash"):
            crashes[-1]["pivots"].append((r, c, rows[r].get(state["n"], 0), red is not None))
        pivot(rows, r, c, red)

    class Recorded(lp._Phase1):
        def __init__(self, p):
            crashes.append({"problem": p, "pivots": []})
            super().__init__(p)

    monkeypatch.setattr(lp, "_phase_one", spied_phase_one)
    monkeypatch.setattr(lp, "_optimize", spied_optimize)
    monkeypatch.setattr(lp, "_pivot", spied_pivot)
    monkeypatch.setattr(lp, "_Phase1", Recorded)
    return crashes


def test_crash_pivots_are_on_zero_rhs_rows_and_keep_the_phase_one_costs(monkeypatch):
    # every crash pivot is on a row whose rhs is 0 and updates the cost
    # row; where Bland's rule starts, that row is a positive multiple of
    # the phase-1 reduced costs and value computed from scratch for the
    # crash basis: y^T B = 1 on the artificials, d_j = -y . A_j, -y . b
    crashes = _crash_spy(monkeypatch)
    rng = random.Random(2707)
    for _ in range(600):
        lp.solve_lp(routed(random_lp(rng)))
    for _ in range(200):
        lp.solve_lp(routed(_wide_lp(rng)))
    for k in range(40):
        maker = random_arbitrary_market if k % 2 else random_arbitrage_free_market
        arbitrage.check_na(maker(rng))
    pivots = 0
    for crash in crashes:
        std = _ReferenceStdForm(crash["problem"])
        n = std.ncols
        assert all(rhs == 0 and with_costs for _, _, rhs, with_costs in crash["pivots"]), crash
        pivots += len(crash["pivots"])
        y = _dense_basis_dual(std, range(len(std.rows)), crash["basis"],
                              lambda col: _ONE if col >= n else _ZERO)
        expected = [-sum((v * std.rows[k][j] for k, v in y.items()), _ZERO) for j in range(n)]
        expected.append(-sum((v * std.rhs[k] for k, v in y.items()), _ZERO))
        red = crash["red"]
        assert set(red) == {j for j, v in enumerate(expected) if v}, crash
        if red:
            j = min(red)
            lam = red[j] / expected[j]
            assert lam > 0 and all(red[j] == lam * expected[j] for j in red), crash
    assert len(crashes) > 800 and pivots > 400


def test_a_zero_rhs_row_that_cancels_in_the_crash_keeps_its_artificial():
    # rows 0 and 1 are one equation x0 = x1 with rhs 0: row 0 crashes on
    # x0, which empties row 1; the crash passes it by, its artificial stays
    # basic through the drive-out, and its dual is 0
    p = LpProblem([F(1), F(1)], sparse_rows([[F(1), F(-1)], [F(2), F(-2)], [F(1), F(1)]]),
                  [EQ, EQ, LE], [_ZERO, _ZERO, _ONE])
    phase1 = lp._Phase1(p)
    assert phase1.basis[:2] == [0, phase1.ncols + 1] and phase1.tab[1] == {}
    out = lp.solve_lp(phase1.program(p.objective))
    assert out == _dense_solve_lp(p)
    assert (out.status, out.objective_value, out.dual[1]) == (lp.OPTIMAL, _ONE, _ZERO)
