"""The LP kernel's corpora, its reference and its one observer, stated once
for the suite; `tests/test_lp_contracts.py` checks every contract on every
row of `PROGRAMS`, so a kernel change reads one table and edits one spy.

`PROGRAMS` has one row per corpus of faces: seeded random faces
(`markets.random_lp`), faces whose rows need the lcm of coprime wide
denominators (`_wide_lp`), and market faces (`_market_faces`). Every face
carries the same programs (`_programs`). A row solves them when first read,
each once, under one `KernelSpy` (`_solve`), and keeps them until dropped.

The reference is a dense `Fraction` kernel that shares no reduction or
kernel code with `lp`: its own standard form, a tableau pivot that scales
its pivot row to 1, the crash, Bland's rule, the route of `solve_lp` (one
phase 1 per face, kept, and from it a phase 2 per program), and `oracle`'s
dense Gauss-Jordan elimination for `lp._reduce`. `lp` keeps every row a
primitive integer multiple of these rows, so every outcome must equal the
reference's field for field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd
from typing import Callable

import pytest

from hedgecert import arbitrage, lp
from hedgecert.lp import EQ, LE, LpProblem
from hedgecert.model import require_valid
from markets import (
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
)
from oracle import _dense_gauss_jordan, _dense_solve_unique, hedge_program

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the dense reference kernel
# ---------------------------------------------------------------------------


def _sum(values) -> Fraction:
    """The sum of `values`; a zero, which adds nothing, costs no addition."""
    return sum((v for v in values if v), _ZERO)


class _ReferenceStdForm:
    """Reduction of max c.x to   min cost.z  s.t.  A z = b (b >= 0), z >= 0,
    with cost = -c.

    z is the face's n columns, then the slot that `lp` keeps for a late
    column, then one slack per inequality row, so a point or ray of the
    problem is z[:len(c)]. A routed program's face is its rows over its
    phase 1's n columns, each densified (`markets.dense_rows`); with a push
    mu its late column fills the slot: in each standard row the sum of the
    face's columns plus mu times the slack's, the row's sum plus mu times +1
    on <=, -1 on >= and 0 on = (`lp._program_rows`). Any other problem is
    its own face, its slot empty. `late` is mu, else None; row_sign[k] is
    -1 when the row was negated to make its rhs nonnegative.
    """

    def __init__(self, p: LpProblem):
        n, mu = (len(p.objective), None) if p.phase1 is None else (p.phase1[0].n, p.phase1[1])
        rows = dense_rows(p.rows, n)
        rhs = list(p.rhs)
        nslack = sum(1 for rel in p.relations if rel != EQ)
        k = n + 1
        sign: list[int] = []
        for i, row in enumerate(rows):
            row.extend([_ZERO] * (1 + nslack))
            if p.relations[i] != EQ:
                row[k] = _ONE if p.relations[i] == LE else Fraction(-1)
                k += 1
            if mu is not None:
                row[n] = _sum(row[:n]) + mu * _sum(row[n + 1:])
            if rhs[i] < 0:
                rows[i] = [-v if v else v for v in row]
                rhs[i] = -rhs[i]
                sign.append(-1)
            else:
                sign.append(1)

        self.nvars = len(p.objective)
        self.slot, self.late = n, mu
        self.ncols = n + 1 + nslack
        self.rows = rows
        self.rhs = rhs
        self.row_sign = sign
        self.cost = [-c for c in p.objective] + [_ZERO] * (self.ncols - self.nvars)

    def problem_multipliers(self, y_std: dict[int, Fraction]) -> list[Fraction]:
        """The standard rows' multipliers as the problem rows' multipliers."""
        return [s * y_std.get(k, _ZERO) for k, s in enumerate(self.row_sign)]


def _dense_pivot(tab, rhs, red, basis, r, jc):
    # a zero entry of the pivot row changes no entry, so it costs no product
    prow = tab[r]
    piv = prow[jc]
    if piv != 1:
        inv = _ONE / piv
        tab[r] = prow = [v * inv if v else v for v in prow]
        rhs[r] *= inv
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[jc]
        if f:
            tab[i] = [u - f * v if v else u for u, v in zip(row, prow)]
            rhs[i] -= f * rhs[r]
    f = red[jc]
    if f:
        red[:] = [u - f * v if v else u for u, v in zip(red, prow)]
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
    reduced = [[Fraction(row.get(j, 0), row[col]) for j in range(width)] for row, col in zip(a, piv_cols)]
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


def _dense_phase_one(std):
    """Phase 1 of the reference on a face's standard form (its slot empty):
    the crash, Bland's rule, then the drive-out, each redundant row dropped.
    An infeasible face's outcome, its Farkas vector; else (tab, rhs, basis,
    keep), the tableau at the end and the standard rows it keeps."""
    assert std.late is None
    m, n = len(std.rows), std.ncols
    tab = [row[:] for row in std.rows]
    rhs = std.rhs[:]
    basis = [n + i for i in range(m)]
    red = [-sum((row[j] for row in tab), _ZERO) for j in range(n)]
    _dense_crash(std, tab, rhs, red, basis)
    assert _dense_optimize(tab, rhs, red, basis, n) is None
    if sum((rhs[i] for i in range(m) if basis[i] >= n), _ZERO) > 0:
        y_std = _dense_basis_dual(std, range(m), basis, lambda col: _ONE if col >= n else _ZERO)
        return lp.LpOutcome(status=lp.INFEASIBLE, farkas=std.problem_multipliers(y_std))
    keep = []
    for i in range(m):
        if basis[i] >= n:
            jc = next((j for j in range(n) if tab[i][j]), -1)
            if jc < 0:
                continue
            _dense_pivot(tab, rhs, red, basis, i, jc)
        keep.append(i)
    return [tab[i] for i in keep], [rhs[i] for i in keep], [basis[i] for i in keep], keep


def _dense_solve_lp(p, start):
    """The reference's outcome of p on the route `lp` takes, and the basis
    its phase 2 ended on (None on an infeasible face): from `start`, the
    `_dense_phase_one` of p's face, phase 2 runs on copies of its tableau
    and basis. The tableau is B^-1 times the standard rows, so a late
    column, a sum of standard columns, is the same sum of the tableau's
    columns, written into the copy's slot."""
    std = _ReferenceStdForm(p)
    if isinstance(start, lp.LpOutcome):
        return lp.LpOutcome(status=lp.INFEASIBLE, farkas=list(start.farkas)), None
    n, nvars, slot = std.ncols, std.nvars, std.slot
    tab, rhs, basis, active = [row[:] for row in start[0]], *(list(v) for v in start[1:])
    if std.late is not None:
        for row in tab:
            row[slot] = _sum(row[:slot]) + std.late * _sum(row[slot + 1:])
    red = std.cost[:]
    for i, row in enumerate(tab):
        cb = std.cost[basis[i]]
        if cb:
            red = [u - cb * v if v else u for u, v in zip(red, row)]
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
        return lp.LpOutcome(status=lp.UNBOUNDED, primal=z[:nvars], ray=d[:nvars]), basis
    x = z[:nvars]
    y_std = _dense_basis_dual(std, active, basis, lambda col: std.cost[col])
    y = [-v for v in std.problem_multipliers(y_std)]  # min cost . z negated: max c . x
    value = sum((c * v for c, v in zip(p.objective, x) if c), _ZERO)
    return lp.LpOutcome(status=lp.OPTIMAL, primal=x, dual=y, objective_value=value), basis


# ---------------------------------------------------------------------------
# the one spy on the kernel
# ---------------------------------------------------------------------------

# A pivot made by `_phase_one` before Bland's rule starts is the crash's, one
# inside its `_optimize` Bland's and one after it the drive-out's; one inside
# any other `_optimize` is phase 2's, and any other is a `_reduce` pivot, in
# `_factor` or in `redundancy`.
PHASES = ("crash", "bland", "drive-out", "reduce", "phase 2")
PHASE_ONE = PHASES[:3]


@dataclass
class Run:
    """One `_optimize` call: `start`, its arguments where it starts (tab,
    red, basis, ncols), the rows, cost row and basis copied; `end`, copies
    of its cost row and basis where it ends and what it returned; and the
    pivots it made."""

    start: tuple
    end: tuple | None = None
    pivots: int = 0


class KernelSpy:
    """Records what the kernel does while installed (by `monkeypatch`):
    - `work[phase]`: pivots (`_pivot` calls), row updates (`_combine`
      calls), the entries of each update's pivot-row `nonzeros`, the row's
      length where an update rescales it, and the entries an update passes
      to `gcd` after its first call: the row's length after the update;
    - `crashes`: per phase 1, (row, column, rhs, cost row updated) of each
      crash pivot; `tabs`: per phase 1, its tableau as it ends;
    - `runs`: a `Run` per `_optimize` call;
    - `unreduced`: a copy of each row a pivot wrote, the cost row included,
      and of each cost row an `_optimize` starts from, that holds a zero
      entry or a common factor (an entry that is not an int fails `gcd`).
    With `rows` False it copies and checks no row: a `Run` keeps no start
    and `unreduced` stays empty, for a caller that reads the counts alone.
    """

    def __init__(self, monkeypatch, rows=True):
        self.rows = rows
        self.work = {phase: [0] * 5 for phase in PHASES}
        self.crashes, self.tabs, self.runs, self.unreduced = [], [], [], []
        self.phase = "reduce"
        self.gcds = None  # gcd calls so far in the row update under way, else None
        pivot, combine, optimize, phase_one = lp._pivot, lp._combine, lp._optimize, lp._phase_one

        def spied_pivot(*args):  # rows, r, c[, red]
            rows, r = args[0], args[1]
            self.work[self.phase][0] += 1
            if self.phase == "crash":
                with_costs = len(args) > 3 and args[3] is not None
                self.crashes[-1].append((r, args[2], rows[r].get(self.ncols, 0), with_costs))
            elif self.phase in ("bland", "phase 2"):
                self.runs[-1].pivots += 1
            returned = pivot(*args)
            self._check(rows[r])
            return returned

        def spied_combine(*args):  # row, c, pc, nonzeros
            row, c, pc, nonzeros = args[:4]
            counts = self.work[self.phase]
            counts[1] += 1
            counts[2] += len(nonzeros)
            if pc // gcd(pc, row[c]) != 1:
                counts[3] += len(row)
            self.gcds = 0
            returned = combine(*args)
            self.gcds = None
            self._check(row)
            return returned

        def spied_gcd(*args):
            if self.gcds is not None:
                if self.gcds:
                    self.work[self.phase][4] += len(args)
                self.gcds += 1
            return gcd(*args)

        def spied_optimize(*args):  # tab, red, basis, ncols
            outer = self.phase
            self.phase = "bland" if outer == "crash" else "phase 2"
            tab, red, basis = args[:3]
            self._check(red)
            run = Run(([row.copy() for row in tab], dict(red), list(basis), *args[3:])
                      if self.rows else None)
            self.runs.append(run)
            returned = optimize(*args)
            self.phase = "drive-out" if outer == "crash" else outer
            run.end = (dict(red), list(basis), returned)
            return returned

        def spied_phase_one(*args):  # tab, scale, cols, ncols
            self.phase, self.ncols = "crash", args[3]
            self.crashes.append([])
            returned = phase_one(*args)
            self.phase = "reduce"
            self.tabs.append(args[0])
            return returned

        for name, spied in [("_pivot", spied_pivot), ("_combine", spied_combine), ("gcd", spied_gcd),
                            ("_optimize", spied_optimize), ("_phase_one", spied_phase_one)]:
            monkeypatch.setattr(lp, name, spied)

    def _check(self, row) -> None:
        values = row.values()
        if self.rows and row and (not all(values) or gcd(*values) != 1):
            self.unreduced.append(dict(row))

    def counts(self, phases=PHASES) -> list[int]:
        """The five counts of `work`, summed over the phases named."""
        return [sum(column) for column in zip(*(self.work[phase] for phase in phases))]


# ---------------------------------------------------------------------------
# the corpora
# ---------------------------------------------------------------------------

WIDE_DENOMINATORS = (3, 5, 7, 11, 64, 10**6 + 3)


def _wide_rational(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return _ZERO
    # a numerator past 2**64 in a third of the draws
    top = 2**72 if rng.random() < 1 / 3 else 9
    return Fraction(rng.randint(-top, top), rng.choice(WIDE_DENOMINATORS))


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


def _measure_face(m) -> LpProblem:
    """The measure programs' face of market m, on the lists `arbitrage._face` built."""
    phase1 = arbitrage._face(require_valid(m))[0]
    return LpProblem([_ZERO] * phase1.n, phase1.rows, phase1.relations, phase1.rhs)


def _market_faces(rng):
    """The measure face and the oracle hedge LP, on a seeded claim, of each
    fixture and of 13 seeded markets of up to four periods and 24 leaves;
    then the measure face of 240 seeded markets, the two generators in turn."""
    markets = nar_fixture_markets() + [pinned_identical_options_market(), binomial_with_free_option()]
    markets += [random_arbitrage_free_market(rng, min_periods=3) for _ in range(4)]
    markets += [random_arbitrage_free_market(rng, max_leaves=24, min_periods=3) for _ in range(2)]
    markets += [random_arbitrary_market(rng) for _ in range(6)]
    # a four-period tree: 16 leaves, so the dynamic gains outweigh the options
    markets.append(random_arbitrage_free_market(rng, max_periods=4, min_periods=4, max_leaves=16))
    hedges = [("hedge", hedge_program(m, random_claim(rng, m))) for m in markets]
    markets += [(random_arbitrary_market if k % 2 else random_arbitrage_free_market)(rng)
                for k in range(240)]
    return [("market", _measure_face(m)) for m in markets] + hedges


def _programs(face: LpProblem, draw, rng):
    """(name, objective, push) of each program a face carries: its own
    objective, unless it is the zero one, as on a measure face; the zero and
    a priced objective (entries by `draw`), each also with a late column at
    a drawn push; and the floor at mu 0, 1 and 2."""
    n = len(face.objective)
    zero = [_ZERO] * n
    if face.objective != zero:
        yield "own", face.objective, None
    yield "zero", zero, None
    yield "priced", [draw() for _ in range(n)], None
    yield "zero, late", zero + [_ZERO], rng.choice((0, 1, 2))
    yield "priced, late", [draw() for _ in range(n + 1)], rng.choice((0, 1, 2))
    for mu in (0, 1, 2):
        yield f"floor, mu {mu}", zero + [_ONE], mu


def _ended(phase1: lp._Phase1, bland: Run) -> list[int]:
    """The basis a phase 1 ended on: B0, after the drive-out, or on an
    infeasible face, where none runs, the basis Bland's rule ended on."""
    return bland.end[1] if phase1.farkas is not None else phase1.basis


@dataclass
class Program:
    """One program of a face: its name, the program `_Phase1.program`
    built, its warm outcome, and with a late column its cold one, on a fresh
    phase 1 of its full rows (`markets.routed`), and the basis that phase 1
    ended on (`_ended`) in the face's columns; the spy's run of its warm
    phase 2, None on an infeasible face, which runs none; and the dense
    kernel's outcome and end basis, from the face's dense phase 1
    (`_dense_solve_lp`)."""

    name: str
    problem: LpProblem
    warm: lp.LpOutcome
    cold: lp.LpOutcome | None
    cold_ended: list[int] | None
    run: Run | None
    dense: tuple


@dataclass
class Face:
    """One face of a row: its kind, the face and a copy of its lists taken
    before phase 1, its phase 1, the spy's crash pivots and Bland run of
    that phase 1, the basis it ended on (`_ended`), the dense kernel's
    phase 1 of it (`_dense_phase_one`), and its programs."""

    kind: str
    problem: LpProblem
    before: LpProblem
    phase1: lp._Phase1
    crash: list
    bland: Run
    ended: list[int]
    dense: tuple | lp.LpOutcome
    programs: list[Program]


def _solve(spy: KernelSpy, kind: str, problem: LpProblem, draw, rng) -> Face:
    # a row is a tuple of (column, Fraction) pairs, which nothing can write
    before = LpProblem(*(list(p) for p in (problem.objective, problem.rows, problem.relations,
                                           problem.rhs)))
    crashes, runs = len(spy.crashes), len(spy.runs)
    phase1 = lp._Phase1(problem)
    (crash,), (bland,) = spy.crashes[crashes:], spy.runs[runs:]
    dense = _dense_phase_one(_ReferenceStdForm(problem))
    face = Face(kind, problem, before, phase1, crash, bland, _ended(phase1, bland), dense, [])
    n = phase1.n
    colds = {}  # by push, the phase 1 of the full rows: a cold solve's, whatever its objective
    for name, objective, mu in _programs(problem, draw, rng):
        program = phase1.program(objective, mu)
        runs = len(spy.runs)
        warm = lp.solve_lp(program)
        run = spy.runs[runs] if len(spy.runs) > runs else None
        cold = cold_ended = None
        if mu is not None:
            if mu not in colds:
                runs = len(spy.runs)
                full = routed(program).phase1[0]
                # the full rows hold the late column at n, so their empty
                # slot is n + 1 and each later column one further on
                colds[mu] = full, [c if c <= n else c - 1 for c in _ended(full, spy.runs[runs])]
            full, cold_ended = colds[mu]
            cold = lp.solve_lp(full.program(objective))
        face.programs.append(Program(name, program, warm, cold, cold_ended, run,
                                     _dense_solve_lp(program, dense)))
    return face


@dataclass(frozen=True)
class Row:
    """One corpus. `make(rng)` draws its faces as (kind, face) pairs and
    `draw(rng)` an entry of a priced objective, both from one rng seeded by
    `seed`; `least` is how often the corpus reaches each case, at the least
    (`test_lp_contracts.test_each_row_reaches_its_cases`)."""

    name: str
    seed: int
    make: Callable
    draw: Callable
    least: dict

    @cached_property
    def solved(self) -> tuple[list[Face], KernelSpy]:
        """The row's faces, each solved (`_solve`), and the spy that watched them."""
        rng = random.Random(self.seed)
        faces = self.make(rng)
        with pytest.MonkeyPatch.context() as patch:
            spy = KernelSpy(patch)
            return [_solve(spy, kind, p, partial(self.draw, rng), rng) for kind, p in faces], spy

    faces = property(lambda self: self.solved[0])
    spy = property(lambda self: self.solved[1])

    def drop(self) -> None:
        """Forget what `solved` keeps; a later read builds it again."""
        self.__dict__.pop("solved", None)


_STATUSES = (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED)
_FLOORS = tuple(f"floor, mu {mu}" for mu in (0, 1, 2))

# each row reaches every case as often as the tests its contracts replaced did
PROGRAMS = {row.name: row for row in [
    Row("random", 31337, lambda rng: [("random", random_lp(rng)) for _ in range(1000)],
        partial(random_rational, lo=-3, hi=3), {
            "faces": 1000, "pivots": 1000, "crash pivots": 400, "phase 2": 2000, lp.OPTIMAL: 400,
            **{("own", s): 20 if s != lp.INFEASIBLE else 1 for s in _STATUSES},
            **{("priced, late", s): 1 for s in _STATUSES},
            **{(name, lp.OPTIMAL): 10 for name in ("own", "zero", *_FLOORS)},
            **dict.fromkeys(("infeasible face", "0 phase-2 pivots", "several phase-2 pivots",
                             "redundant row, its artificial basic"), 10),
            **dict.fromkeys(("priced", "priced, late", *_FLOORS, "zero entry", "negative entry",
                             "several basic columns with a cost", "a basic pivot above 1"), 100),
        }),
    Row("wide", 1000003, lambda rng: [("wide", _wide_lp(rng)) for _ in range(400)],
        partial(_wide_rational, zero_share=0.2), {
            "faces": 400, "phase 2": 100, "infeasible face": 10,
            "redundant row, its artificial basic": 10, **{("own", s): 1 for s in _STATUSES},
        }),
    Row("market", 20240607, _market_faces, partial(random_rational, lo=-3, hi=3), {
        "faces": 240, "phase 2": 100, "infeasible face": 21, ("priced", lp.OPTIMAL): 20,
        ("floor, mu 0", lp.OPTIMAL): 20, ("floor, mu 0", "cold from one basis"): 240,
        "the widest hedge face under half full": 1,
        **{(name, s): 1 for name in ("floor, mu 0", "floor, mu 1", "priced")
           for s in (lp.OPTIMAL, lp.INFEASIBLE)},
    }),
]}
