"""Exact rational linear programming with verifiable certificates.

Problems are maximizations over nonnegative variables only:

    maximize   c . x
    subject to row_i . x  (<= | = | >=)  rhs_i       for every row
               x >= 0

and solved by a two-phase tableau simplex under Bland's rule: entering
variable is the lowest-index column with negative reduced cost, leaving row
breaks ratio ties by lowest basic-variable index. Phase 1 starts Bland's
rule from a crash basis (below), so it terminates just the same. With exact
arithmetic this terminates on every input and there are no numeric failure
modes; a basis seen twice in one phase can only come from a kernel fault and
raises SoundnessError instead of looping. A minimization of c . x is the
maximization of -c . x: the same standard form and pivots, with the value
and the duals negated.

A problem row is sparse from the start, in `LpProblem`, `redundancy`'s
system and the replay alike: the tuple of its nonzeros as (column, value) pairs,
columns increasing; only an objective is a dense list. The tableau is
fraction-free and sparse too. Each row and the reduced-cost row is a dict
{column: int} of its nonzero entries, the rhs under key ncols, and stands
for a primitive integer vector (gcd 1), a positive multiple of the
rational row, so every sign, and with it every Bland choice, is the
rational tableau's: the entering column is the least key below ncols with
a negative reduced cost. A row's coefficient at its basic column is
positive. A pivot on column c with pivot row p replaces each row holding
an entry a at c by p[c] * row - a * p, divided by its gcd; it visits only
p's nonzeros and deletes the entries that cancel, and rows without c are
untouched. The ratio test compares b_i / a_i by cross-multiplication. The
same elimination (`_reduce`, on integer rows, `_int_row`) brings a linear
system to reduced row-echelon form: `redundancy._replicate` reads every
option's verdict and replication straight off its integer rows, and
`_factor` runs it once per face to invert the face's basis. The
certificate replays in `model` and `arbitrage` use the same integer
arithmetic: `_over_lcm` puts rationals over one common denominator, and
`_dot` is the exact dot product built on it.

Fractions appear only at the boundary. `_standard` builds each standard
row [A | b] once, as a primitive integer vector rows[k] = scale[k] *
(problem row k, slack included), and phase 1 pivots these rows themselves
into its tableau; its reduced costs are -sum_k rows[k] / |scale[k]| over
one common integer denominator, a positive multiple of the rational
phase-1 row. The optimal value leaves as the cost row's rhs over lam
(`solve_lp`): the cost row is never summed against the point in
Fractions. The two sides leave only when read: an outcome keeps the
triple (column, b_i, a_i,B(i)) of each basic problem column with a
nonzero rhs, and an optimal one the dual weights (i, u) over den * lam
beside the face's kept inverse (below), and each read of `primal` or
`dual` derives a fresh list from them (`LpOutcome`), so a query that
returns a measure builds no duals and one that returns a hedge no point.
Each phase builds its start cost row as one integer sum of rows, made
primitive once (`_row_sum`).

Phase 1 begins with a crash (Bixby 1992, "Implementing the simplex method:
the initial basis"). Each row whose rhs is 0, fewest nonzeros first, pivots
on its column with the fewest nonzeros in the standard form, ties to the
lowest index; a row that earlier crash pivots emptied keeps its artificial.
A pivot on a zero rhs moves no value, so the crash basis is feasible for
phase 1, and the cost row, pivoted with it, stays that basis's reduced
costs. Bland's rule then runs from there on the rows the crash left
artificial. On a measure program's face the zero-rhs rows are the
martingale rows, which the crash takes smallest subtree first, each on a
leaf below its node: bottom-up elimination of a tree-shaped matrix, which
fills little (Parter 1961). Bland's rule from an all-artificial basis fills
the tableau and cancels it again: on the 64-leaf binomial ladder face it
makes 4042 row updates, the crash and Bland's rule after it 962.

The duals come from one factorization per face. `_factor` inverts B0'^T
once, B0' = diag(scale) B0 the stored columns of the basis B0 phase 1 ends
on, with scale[k] folded in, so one product gives y_k = scale[k] * y'_k, the
multiplier of problem row k. Phase 2 keeps its cost row lam times the
rational one, lam tracked at key -1, which no column uses, and starts it
with no row update: the cost row with every basic column eliminated is one
integer sum of the cost and the basic rows that have a cost, made primitive
once, so every row update is a pivot's. Its final reduced costs d = red /
lam satisfy d_j = -c_j + y'^T A'_j on every column whatever the final
basis, so y'^T B0' = c + d on B0's columns: a program's duals are the
stored inverse times c + d, with no elimination. An infeasible face's
Farkas vector is the same product with the phase-1 costs, 1 on each
artificial, on its phase-1 basis.

Phase 1 is stored, and `solve_lp` runs phase 2 from it.
`_Phase1(p)` runs phase 1 on all of p's columns and rows, its face, and keeps
p's own row, relation and rhs lists (not copies, so they must not change
after), the face's tableau and basis after the drive-out and the basis's
inverse, or instead of these the Farkas vector when the face is infeasible;
nothing writes to it after. Phase 1 never sees the objective, so
`_Phase1.program` builds every program on the face's own lists and sets its
frozen `phase1` to the route (the phase 1, mu), which no constructor or
`replace` can. With an int mu >= 0 a program has one late column more than
its rows hold: the face's column sum plus mu times each inequality row's
slack column, in each row its sum plus mu times +1 on <=, -1 on >= and 0 on
= (`_program_rows`). It never enters B0, so its programs share B0's
inverse. Phase 2 starts from copies of the face's tableau and basis; a late
column is written into the copy's slot as the same sum of the tableau's
columns. An empty slot never enters, so Bland's order is the face's. Such a
column keeps feasibility with the face (move its value onto every face
column and mu times it onto each slack) and keeps a face's Farkas vector y
one of the whole problem (y . A_late is a sum of y . A_j <= 0 and mu y_k
(+-1) <= 0), so the face's verdict and basis serve the whole problem.
Neither the face nor a program is checked, as the package builds both from
a compiled market. `solve_lp` takes nothing else: a problem with no route,
a `replace` copy of a program included, is a StructureError.

Every outcome carries a certificate checkable from the untouched data:

  optimal    -> primal vector, per-row dual vector (nonnegative on <= rows,
                nonpositive on >= rows), objective value; strong duality
                and complementary slackness hold as exact identities
  infeasible -> Farkas vector y (nonnegative on >= rows, nonpositive on <=
                rows) with y^T A <= 0 and y . rhs > 0, so no x >= 0 meets
                the aggregated row y^T A x = y . rhs
  unbounded  -> feasible point plus an improving ray r >= 0, c . r > 0

`verify_certificate` re-derives all of this from scratch; it shares no state
with the solver beyond the problem statement. It answers False, never
raises, for a problem with no route or a certificate entry that is not an
int or a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul

from .errors import SoundnessError, StructureError

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LpProblem:
    """max objective . x over x >= 0 subject to the rows. A face is one;
    a program `solve_lp` takes is one that `_Phase1.program` built on a
    face's lists, with `phase1` set to its route (the face's _Phase1, mu),
    which no constructor or `replace` sets, so a copy has no route. A row
    is its nonzeros' (column, value) pairs; a push program has one objective
    entry more than its rows' columns (the late column, `_program_rows`)."""

    objective: list[Fraction]
    rows: list[tuple[tuple[int, Fraction], ...]]
    relations: list[str]
    rhs: list[Fraction]
    phase1: tuple[_Phase1, int | None] | None = field(default=None, init=False, compare=False, repr=False)


class _Side:
    """A side of `LpOutcome`: a list set by the constructor or by hand sits
    in the outcome's own dict, which Python reads first, as it does for
    `functools.cached_property`; otherwise each read calls the partial that
    `_later` keeps under the field's name with a leading underscore. At
    class level it reads None, the field's default."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, outcome, owner=None):
        return None if outcome is None else outcome.__dict__[self.key]()


@dataclass
class LpOutcome:
    """An outcome and its certificate. An optimal or unbounded one from
    `solve_lp` keeps, for its primal, the triple (column, b, a) of each
    basic problem column with a nonzero rhs, and an optimal one, for its
    dual, the weights (i, u) over the denominator den * lam beside its
    face's kept inverse. Each read of `primal` or `dual` derives a fresh
    list from these (`_point`, `_duals`), so a query builds only the side it
    reads, any number of threads may read an outcome kept with a market, and
    a caller that writes into a list it got changes nothing kept. Equality,
    repr and `replace` read the sides as any caller does."""

    status: str
    primal: list[Fraction] | None = _Side()
    dual: list[Fraction] | None = _Side()
    objective_value: Fraction | None = None
    farkas: list[Fraction] | None = None
    ray: list[Fraction] | None = None


def _later(out: LpOutcome, **sides) -> LpOutcome:
    """`out` with each side named derived by its partial on every read (`_Side`)."""
    for name, derive in sides.items():
        del out.__dict__[name]
        out.__dict__["_" + name] = derive
    return out


def _rationals(values, field: str) -> None:
    """StructureError naming the first entry that is not an int or a
    Fraction; a bool is neither."""
    if {int, Fraction}.issuperset(map(type, values)):
        return  # the common case, decided in one pass over the types
    for j, v in enumerate(values):
        if type(v) not in (int, Fraction):
            raise StructureError(
                f"{field}[{j}] is {type(v).__name__} {v!r}, not an int or a Fraction"
            )


def _rational_lists(*lists) -> bool:
    """True when every argument is a list or tuple of ints and Fractions,
    the only entries an exact replay accepts."""
    return all(isinstance(v, (list, tuple)) and {int, Fraction}.issuperset(map(type, v))
               for v in lists)


def _list(value, field: str) -> None:
    """StructureError unless value is a list or a tuple."""
    if not isinstance(value, (list, tuple)):
        raise StructureError(f"{field} is {type(value).__name__}, not a list")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """`row` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: u // g for j, u in row.items()} if g > 1 else row


def _row_sum(red: dict[int, int], terms) -> dict[int, int]:
    """`red` plus f * row for each (f, row) in `terms`, one integer sum
    into `red`, then its nonzeros made primitive: how each phase builds
    its start cost row."""
    for f, row in terms:
        for j, v in row.items():
            red[j] = red.get(j, 0) + f * v
    return _primitive({j: v for j, v in red.items() if v})


def _int_row(row) -> dict[int, int]:
    """The primitive integer vector that is a positive multiple of a sparse
    row, as the dict of its nonzero entries."""
    ratios = [(j, v.as_integer_ratio()) for j, v in row]
    den = lcm(*(q for _, (_, q) in ratios))
    return _primitive({j: u * (den // q) for j, (u, q) in ratios})


def _over_lcm(values) -> tuple[list[int], int]:
    """(numerators, den): every value as an integer over one positive common
    denominator, the lcm of theirs, so values[j] == numerators[j] / den. A
    zero's denominator is 1, so the lcm is taken over the distinct
    denominators of the nonzero values, and a zero's numerator is 0."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*{q for u, q in ratios if u})
    return [u * (den // q) if u else 0 for u, q in ratios], den


def _dot(a, b) -> Fraction:
    """The exact dot product of two rational vectors: one integer sum over
    the product of their common denominators, made one Fraction at the end."""
    (u, du), (v, dv) = _over_lcm(a), _over_lcm(b)
    return Fraction(sum(map(mul, u, v)), du * dv)


def _combine(row, c, pc, nonzeros):
    """row <- pc * row - row[c] * p in place, p given by its nonzeros; then / gcd.

    Entries that cancel are deleted, so a row stores only its nonzeros."""
    a = row[c]
    g = gcd(pc, a)
    s, a = pc // g, a // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, v in nonzeros:
        if j in row:
            u = row[j] - a * v
            if u:
                row[j] = u
            else:
                del row[j]
        else:
            row[j] = -a * v
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _pivot(rows, r, c, red=None):
    """Eliminate column c from every row but r, and from `red`, by row r.

    Row r is negated first if its entry at c is negative, so every updated
    row stays a positive multiple of its rational counterpart. Only rows
    holding column c change, and each by row r's nonzeros alone.
    """
    p = rows[r]
    if p[c] < 0:
        for j in p:
            p[j] = -p[j]
    pc = p[c]
    nonzeros = list(p.items())
    for i, row in enumerate(rows):
        if c in row and i != r:
            _combine(row, c, pc, nonzeros)
    if red is not None and c in red:
        _combine(red, c, pc, nonzeros)


def _reduce(a: list[dict[int, int]], n: int) -> list[int]:
    """Gauss-Jordan on integer rows over their columns below n, in place.

    Rows are swapped so that row k holds the k-th pivot; returns the pivot
    columns. Every row after the last pivot row is zero below column n."""
    m = len(a)
    piv_cols: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        for sel in range(r, m):
            if col in a[sel]:
                break
        else:
            continue
        a[r], a[sel] = a[sel], a[r]
        _pivot(a, r, col)
        piv_cols.append(col)
        r += 1
    return piv_cols


def _standard(p: LpProblem):
    """Reduction of the rows to   A z = b (b >= 0), z >= 0;  phase 2
    minimizes -c . z over it. Returns (rows, scale, cols, ncols).

    The columns of z are the problem's n columns, in order, an empty slot at
    n for a late column (`_Phase1.program`), then one slack per inequality
    row, so a point or ray of the problem is z[:n]. Each row [A | b] is
    built once, straight from the problem row's pairs, as the dict of
    the nonzeros of a primitive integer vector, with the rhs at key ncols:
    rows[k] is scale[k] times problem row k, slack included. A slack entry
    is +-den (den the lcm of the row's denominators), and a row whose rhs is
    negative is built negated, so scale[k] < 0 exactly there. rows[k] is
    then |scale[k]| times the rational standard row, the invariant the
    tableau keeps; phase 1 pivots these rows in place. As each row is built,
    cols[j] takes its entry in column j, {row: int}.
    """
    slack = len(p.objective) + 1  # after the problem's columns and the slot
    total = slack + sum(1 for rel in p.relations if rel != EQ)
    rows, scale = [], []
    cols: list[dict[int, int]] = [{} for _ in range(total + 1)]
    for k, (coefs, rel, b) in enumerate(zip(p.rows, p.relations, p.rhs)):
        entries = [(j, a.as_integer_ratio()) for j, a in coefs]
        bn, bd = b.as_integer_ratio()
        den = lcm(bd, *(q for _, (_, q) in entries))
        d = -den if bn < 0 else den  # a negative rhs negates the row
        row = {j: u * (d // q) for j, (u, q) in entries}
        if rel != EQ:
            row[slack] = d if rel == LE else -d
            slack += 1
        if bn:
            row[total] = bn * (d // bd)
        g = gcd(*row.values()) or 1  # an all-zero row stays empty
        row = {j: v // g for j, v in row.items()} if g > 1 else row
        rows.append(row)
        scale.append(Fraction(d, g))
        for j, v in row.items():
            cols[j][k] = v
    del cols[total]  # the rhs is no column
    return rows, scale, cols, total


def _optimize(tab, red, basis, ncols):
    """Run Bland pivots to optimality; return entering column if unbounded."""
    seen = set()
    while True:
        entering = [j for j, v in red.items() if v < 0 and j < ncols]
        if not entering:
            return None
        jc = min(entering)
        r = br = ar = -1
        for i, row in enumerate(tab):
            if jc in row and row[jc] > 0:
                # ratio b / a against the best b_r / a_r; both divisors are positive
                a = row[jc]
                b = row[ncols] if ncols in row else 0
                d = -1 if r < 0 else b * ar - br * a
                if d < 0 or (d == 0 and basis[i] < basis[r]):
                    r, br, ar = i, b, a
        if r < 0:
            return jc
        key = tuple(basis)
        if key in seen:
            raise SoundnessError("simplex revisited a basis; solver invariant broken")
        seen.add(key)
        _pivot(tab, r, jc, red)
        basis[r] = jc


def _factor(cols, scale, basis: list[int], n: int):
    """The inverse of B'^T, B' the basis's columns of the standard form:
    basic column i's stored entries `cols[col]`, {row: int}, or for row k's
    artificial, column n + k, |scale[k]| at row k. Returns (columns, dens):
    for any w, the multipliers y_k = scale[k] * y'_k of the y' with
    y'^T B' = w are y_k = sum_i columns[i][k] * w_i / dens[k].

    One Gauss-Jordan elimination (`_reduce`) of the equations of y'^T B' = w
    beside the identity leaves each row k as its pivot and row k of the
    inverse. The equations go in sparsest first, so each y'_k pivots on the
    sparsest equation still holding it; the inverse, and so every integer
    it returns, is the same in any order, but on a tree-shaped basis this
    one fills least. An artificial's equation is taken times its scale's
    denominator, that multiple in the identity, so every entry is an
    integer. SoundnessError if B' is singular.
    """
    m = len(basis)
    a = []
    for i, col in enumerate(basis):
        if col >= n:  # an artificial, basic in its own row
            s = scale[col - n]
            a.append({col - n: abs(s.numerator), m + i: s.denominator})
        else:
            a.append({**cols[col], m + i: 1})
    a.sort(key=len)  # sparsest first: each pivot is on the sparsest equation holding it
    if len(_reduce(a, m)) < m:
        raise SoundnessError("basis matrix singular; solver invariant broken")
    columns: list[dict[int, int]] = [{} for _ in range(m)]
    dens = []
    for k, (row, s) in enumerate(zip(a, scale)):
        dens.append(row.pop(k) * s.denominator)  # its pivot, > 0, all it holds below m
        for i, u in row.items():
            columns[i - m][k] = u * s.numerator
    return columns, dens


def _duals(inverse, weights, den: int) -> list[Fraction]:
    """The multipliers y of the factored basis (`_factor`) for the weights
    w_i = u / den, given as the pairs (i, u) of the nonzero ones: each
    weight scatters its column of the inverse, and each y_k is one Fraction."""
    columns, dens = inverse
    y = [0] * len(dens)
    for i, u in weights:
        for k, v in columns[i].items():
            y[k] += v * u
    return [Fraction(v, d * den) if v else _ZERO for v, d in zip(y, dens)]


def _phase_one(tab, scale, cols, n):
    """Phase 1 on a standard form's rows, `tab`, pivoted in place into its
    tableau: the crash (see the module docstring), on the column counts of
    `cols`, then Bland's rule to the least sum of artificials, then the
    drive-out of zero-level artificials. Returns the basis, and whether the
    program is feasible; an infeasible one keeps its phase-1 basis, with no
    drive-out."""
    basis = [n + i for i in range(len(tab))]  # artificial variables, columns implicit

    # The reduced cost of column j is -sum of its rational column,
    # -sum_k rows[k][j] / |scale[k]|, here times the lcm of the scales'
    # numerators: a positive multiple, so every Bland choice is the rational one's.
    den = lcm(*(s.numerator for s in scale))
    red = _row_sum({}, [(-(den // abs(s.numerator) * s.denominator), row)
                        for row, s in zip(tab, scale)])

    # The crash: each row whose rhs is 0, fewest nonzeros first (a stable
    # sort, so then the lowest index), pivots on its column with the fewest
    # nonzeros in `cols` (then the lowest index). A pivot on a zero rhs
    # moves no value, so the basis stays feasible and every rhs keeps its
    # sign, and `red` stays the reduced costs of the current basis.
    zero_rhs = [i for i, row in enumerate(tab) if n not in row]
    for i in sorted(zero_rhs, key=lambda i: len(tab[i])):
        row = tab[i]
        if row:  # a row that cancelled to empty keeps its artificial
            jc = min(row, key=lambda j: (len(cols[j]), j))
            _pivot(tab, i, jc, red)
            basis[i] = jc
    if _optimize(tab, red, basis, n) is not None:
        raise SoundnessError("phase-1 unbounded; solver invariant broken")

    if any(row.get(n, 0) > 0 for row, col in zip(tab, basis) if col >= n):
        return basis, False

    # Drive remaining zero-level artificials out of the basis; their rows
    # have rhs 0, so they hold real columns only. A row that cannot pivot is
    # redundant and empty: its artificial stays basic at zero, no pivot
    # touches it, so its reduced cost stays 0 in every phase 2 and its
    # basis equation |scale| * y'_k = 0 gives it dual 0.
    for i, row in enumerate(tab):
        if basis[i] >= n and row:
            jc = min(row)
            _pivot(tab, i, jc)
            basis[i] = jc
    return basis, True


class _Phase1:
    """The end of phase 1 on a face, kept so that every program on the face
    starts phase 2 from it (see the module docstring): the face's standard
    rows, pivoted by phase 1 into its tableau, its basis B0, and the inverse
    of B0'^T (`_factor`), from which every program's duals are one product.
    The face is trusted, not validated. Read-only once built.
    """

    def __init__(self, p: LpProblem):
        # p's own lists, which every program shares: they must not change after
        self.rows, self.relations, self.rhs = p.rows, p.relations, p.rhs
        self.n = n = len(p.objective)
        tab, scale, cols, self.ncols = _standard(p)
        basis, feasible = _phase_one(tab, scale, cols, self.ncols)
        inverse = _factor(cols, scale, basis, self.ncols)
        self.farkas = self.inverse = self.tab = self.basis = self.tab_sums = None
        if not feasible:
            # an infeasible face keeps its Farkas vector alone: the duals of
            # its phase-1 basis for the phase-1 costs, 1 on each artificial
            self.farkas = _duals(inverse, [(i, 1) for i, col in enumerate(basis)
                                           if col >= self.ncols], 1)
            return
        self.inverse, self.tab, self.basis = inverse, tab, basis
        # each tableau row's late entry in two parts: its problem columns' and slacks' sums
        self.tab_sums = []
        for row in tab:
            slacks = sum(v for j, v in row.items() if n < j < self.ncols)
            self.tab_sums.append((sum(row.values()) - row.get(self.ncols, 0) - slacks, slacks))

    def program(self, objective: list[Fraction], mu: int | None = None) -> LpProblem:
        """The problem that maximizes `objective` on the face's own lists,
        routed to this phase 1; an int mu >= 0 adds a late column."""
        p = LpProblem(objective, self.rows, self.relations, self.rhs)
        object.__setattr__(p, "phase1", (self, mu))
        return p


def solve_lp(p: LpProblem) -> LpOutcome:
    """Phase 2, with certificate extraction, of a program `_Phase1.program`
    built: from copies of its stored phase 1's tableau and basis, mu's late
    column (if any) in the slot. An infeasible face's outcome is its Farkas
    vector; any other problem is a StructureError."""
    if not isinstance(p, LpProblem) or p.phase1 is None:
        raise StructureError(f"problem is {type(p).__name__} with no route to a phase 1, "
                             "not a program _Phase1.program built")
    phase1, mu = p.phase1
    if phase1.farkas is not None:
        return LpOutcome(status=INFEASIBLE, farkas=list(phase1.farkas))
    n = phase1.ncols
    tab, basis = [row.copy() for row in phase1.tab], list(phase1.basis)
    if mu is not None:
        for row, (head, slacks) in zip(tab, phase1.tab_sums):
            v = head + mu * slacks
            if v:
                row[phase1.n] = v
    nvars = len(p.objective)
    # The cost row of min -c . x, c = cost / den, stays lam times its
    # rational row, lam = red[-1] > 0 at a key no column uses. A basic column
    # is zero outside its own row i, where its entry a_i is positive, so the
    # row with every basic column eliminated is big (-cost, den) plus
    # cost[B(i)] big / a_i times row i for each basic column with a cost, big
    # the lcm of their a_i: one sum, made primitive once, with no row update.
    cost, den = _over_lcm(p.objective)
    terms = [(cost[col], row, row[col]) for row, col in zip(tab, basis)
             if col < nvars and cost[col]]
    big = lcm(*(a for _, _, a in terms))
    red = {j: -u * big for j, u in enumerate(cost) if u}
    red[-1] = den * big
    red = _row_sum(red, [(u * (big // a), row) for u, row, a in terms])
    jc = _optimize(tab, red, basis, n)
    # the basic point: each basic problem column with a nonzero rhs b at b / a, the rest 0
    primal = partial(_point, nvars, tuple((col, row[n], row[col]) for row, col in zip(tab, basis)
                                          if col < nvars and n in row))

    if jc is not None:
        d = [_ZERO] * n
        d[jc] = _ONE
        for row, col in zip(tab, basis):
            if jc in row:
                d[col] = Fraction(-row[jc], row[col])
        return _later(LpOutcome(status=UNBOUNDED, ray=d[:nvars]), primal=primal)

    # The final reduced costs d = red / lam of min -c . z are d_j = -c_j +
    # y'^T A'_j on every column, y' the duals of max c . x over the standard
    # rows, so y'^T B0' = c + d on the stored basis B0's columns: the duals
    # are the stored inverse times w = c + d, over the one denominator den * lam.
    # An artificial in B0 stays basic at zero (`_phase_one`), so its w is 0;
    # its column n + k is no key of red, whose key n is the rhs.
    lam = red[-1]
    weights = []
    for i, col in enumerate(phase1.basis):
        if col < n:
            u = red.get(col, 0) * den + (cost[col] * lam if col < nvars else 0)
            if u:
                weights.append((i, u))
    dual = partial(_duals, phase1.inverse, tuple(weights), den * lam)
    # once every basic column is eliminated from it, the cost row's rhs is
    # lam times c . x at the basic point, and every pivot keeps it so
    value = Fraction(red.get(n, 0), lam)
    return _later(LpOutcome(status=OPTIMAL, objective_value=value), primal=primal, dual=dual)


def _point(n: int, basic) -> list[Fraction]:
    """The n-vector with b / a at each (column, b, a) of `basic`, 0 elsewhere."""
    x = [_ZERO] * n
    for col, b, a in basic:
        x[col] = Fraction(b, a)
    return x


def _row_value(row, x: list[Fraction]) -> Fraction:
    return sum((a * x[j] for j, a in row), _ZERO)


def _feasible(p: LpProblem, x: list[Fraction], rhs: list[Fraction]) -> bool:
    """x >= 0 meets every row of p, each against its entry of `rhs`."""
    if any(v < 0 for v in x):
        return False
    for row, rel, b in zip(p.rows, p.relations, rhs):
        lhs = _row_value(row, x)
        if rel == LE and lhs > b or rel == GE and lhs < b or rel == EQ and lhs != b:
            return False
    return True


def _dual_signs_ok(p: LpProblem, y: list[Fraction]) -> bool:
    """y >= 0 on every <= row and y <= 0 on every >= row."""
    return not any((v < 0 and rel == LE) or (v > 0 and rel == GE)
                   for v, rel in zip(y, p.relations))


def _aggregate(p: LpProblem, y: list[Fraction]) -> list[Fraction]:
    """y^T A: the rows of p weighted by y and summed."""
    total = [_ZERO] * len(p.objective)
    for yi, row in zip(y, p.rows):
        if yi:
            for j, a in row:
                total[j] += yi * a
    return total


def _program_rows(p: LpProblem) -> list[tuple[tuple[int, Fraction], ...]]:
    """A routed program's rows in full: the face's own, or with a push mu
    each with its late entry appended, the pair (n, v) for the face's n
    columns when v is nonzero (see the module docstring)."""
    phase1, mu = p.phase1
    if mu is None:
        return p.rows
    sign = {LE: mu, GE: -mu, EQ: 0}
    late = [sum((a for _, a in row), _ZERO) + sign[rel] for row, rel in zip(p.rows, p.relations)]
    return [(*row, (phase1.n, v)) if v else row for row, v in zip(p.rows, late)]


def verify_certificate(p: LpProblem, o: LpOutcome) -> bool:
    """Re-check an outcome of a routed program from scratch, exactly, on its
    full rows. True iff everything holds; False for a problem with no route."""
    if not isinstance(p, LpProblem) or p.phase1 is None or not isinstance(o, LpOutcome):
        return False
    p = LpProblem(p.objective, _program_rows(p), p.relations, p.rhs)  # its full rows
    n = len(p.objective)
    m = len(p.rows)
    primal, dual = o.primal, o.dual  # each read derives its side afresh (`LpOutcome`)

    if o.status == OPTIMAL:
        if not _rational_lists(primal, dual, [o.objective_value]):
            return False
        if o.farkas is not None or o.ray is not None:
            return False
        if len(primal) != n or len(dual) != m:
            return False
        if not _feasible(p, primal, p.rhs):
            return False
        if _dot(p.objective, primal) != o.objective_value:
            return False
        if not _dual_signs_ok(p, dual):
            return False
        # dual feasibility and complementary slackness: a nonzero reduced
        # cost is negative, which holds its variable at 0, and it is 0; a row
        # with a nonzero dual is tight. With the primal feasible these give
        # c . x = y . rhs, so x and y are both optimal.
        for cj, sj, xj in zip(p.objective, _aggregate(p, dual), primal):
            dj = cj - sj
            if dj > 0:
                return False
            if dj and xj:
                return False
        for i in range(m):
            if dual[i] and _row_value(p.rows[i], primal) != p.rhs[i]:
                return False
        return True

    if o.status == INFEASIBLE:
        if not _rational_lists(o.farkas):
            return False
        if primal is not None or dual is not None or o.ray is not None:
            return False
        if o.objective_value is not None:
            return False
        y = o.farkas
        # signed as a dual negated: nonnegative on >= rows, nonpositive on <=
        if len(y) != m or not _dual_signs_ok(p, [-v for v in y]):
            return False
        # y^T A <= 0 while y . rhs > 0: for x >= 0 the aggregated row
        # y^T A x = y . rhs has a nonpositive left side and a positive right
        if any(v > 0 for v in _aggregate(p, y)):
            return False
        return sum((yi * bi for yi, bi in zip(y, p.rhs) if yi), _ZERO) > 0

    if o.status == UNBOUNDED:
        if not _rational_lists(primal, o.ray):
            return False
        if dual is not None or o.farkas is not None or o.objective_value is not None:
            return False
        if len(primal) != n or len(o.ray) != n:
            return False
        # the point is feasible, and so is every step along the ray r >= 0:
        # each row's drift along r keeps to its relation against 0
        if not _feasible(p, primal, p.rhs) or not _feasible(p, o.ray, [_ZERO] * m):
            return False
        return _dot(p.objective, o.ray) > 0

    return False
