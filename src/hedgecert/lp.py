"""Exact rational linear programming with verifiable certificates.

Problems are maximizations over nonnegative variables only:

    maximize   c . x
    subject to row_i . x  (<= | = | >=)  rhs_i       for every row
               x >= 0

and solved by a two-phase tableau simplex under Bland's rule: entering
variable is the lowest-index column with negative reduced cost, leaving row
breaks ratio ties by lowest basic-variable index. With exact arithmetic this
terminates on every input and there are no numeric failure modes; a basis
seen twice in one phase can only come from a kernel fault and raises
SoundnessError instead of looping. A minimization of c . x is the
maximization of -c . x: the same standard form and pivots, with the value
and the duals negated.

The tableau is fraction-free and sparse. Each row and the reduced-cost row
is a dict {column: int} of its nonzero entries, the rhs under key ncols,
and stands for a primitive integer vector (gcd 1), a positive multiple of
the rational row, so every sign, and with it every Bland choice, is the
rational tableau's: the entering column is the least key below ncols with
a negative reduced cost. A row's coefficient at its basic column is
positive. A pivot on column c with pivot row p replaces each row holding
an entry a at c by p[c] * row - a * p, divided by its gcd; it visits only
p's nonzeros and deletes the entries that cancel, and rows without c are
untouched. The ratio test compares b_i / a_i by cross-multiplication. The
Gauss-Jordan solve `solve_linear` uses the same elimination (`_eliminate`,
on integer rows) and returns a particular solution and the rank;
`reduce_linear` stops the same elimination after a prefix of the columns,
which is how `redundancy` reduces every option's payoff at once. The basis
duals build their integer rows directly and call `_eliminate` themselves.
`LpProblem` itself stays dense.

Fractions appear only at the boundary. The standard form builds each row
[A | b] once, from the problem's nonzero entries, as the nonzeros of a
primitive integer vector rows[k] = scale[k] * (problem row k, slack
included), with scale[k] < 0 exactly where the row is negated to make its
rhs nonnegative. The tableau starts as a copy of these rows; the phase-1
reduced costs are -sum_k rows[k] / |scale[k]| over one common integer
denominator, a positive multiple of the rational phase-1 row; the basis
duals solve y'^T B' = c_B on the integer columns and return
y_k = scale[k] * y'_k, the multiplier of problem row k. Values leave as
b_i / a_i,B(i). Every problem entry must be an int or a Fraction; anything
else is a StructureError naming the field and index, and makes
`verify_certificate` return False, as does a certificate entry that is not
an int or a Fraction.

Phase 1 and phase 2 are separate routines, and a phase 1 can be stored.
`phase_one(p, nvars)` runs phase 1 on p's face, its first nvars columns
with every row, and keeps a `Phase1`: p's own row, relation and rhs lists
(not copies, so they must not change after), the face's standard form and
its tableau and basis after the drive-out, or instead of these the Farkas
vector when the face is infeasible. Phase 1 never sees the
objective, so every problem whose `LpProblem.phase1` names it, and whose
rows, relations and rhs agree with the face (else StructureError), starts
phase 2 from a copy of its tableau. Columns past the face are late: none
enters phase 1 or the drive-out. Each must be the sum of the face's
columns plus an integer mu_k >= 0 times the slack column of each
inequality row k, which the solver checks and uses to derive the late
column of the tableau as the same sum of the tableau's columns; any other
late column is a StructureError. Such a column keeps feasibility with the
face (move its value onto every face column and mu_k times it onto each
slack) and keeps a face's Farkas vector y one of the whole problem
(y . A_late is a sum of y . A_j <= 0 and mu_k y_k (+-1) <= 0), so the
face's verdict and basis serve the whole problem. `solve_lp` without a
stored phase 1 runs phase 1 on all of the problem's columns.

Every outcome carries a certificate checkable from the untouched data:

  optimal    -> primal vector, per-row dual vector (nonnegative on <= rows,
                nonpositive on >= rows), objective value; strong duality
                and complementary slackness hold as exact identities
  infeasible -> Farkas vector y (nonnegative on >= rows, nonpositive on <=
                rows) with y^T A <= 0 and y . rhs > 0, so no x >= 0 meets
                the aggregated row y^T A x = y . rhs
  unbounded  -> feasible point plus an improving ray r >= 0, c . r > 0

`verify_certificate` re-derives all of this from scratch; it shares no state
with the solver beyond the problem statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import SoundnessError, StructureError

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpProblem:
    objective: list[Fraction]
    rows: list[list[Fraction]]
    relations: list[str]
    rhs: list[Fraction]
    # a stored phase 1 of the problem's face (`phase_one`) to start phase 2
    # from; the problem it was built from keeps its lists unchanged after
    phase1: Phase1 | None = field(default=None, compare=False, repr=False)


@dataclass
class LpOutcome:
    status: str
    primal: list[Fraction] | None = None
    dual: list[Fraction] | None = None
    objective_value: Fraction | None = None
    farkas: list[Fraction] | None = None
    ray: list[Fraction] | None = None


_RATIONAL = (int, Fraction)


def _rationals(values, field: str) -> None:
    """StructureError naming the first entry that is not an int or a Fraction."""
    if {int, Fraction}.issuperset(map(type, values)):
        return  # the common case, decided in one pass over the types
    for j, v in enumerate(values):
        if not isinstance(v, _RATIONAL):
            raise StructureError(
                f"{field}[{j}] is {type(v).__name__} {v!r}, not an int or a Fraction"
            )


def _rational_lists(*lists) -> bool:
    """True when every argument is a list or tuple of ints and Fractions,
    the only entries an exact replay accepts."""
    return all(isinstance(v, (list, tuple)) and {int, Fraction}.issuperset(map(type, v))
               for v in lists)


def _validate(p: LpProblem) -> None:
    n = len(p.objective)
    m = len(p.rows)
    if len(p.relations) != m or len(p.rhs) != m:
        raise StructureError("row count mismatch between rows, relations, rhs")
    for i, row in enumerate(p.rows):
        if len(row) != n:
            raise StructureError(f"row {i} has {len(row)} coefficients, expected {n}")
    for i, rel in enumerate(p.relations):
        if rel not in (LE, EQ, GE):
            raise StructureError(f"row {i}: unknown relation {rel!r}")
    _rationals(p.objective, "objective")
    _rationals(p.rhs, "rhs")
    for i, row in enumerate(p.rows):
        _rationals(row, f"rows[{i}]")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """`row` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: u // g for j, u in row.items()} if g > 1 else row


def _int_row(values) -> dict[int, int]:
    """The primitive integer vector that is a positive multiple of `values`,
    as the dict of its nonzero entries."""
    ratios = [(j, v.as_integer_ratio()) for j, v in enumerate(values) if v]
    den = lcm(*(q for _, (_, q) in ratios))
    return _primitive({j: u * (den // q) for j, (u, q) in ratios})


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


def _system_width(rows, rhs=None) -> int:
    """The column count of a linear system, after checking its shape and
    entries; StructureError naming the first fault."""
    if not rows:
        raise StructureError("a linear system needs at least one row to fix its column count")
    n = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructureError(f"rows[{i}] has {len(row)} entries, expected {n}")
        _rationals(row, f"rows[{i}]")
    if rhs is not None:
        if len(rhs) != len(rows):
            raise StructureError(f"rhs has {len(rhs)} entries for {len(rows)} rows")
        _rationals(rhs, "rhs")
    return n


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> tuple[list[Fraction], int] | None:
    """Solve rows . x = rhs exactly by Gauss-Jordan elimination.

    Returns a solution, with every column that takes no pivot at 0, and the
    rank of `rows`; None when the system is inconsistent. Any shape with at
    least one row is accepted; a ragged row, an rhs of another length or an
    entry that is not an int or a Fraction is a StructureError.
    """
    n = _system_width(rows, rhs)
    return _eliminate([_int_row([*row, b]) for row, b in zip(rows, rhs)], n)


def reduce_linear(rows: list[list[Fraction]], n: int) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss-Jordan elimination of `rows` on their first n columns only.

    Pivots are taken in column order, each on the first remaining row that
    holds the column, as in `solve_linear`. Returns the pivot columns and,
    for every row in eliminated order, its entries from column n on. Row k
    below the rank has been divided by its pivot, so its entries are exact;
    each later row is zero on the first n columns, and its entries are a
    positive multiple of the exact residual, which is all a span test needs.
    """
    width = _system_width(rows)
    if not 0 <= n <= width:
        raise StructureError(f"cannot eliminate {n} columns of rows with {width}")
    a = [_int_row(row) for row in rows]
    piv_cols = _reduce(a, n)
    tails = []
    for k, row in enumerate(a):
        d = row[piv_cols[k]] if k < len(piv_cols) else 1
        tails.append([Fraction(row.get(j, 0), d) for j in range(n, width)])
    return piv_cols, tails


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


def _basic_point(tab, basis, n) -> list[Fraction]:
    """The point whose basic column in each row takes that row's b / a, and
    every other column of the n takes 0."""
    z = [_ZERO] * n
    for row, col in zip(tab, basis):
        b = row.get(n)
        if b:
            z[col] = Fraction(b, row[col])
    return z


def _eliminate(a: list[dict[int, int]], n: int) -> tuple[list[Fraction], int] | None:
    """`solve_linear` on integer rows [A | b], each a positive multiple of
    its rational row, of n columns with the rhs at key n; `a` is overwritten."""
    piv_cols = _reduce(a, n)
    if any(n in row for row in a[len(piv_cols):]):
        return None  # inconsistent
    return _basic_point(a, piv_cols, n), len(piv_cols)


class _StdForm:
    """Reduction of the rows to   A z = b (b >= 0), z >= 0;  phase 2
    minimizes -c . z over it.

    The columns of z are the problem's n columns, in order, then one slack
    per inequality row, so a point or ray of the problem is z[:n]. Each row
    [A | b] is built once, straight from the problem's nonzero entries, as
    the dict of the nonzeros of a primitive integer vector, with the rhs at
    key ncols: rows[k] is scale[k] times problem row k, slack included. A
    slack entry is +-den (den the lcm of the row's denominators), and a row
    whose rhs is negative is built negated, so scale[k] < 0 exactly there.
    rows[k] is then |scale[k]| times the rational standard row, the
    invariant the tableau keeps.
    """

    def __init__(self, p: LpProblem):
        n = len(p.objective)
        slack = n
        total = n + sum(1 for rel in p.relations if rel != EQ)
        rows: list[dict[int, int]] = []
        scale: list[Fraction] = []
        for coefs, rel, b in zip(p.rows, p.relations, p.rhs):
            entries = [(j, a.as_integer_ratio()) for j, a in enumerate(coefs) if a]
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
            rows.append({j: v // g for j, v in row.items()} if g > 1 else row)
            scale.append(Fraction(d, g))

        self.ncols = total
        self.rows = rows
        self.scale = scale


def _widen(rows, heads, nf: int, shift: int, mus: list[dict[int, int]]) -> list[dict[int, int]]:
    """Copies of integer rows, the columns from nf on moved by `shift`,
    with late column nf + l of a row put in as its sum over the columns
    below nf, heads[row], plus mus[l][j] times its entry at each column j
    that mus[l] names."""
    out = []
    for row, head in zip(rows, heads):
        new = {j if j < nf else j + shift: v for j, v in row.items()} if shift else row.copy()
        for l, mu in enumerate(mus):
            v = head + sum(m * row[j] for j, m in mu.items() if j in row) if mu else head
            if v:
                new[nf + l] = v
        out.append(new)
    return out


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


def _basis_dual(std: _StdForm, basis: list[int], costs) -> list[Fraction]:
    """Exact duals from the final basis: solve y^T B = cost_B afresh.

    B is read from the integer rows, B' = diag(scale) B with B the problem
    rows' basis columns, so the solve gives y' with y'^T B' = cost_B and the
    problem rows' multipliers are y_k = scale[k] * y'_k. Columns at index
    >= ncols are artificials, whose standard column is the identity vector
    of their row: |scale[k]| at row k in B'. Each equation is
    built as a primitive integer row, a positive multiple of
    [B' column | cost], with the cost at key len(basis).
    """
    if not basis:
        return []
    n = std.ncols
    m = len(basis)
    equation = {col: k for k, col in enumerate(basis) if col < n}  # column -> its equation
    mat: list[dict[int, int]] = [{} for _ in basis]
    for i, row in enumerate(std.rows):
        if basis[i] >= n and not costs(basis[i]):
            continue  # its artificial's equation alone gives y_i = 0
        for col, v in row.items():
            if col in equation:
                mat[equation[col]][i] = v
    for k, col in enumerate(basis):
        cost = costs(col)
        row = mat[k]
        if col >= n:  # an artificial, basic in its own row
            s = abs(std.scale[col - n])
            den = lcm(s.denominator, cost.denominator)
            row = {col - n: s.numerator * (den // s.denominator)}
        else:
            den = cost.denominator
            if den > 1:
                row = {j: v * den for j, v in row.items()}
        if cost:
            row[m] = cost.numerator * (den // cost.denominator)
        mat[k] = _primitive(row)
    solved = _eliminate(mat, m)
    if solved is None or solved[1] < m:
        raise SoundnessError("basis matrix singular; solver invariant broken")
    return [s * v for s, v in zip(std.scale, solved[0])]


def _phase_one(std: _StdForm):
    """Phase 1 on a standard form: the least sum of artificials, then the
    drive-out of zero-level artificials. Returns the tableau, the basis and
    the Farkas vector of an infeasible program, else None."""
    m = len(std.rows)
    n = std.ncols
    tab = [row.copy() for row in std.rows]
    basis = [n + i for i in range(m)]  # artificial variables, columns implicit

    # The reduced cost of column j is -sum of its rational column,
    # -sum_k rows[k][j] / |scale[k]|, here times the lcm of the scales'
    # numerators: a positive multiple, so every Bland choice is the rational one's.
    den = lcm(*(s.numerator for s in std.scale))
    red: dict[int, int] = {}
    for row, s in zip(std.rows, std.scale):
        w = den // abs(s.numerator) * s.denominator
        for j, v in row.items():
            if j in red:
                red[j] -= w * v
            else:
                red[j] = -w * v
    red = _primitive({j: v for j, v in red.items() if v})
    if _optimize(tab, red, basis, n) is not None:
        raise SoundnessError("phase-1 unbounded; solver invariant broken")

    if any(row.get(n, 0) > 0 for row, col in zip(tab, basis) if col >= n):
        return tab, basis, _basis_dual(std, basis, lambda col: _ONE if col >= n else _ZERO)

    # Drive remaining zero-level artificials out of the basis; their rows
    # have rhs 0, so they hold real columns only. A row that cannot pivot is
    # redundant and empty: its artificial stays basic at zero, no pivot
    # touches it, and its basis-dual equation scale * y_k = 0 gives it dual 0.
    for i, row in enumerate(tab):
        if basis[i] >= n and row:
            jc = min(row)
            _pivot(tab, i, jc)
            basis[i] = jc
    return tab, basis, None


class Phase1:
    """The end of phase 1 on a problem's face, kept so that every problem
    on the face starts phase 2 from it (see the module docstring). Built by
    `phase_one`; read-only after. Its standard form numbers the columns as
    the problem it was built from, whose late columns stay empty, so a
    problem with as many late columns needs no renumbering.
    """

    def __init__(self, p: LpProblem, nvars: int):
        width = len(p.objective)
        self.nvars, self.width = nvars, width
        # p's own lists, kept to check later problems against: they must
        # not change after, as `LpProblem.phase1` says
        self.rows, self.relations, self.rhs = p.rows, p.relations, p.rhs
        # the face numbered as p, its late columns left empty
        face = p.rows if nvars == width else [row[:nvars] for row in p.rows]
        std = _StdForm(LpProblem([_ZERO] * width, face, p.relations, p.rhs))
        tab, basis, self.farkas = _phase_one(std)
        # Each row's sum over the face's columns: every column from nvars
        # on is a slack column or the rhs, so it is the whole row's sum less
        # the entries at those few columns. `_widen` starts each late entry
        # from it; `_late` compares with the standard row's over its scale,
        # kept in lowest terms as sum_num / sum_den.
        ncols = std.ncols
        self.heads, self.sum_num, self.sum_den = [], [], []
        slack = width  # a standard row's only slack column
        for row, rel, s in zip(std.rows, p.relations, std.scale):
            head = sum(row.values()) - row.get(ncols, 0)
            if rel != EQ:
                head -= row.get(slack, 0)
                slack += 1
            den, num = s.as_integer_ratio()  # head / s = head * num / den
            num *= head
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            self.heads.append(head)
            self.sum_num.append(num // g)
            self.sum_den.append(den // g)
        self.std = self.tab = self.basis = self.tab_heads = None
        if self.farkas is None:  # an infeasible face keeps its Farkas vector alone
            self.std, self.tab, self.basis = std, tab, basis
            past = range(width, ncols + 1)
            self.tab_heads = [sum(row.values()) - sum(row[j] for j in past if j in row)
                              for row in tab]

    def _late(self, p: LpProblem, col: int) -> dict[int, int]:
        """mu with column `col` of p the sum of the face's columns plus
        mu[s] times each slack column s, mu[s] a positive integer;
        StructureError when there is none."""
        mu = {}
        slack = self.width  # the slack column of the next inequality row
        for k, (row, rel, sn, sd) in enumerate(
                zip(p.rows, self.relations, self.sum_num, self.sum_den)):
            an, ad = row[col].as_integer_ratio()
            if an != sn or ad != sd:
                # the entry less the sum is num / den, den > 0
                num, den = an * sd - sn * ad, ad * sd
                if rel == EQ or (num < 0) == (rel == LE) or num % den:
                    raise StructureError(
                        f"column {col} is not the sum of the face's columns plus a "
                        f"nonnegative integer multiple of each slack column: rows[{k}] has {row[col]}"
                    )
                mu[slack] = abs(num) // den
            slack += rel != EQ
        return mu

    def _start(self, p: LpProblem):
        """p's standard form, tableau and basis to start phase 2 from, and
        the Farkas vector when the face is infeasible; StructureError when p
        is not a problem on this face."""
        nf, n = self.nvars, len(p.objective)
        if n < nf or len(p.rows) != len(self.rows):
            raise StructureError(
                f"phase 1 is of {len(self.rows)} rows and {nf} columns, "
                f"the problem has {len(p.rows)} rows and {n} columns"
            )
        if list(p.relations) != list(self.relations):
            raise StructureError("the problem's relations differ from its phase 1's")
        if list(p.rhs) != list(self.rhs):
            raise StructureError("the problem's rhs differs from its phase 1's")
        if p.rows is not self.rows:
            for i, (row, face) in enumerate(zip(p.rows, self.rows)):
                if list(row[:nf]) != list(face[:nf]):
                    raise StructureError(f"rows[{i}] differs from its phase 1's face")
        mus = [self._late(p, col) for col in range(nf, n)]
        if self.farkas is not None:
            return None, None, None, list(self.farkas)
        shift = n - self.width
        tab = _widen(self.tab, self.tab_heads, nf, shift, mus)
        basis = [col if col < nf else col + shift for col in self.basis]
        std = self.std
        if mus or shift:
            std = object.__new__(_StdForm)
            std.rows = _widen(self.std.rows, self.heads, nf, shift, mus)
            std.scale, std.ncols = self.std.scale, self.std.ncols + shift
        return std, tab, basis, None


def phase_one(p: LpProblem, nvars: int | None = None) -> Phase1:
    """Phase 1 of p's face: its first `nvars` columns (all by default) with
    all of its rows. Neither the objective nor the other columns play a
    part, so every problem with the same face can start phase 2 from it by
    naming it in `LpProblem.phase1`."""
    _validate(p)
    n = len(p.objective)
    if nvars is None:
        nvars = n
    if type(nvars) is not int or not 0 <= nvars <= n:
        raise StructureError(f"a face of {nvars!r} columns of a problem with {n}")
    return Phase1(p, nvars)


def _phase_two(p: LpProblem, std: _StdForm, tab, basis) -> LpOutcome:
    """Phase 2 on the real objective from a feasible basis, and the outcome."""
    n = std.ncols
    nvars = len(p.objective)
    # Eliminate every basic column from the cost row of min -c . x. A basic
    # column is zero outside its own row, whose entry there is positive, so
    # only the cost row changes.
    red = _int_row([-c for c in p.objective])
    for row, col in zip(tab, basis):
        if col in red:
            _combine(red, col, row[col], row.items())
    jc = _optimize(tab, red, basis, n)

    if jc is not None:
        d = [_ZERO] * n
        d[jc] = _ONE
        for row, col in zip(tab, basis):
            if jc in row:
                d[col] = Fraction(-row[jc], row[col])
        return LpOutcome(
            status=UNBOUNDED,
            primal=_basic_point(tab, basis, n)[:nvars],
            ray=d[:nvars],
        )

    x = _basic_point(tab, basis, n)[:nvars]
    # y^T B = c_B: the duals of max c . x, the negated duals of min cost . z
    y = _basis_dual(std, basis, lambda col: p.objective[col] if col < nvars else _ZERO)
    value = sum((c * v for c, v in zip(p.objective, x) if c), _ZERO)
    return LpOutcome(status=OPTIMAL, primal=x, dual=y, objective_value=value)


def solve_lp(p: LpProblem) -> LpOutcome:
    """Two-phase exact simplex with Bland's rule and certificate extraction.

    Phase 2 starts from `p.phase1` when the problem names one, else from
    a phase 1 of the whole problem."""
    _validate(p)
    if p.phase1 is None:
        std = _StdForm(p)
        tab, basis, farkas = _phase_one(std)
    elif isinstance(p.phase1, Phase1):
        std, tab, basis, farkas = p.phase1._start(p)
    else:
        raise StructureError(f"phase1 is {type(p.phase1).__name__}, not a Phase1")
    if farkas is not None:
        return LpOutcome(status=INFEASIBLE, farkas=farkas)
    return _phase_two(p, std, tab, basis)


def _row_value(row: list[Fraction], x: list[Fraction]) -> Fraction:
    return sum((a * v for a, v in zip(row, x) if a), _ZERO)


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
            for j, a in enumerate(row):
                if a:
                    total[j] += yi * a
    return total


def verify_certificate(p: LpProblem, o: LpOutcome) -> bool:
    """Re-check an outcome from scratch, exactly. True iff everything holds."""
    if not isinstance(p, LpProblem) or not isinstance(o, LpOutcome):
        return False
    try:
        _validate(p)
    except StructureError:
        return False
    n = len(p.objective)
    m = len(p.rows)

    if o.status == OPTIMAL:
        if not _rational_lists(o.primal, o.dual, [o.objective_value]):
            return False
        if o.farkas is not None or o.ray is not None:
            return False
        if len(o.primal) != n or len(o.dual) != m:
            return False
        if not _feasible(p, o.primal, p.rhs):
            return False
        if _row_value(p.objective, o.primal) != o.objective_value:
            return False
        if not _dual_signs_ok(p, o.dual):
            return False
        # dual feasibility and complementary slackness: a nonzero reduced
        # cost is negative, which holds its variable at 0, and it is 0; a row
        # with a nonzero dual is tight. With the primal feasible these give
        # c . x = y . rhs, so x and y are both optimal.
        for cj, sj, xj in zip(p.objective, _aggregate(p, o.dual), o.primal):
            dj = cj - sj
            if dj > 0:
                return False
            if dj and xj:
                return False
        for i in range(m):
            if o.dual[i] and _row_value(p.rows[i], o.primal) != p.rhs[i]:
                return False
        return True

    if o.status == INFEASIBLE:
        if not _rational_lists(o.farkas):
            return False
        if o.primal is not None or o.dual is not None or o.ray is not None:
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
        if not _rational_lists(o.primal, o.ray):
            return False
        if o.dual is not None or o.farkas is not None or o.objective_value is not None:
            return False
        if len(o.primal) != n or len(o.ray) != n:
            return False
        # the point is feasible, and so is every step along the ray r >= 0:
        # each row's drift along r keeps to its relation against 0
        if not _feasible(p, o.primal, p.rhs) or not _feasible(p, o.ray, [_ZERO] * m):
            return False
        return _row_value(p.objective, o.ray) > 0

    return False
