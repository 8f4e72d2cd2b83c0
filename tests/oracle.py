"""Independent cross-checks for the test suite. Never on the production path.

Three reference programs, each an LP formulation the package no longer
uses: the strategy-side surplus program for no-arbitrage, the strategy-side
hedge program for super-hedging prices and the replication LP for option
redundancy. `lp` solves over x >= 0 only, so `_free_program` splits their
free columns. Two reference pipelines the package replaced: redundancy by
one elimination of [1 | G | P_others] per option, and `sharper_ftap` that
solves the no-arbitrage program before the robust one. And,
exponential-time by design behind hard size guards: vertex enumeration of
the consistent-measure polytope (so dual prices can be checked against a
max over vertices) and the definitional robust-no-arbitrage scan that
shrinks quotes through a dyadic ladder and reruns the reference
no-arbitrage check. The per-option elimination and the vertex enumeration
run a dense `Fraction` Gauss-Jordan of their own (`_dense_gauss_jordan`),
which shares no kernel with `lp`. Last, the two certificate walks the
package replaced: terminal gains and the martingale replay in `Fraction`
arithmetic, path by path from the root to each leaf. Every path and gain
row here is derived from `Node.parent` and the node prices
(`leaf_paths`, `reference_gain_rows`), never from a compiled market's
fields, so the oracle stays independent of `model._compile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from hedgecert import lp
from hedgecert.arbitrage import (
    ArbitrageCertificate,
    MartingaleMeasure,
    NaVerdict,
    check_na,
    check_nar,
)
from hedgecert.errors import DomainError, PreconditionError, SoundnessError
from hedgecert.model import (
    Claim,
    MarketModel,
    OptionQuote,
    Strategy,
    ZERO,
    ONE,
    _check_strategy_shape,
    require_valid,
    terminal_gain,
)
from hedgecert.redundancy import (
    NonredundancyVerdict,
    ReplicationCertificate,
    SharperFtapBundle,
    SpreadOptionsReport,
)
from markets import net_legs, routed, sparse_rows

MAX_ORACLE_LEAVES = 10


@dataclass
class VertexSet:
    vertices: list[list[Fraction]]

    def best_value(self, payoff: list[Fraction], maximize: bool = True):
        """Exact optimum of a linear claim over the polytope, None if empty."""
        if not self.vertices:
            return None
        values = [
            sum((w * v for w, v in zip(vertex, payoff) if w), ZERO)
            for vertex in self.vertices
        ]
        return max(values) if maximize else min(values)


@dataclass
class NarScanResult:
    holds: bool
    passes_at: int | None = None


def leaf_paths(m: MarketModel) -> list[list[int]]:
    """Each leaf's root-to-leaf node ids, in leaf position order, walked up
    `Node.parent`."""
    by_id = {node.id: node for node in m.tree.nodes}
    paths = []
    for leaf in sorted(node.id for node in m.tree.nodes if node.time == m.tree.periods):
        path = [leaf]
        while by_id[path[-1]].parent is not None:
            path.append(by_id[path[-1]].parent)
        paths.append(path[::-1])
    return paths


def reference_gain_rows(m: MarketModel):
    """(columns, rows): the (node, asset) dynamic columns, non-leaf ids
    ascending, and per leaf, in leaf order, the price change of each asset
    across each period step of the leaf's path, at the column of the node
    the step leaves, and zero at every column off the path."""
    by_id = {node.id: node for node in m.tree.nodes}
    nonleaf = sorted(node.id for node in m.tree.nodes if node.time < m.tree.periods)
    columns = [(nid, j) for nid in nonleaf for j in range(m.tree.num_assets)]
    rows = []
    for path in leaf_paths(m):
        change = {(here, j): by_id[there].prices[j] - by_id[here].prices[j]
                  for here, there in zip(path, path[1:]) for j in range(m.tree.num_assets)}
        rows.append(tuple(change.get(column, ZERO) for column in columns))
    return tuple(columns), tuple(rows)


def dense_face(m: MarketModel) -> list[tuple[list[Fraction], str, Fraction]]:
    """The measure programs' face as (row, relation, rhs) triples, in the
    row order `arbitrage._face` lays out, dense over the charged leaves and
    built from `reference_gain_rows`: mass one, each martingale row with a
    nonzero coefficient on a charged leaf, then per option its quote rows,
    = bid without a spread, else >= bid and <= ask."""
    c = require_valid(m)
    supp = c.charged
    columns, gains = reference_gain_rows(m)
    face = [([ONE] * len(supp), lp.EQ, ONE)]
    martingale = ([gains[pos][col] for pos in supp] for col in range(len(columns)))
    face += [(coefs, lp.EQ, ZERO) for coefs in martingale if any(coefs)]
    for opt in c.options:
        coefs = [opt.payoff[pos] for pos in supp]
        sides = [(lp.GE, opt.bid), (lp.LE, opt.ask)] if opt.has_spread() else [(lp.EQ, opt.bid)]
        face += [(coefs, rel, bound) for rel, bound in sides]
    return face


def strategy_rows(m: MarketModel) -> list[list[Fraction]]:
    """Per leaf position, the gain per unit of each strategy column, in the
    order `CompiledMarket.strategy_from` reads: the dynamic columns
    (`reference_gain_rows`), then one buy leg and one sell leg per option."""
    return [[*row, *(opt.payoff[pos] - opt.ask for opt in m.options),
             *(-(opt.payoff[pos] - opt.bid) for opt in m.options)]
            for pos, row in enumerate(reference_gain_rows(m)[1])]


def _free_program(objective, rows, relations, rhs, free: int) -> lp.LpProblem:
    """The program with the first `free` columns unrestricted in sign: each
    is split into the adjacent column pair (x+, x-), x = x+ - x-."""
    def split(v):
        return [u for a in v[:free] for u in (a, -a)] + v[free:]

    return lp.LpProblem(split(objective), sparse_rows(map(split, rows)), relations, rhs)


def _solve_free(problem: lp.LpProblem, free: int) -> lp.LpOutcome:
    """`lp.solve_lp` of a `_free_program` program, on the program a phase 1
    of its own builds (`markets.routed`). An optimal primal is mapped back
    to the first `free` columns, each the difference of its pair; other
    outcomes are returned as solved."""
    out = lp.solve_lp(routed(problem))
    if out.status == lp.OPTIMAL:
        z = out.primal
        out.primal = [z[2 * j] - z[2 * j + 1] for j in range(free)] + z[2 * free:]
    return out


def surplus_na(m: MarketModel) -> NaVerdict:
    """No-arbitrage by maximizing total surplus over charged leaves.

    Variables are a strategy plus one surplus per charged leaf; the gain on
    each charged leaf must equal its surplus (hence be nonnegative) and the
    surpluses are capped at total one so the program stays bounded. The
    optimum is zero exactly when no arbitrage exists, and any positive
    optimizer is itself an arbitrage.
    """
    c = require_valid(m)
    nh, e, k = len(c.columns), len(c.options), len(c.charged)
    width = nh + 2 * e
    gains = strategy_rows(c)
    rows = []
    for idx, pos in enumerate(c.charged):
        coefs = gains[pos] + [ZERO] * k
        coefs[width + idx] = Fraction(-1)
        rows.append(coefs)
    rows.append([ZERO] * width + [ONE] * k)
    out = _solve_free(_free_program([ZERO] * width + [ONE] * k, rows,
                                    [lp.EQ] * k + [lp.LE], [ZERO] * k + [ONE], free=nh), nh)
    assert out.status == lp.OPTIMAL, out.status
    if out.objective_value == 0:
        return NaVerdict(True)
    strategy = net_legs(c.strategy_from(out.primal))
    gains = terminal_gain(c, strategy)
    strict = next(pos for pos in c.charged if gains[pos] > 0)
    return NaVerdict(False, ArbitrageCertificate(strategy, gains, strict))


def hedge_program(m: MarketModel, f: Claim) -> lp.LpProblem:
    """Super-hedging on the strategy side: min x over (x, strategy) with
    x + gain >= payoff on every charged leaf, as max -x, capital and the
    dynamic positions free (`_free_program`)."""
    c = require_valid(m)
    nh, e = len(c.columns), len(c.options)
    gains = strategy_rows(c)
    rows = [[ONE] + gains[pos] for pos in c.charged]
    return _free_program([-ONE] + [ZERO] * (nh + 2 * e), rows, [lp.GE] * len(rows),
                         [f.payoff[pos] for pos in c.charged], 1 + nh)


def hedge_lp(m: MarketModel, f: Claim) -> tuple[Fraction, Strategy] | None:
    """`hedge_program` solved. Capital is a free column, so the program is
    feasible; None when it is unbounded below."""
    c = require_valid(m)
    out = _solve_free(hedge_program(c, f), 1 + len(c.columns))
    if out.status == lp.UNBOUNDED:
        return None
    assert out.status == lp.OPTIMAL, out.status
    return -out.objective_value, net_legs(c.strategy_from(out.primal[1:]))


def replication_lp(m: MarketModel, i: int) -> NonredundancyVerdict:
    """Redundancy of option i as the feasibility of a zero-objective LP over
    free columns: x + dynamic gains + other options == option i."""
    c = require_valid(m)
    others = [k for k in range(len(c.options)) if k != i]
    nh = len(c.columns)
    ncols = 1 + nh + len(others)
    gains = reference_gain_rows(c)[1]
    rows = [[ONE, *gains[pos], *(c.options[k].payoff[pos] for k in others)]
            for pos in c.charged]
    out = _solve_free(_free_program([ZERO] * ncols, rows, [lp.EQ] * len(rows),
                                    [c.options[i].payoff[pos] for pos in c.charged], ncols), ncols)
    if out.status == lp.INFEASIBLE:
        return NonredundancyVerdict(True)
    assert out.status == lp.OPTIMAL, out.status
    dynamic = c.strategy_from(out.primal[1:]).dynamic
    return NonredundancyVerdict(
        False, ReplicationCertificate(out.primal[0], dynamic, out.primal[1 + nh:])
    )


def replication_solve(m: MarketModel, i: int) -> NonredundancyVerdict:
    """Redundancy of option i by its own elimination of [1 | G | P_others]
    against P_i on the charged leaves, redoing the [1 | G] part per option."""
    c = require_valid(m)
    nh = len(c.columns)
    others = [k for k in range(len(c.options)) if k != i]
    gains = reference_gain_rows(c)[1]
    rows = [[ONE, *gains[pos], *(c.options[k].payoff[pos] for k in others)]
            for pos in c.charged]
    solved = _dense_solve(rows, [c.options[i].payoff[pos] for pos in c.charged])
    if solved is None:
        return NonredundancyVerdict(True)
    x = solved[0]
    dynamic = c.strategy_from(x[1:1 + nh]).dynamic
    return NonredundancyVerdict(False, ReplicationCertificate(x[0], dynamic, x[1 + nh:]))


def two_program_sharper_ftap(m: MarketModel) -> SharperFtapBundle:
    """`sharper_ftap` with the precondition decided by `replication_solve`
    and both programs solved: no-arbitrage first, then the robust one."""
    c = require_valid(m)
    verdicts = {i: replication_solve(c, i) for i, opt in enumerate(c.options) if opt.has_spread()}
    report = SpreadOptionsReport(all(v.non_redundant for v in verdicts.values()), verdicts)
    if not report.all_non_redundant:
        bad = sorted(c.options[i].name for i, v in verdicts.items() if not v.non_redundant)
        raise PreconditionError("redundant spread options: " + ", ".join(bad), details=report)
    na = check_na(c)
    if not na.holds:
        return SharperFtapBundle(na, None, None)
    nar = check_nar(c)
    if not nar.holds:
        raise SoundnessError(
            "no-arbitrage holds with non-redundant spread options, yet the robust "
            f"check fails ({nar.blocking}); this contradicts an exact implication"
        )
    measure = nar.witness.interior_measure
    return SharperFtapBundle(na, nar.witness, [measure] * len(c.measures.generators))


def _dense_gauss_jordan(rows, rhs):
    """The reduced rows [A | b] and the pivot columns, in pivot order: dense
    `Fraction` Gauss-Jordan in column order, each pivot scaled to 1."""
    m, n = len(rows), len(rows[0])
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
        inv = ONE / prow[col]
        if inv != 1:
            a[r] = prow = [v * inv if v else v for v in prow]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [u - f * v if v else u for u, v in zip(a[i], prow)]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    return a, piv_cols


def _dense_solve(rows, rhs) -> tuple[list[Fraction], int] | None:
    """A solution of rows . x = rhs, every column without a pivot at 0, and
    the rank of rows; None when the system is inconsistent."""
    a, piv_cols = _dense_gauss_jordan(rows, rhs)
    if any(row[-1] for row in a[len(piv_cols):]):
        return None
    x = [ZERO] * len(rows[0])
    for row, col in zip(a, piv_cols):
        x[col] = row[-1]
    return x, len(piv_cols)


def _dense_solve_unique(rows, rhs) -> list[Fraction] | None:
    """The unique solution of rows . x = rhs, or None when there is none."""
    solved = _dense_solve(rows, rhs) if rows else None
    if solved is None or solved[1] < len(rows[0]):
        return None
    return solved[0]


def enumerate_consistent_measures(m: MarketModel) -> VertexSet:
    """All vertices of the consistent-measure polytope, by active-set search.

    Coordinates are the charged leaves. Equalities: unit mass, node-level
    martingale rows, zero-spread quote rows. Inequalities: nonnegativity and
    the spread quote rows. Every subset of inequalities of size equal to the
    polytope's dimension is intersected with the equality space; unique,
    feasible solutions are vertices.
    """
    layout = require_valid(m)
    leaf_count = len(layout.leaves)
    if leaf_count > MAX_ORACLE_LEAVES:
        raise DomainError(
            f"oracle guard: {leaf_count} leaves exceeds the limit of {MAX_ORACLE_LEAVES}"
        )
    supp = layout.charged
    k = len(supp)
    face = dense_face(m)
    eq_rows = [coefs for coefs, rel, _ in face if rel == lp.EQ]
    eq_rhs = [bound for _, rel, bound in face if rel == lp.EQ]
    # inequalities as coefs . q <= bound
    ineq = [(coefs, bound) if rel == lp.LE else ([-g for g in coefs], -bound)
            for coefs, rel, bound in face if rel != lp.EQ]
    for idx in range(k):
        row = [ZERO] * k
        row[idx] = Fraction(-1)
        ineq.append((row, ZERO))

    dim = k - len(_dense_gauss_jordan(eq_rows, eq_rhs)[1])
    seen: set[tuple] = set()
    vertices: list[list[Fraction]] = []

    def admit(q: list[Fraction]) -> None:
        for coefs, bound in ineq:
            if sum((c * v for c, v in zip(coefs, q) if c), ZERO) > bound:
                return
        key = tuple(q)
        if key in seen:
            return
        seen.add(key)
        full = [ZERO] * leaf_count
        for idx, pos in enumerate(supp):
            full[pos] = q[idx]
        vertices.append(full)

    # dim = 0 chooses the one empty set: the equalities alone
    for chosen in combinations(range(len(ineq)), dim):
        rows = list(eq_rows) + [ineq[c][0] for c in chosen]
        rhs = list(eq_rhs) + [ineq[c][1] for c in chosen]
        solved = _dense_solve_unique(rows, rhs)
        if solved is not None:
            admit(solved)

    vertices.sort(key=tuple)
    return VertexSet(vertices)


def _shrunk_market(m: MarketModel, level: int) -> MarketModel:
    options = []
    for opt in m.options:
        if opt.has_spread():
            eps = (opt.ask - opt.bid) / Fraction(2 ** (level + 1))
            options.append(OptionQuote(opt.name, opt.payoff, opt.bid + eps, opt.ask - eps))
        else:
            options.append(opt)
    return MarketModel(tree=m.tree, options=options, measures=m.measures)


def definitional_nar_scan(m: MarketModel, depth: int) -> NarScanResult:
    """Robust no-arbitrage by its definition: scan dyadic quote shrinks.

    Level j pulls each nonzero spread in by (ask - bid) / 2^(j+1) per side
    and reruns the reference no-arbitrage check. Because the feasible region
    is polyhedral in the shrink, a market that is robustly arbitrage-free passes
    at every sufficiently deep level; the scan reports the first.
    """
    require_valid(m)
    if depth < 1:
        raise DomainError(f"scan depth must be >= 1, got {depth}")
    for level in range(1, depth + 1):
        if surplus_na(_shrunk_market(m, level)).holds:
            return NarScanResult(True, level)
    return NarScanResult(False)


def path_terminal_gain(m: MarketModel, s: Strategy) -> list[Fraction]:
    """`model.terminal_gain` path by path in `Fraction` arithmetic: each
    step's positions times its price increment along the leaf's path, then
    payoff minus ask per option bought and bid minus payoff per option sold."""
    c = require_valid(m)
    _check_strategy_shape(c, s)
    gains: list[Fraction] = []
    for pos, path in enumerate(leaf_paths(c)):
        total = ZERO
        for here, there in zip(path, path[1:]):
            held = s.dynamic[here]
            p_here, p_there = c.prices[here], c.prices[there]
            for j in range(c.tree.num_assets):
                h = held[j]
                if h:
                    total += h * (p_there[j] - p_here[j])
        for i, option in enumerate(c.options):
            if s.buy_leg[i]:
                total += s.buy_leg[i] * (option.payoff[pos] - option.ask)
            if s.sell_leg[i]:
                total -= s.sell_leg[i] * (option.payoff[pos] - option.bid)
        gains.append(total)
    return gains


def path_verify_measure(m: MarketModel, q: MartingaleMeasure) -> bool:
    """`arbitrage.verify_measure` in `Fraction` arithmetic: each leaf's
    weight added to the mass of every node on its path, each drift summed
    over the children and every expectation summed leaf by leaf."""
    c = require_valid(m)
    if not isinstance(q, MartingaleMeasure) or not lp._rational_lists(q.weights, q.option_values):
        return False
    if len(q.weights) != len(c.leaves) or len(q.option_values) != len(c.options):
        return False
    if any(w < 0 for w in q.weights):
        return False
    if sum(q.weights, ZERO) != 1:
        return False
    supp = set(c.charged)
    if any(w > 0 for pos, w in enumerate(q.weights) if pos not in supp):
        return False
    mass = [ZERO] * len(c.prices)
    for pos, path in enumerate(leaf_paths(c)):
        if q.weights[pos]:
            for nid in path:
                mass[nid] += q.weights[pos]
    for nid in c.nonleaf:
        here = c.prices[nid]
        for j in range(c.tree.num_assets):
            drift = sum(
                (mass[kid] * (c.prices[kid][j] - here[j]) for kid in c.children[nid]),
                ZERO,
            )
            if drift != 0:
                return False
    for i, opt in enumerate(c.options):
        value = sum((w * v for w, v in zip(q.weights, opt.payoff) if w), ZERO)
        if value != q.option_values[i]:
            return False
        if not opt.bid <= value <= opt.ask:
            return False
    return True
