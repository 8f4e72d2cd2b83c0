"""Super-hedging prices, optimal semi-static strategies, and dual measures.

The super-hedging price of a claim is the least initial capital from which
some semi-static strategy dominates the claim on every charged scenario. On
a finite tree that is one linear program, and its exact dual maximizes the
claim's expectation over quote-consistent martingale measures; both sides
are solved here and their values must agree to the last digit. A strictly
interior near-optimizer is available by mixing the dual optimizer with the
robustness witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import lp
from .arbitrage import (
    MartingaleMeasure,
    _consistency_rows,
    _weights_on_charged,
    check_nar,
    measure_from_weights,
)
from .errors import (
    ArbitrageError,
    DomainError,
    RobustArbitrageError,
    SoundnessError,
    StructureError,
)
from .model import (
    Claim,
    CompiledMarket,
    Market,
    MarketModel,
    Strategy,
    ZERO,
    ONE,
    canonical_legs,
    require_valid,
    terminal_gain,
)


@dataclass
class PricingReport:
    """Both sides of the pricing duality, packaged with their certificates.

    When both sides are finite the gap is zero as a rational identity; a
    nonzero gap is a solver bug, never a market property.
    """

    primal_value: Fraction
    strategy: Strategy
    dual_value: Fraction
    dual_measure: MartingaleMeasure
    gap: Fraction


def _check_claim(c: CompiledMarket, f: Claim) -> None:
    if len(f.payoff) != len(c.leaves):
        raise StructureError(
            f"claim has {len(f.payoff)} payoffs, market has {len(c.leaves)} leaves"
        )


def _hedge_program(c: CompiledMarket, payoff: list[Fraction]) -> lp.LpProblem:
    """min x over (x, strategy): x + gain >= payoff on every charged leaf."""
    nh, e = len(c.columns), len(c.options)
    ncols = 1 + nh + 2 * e
    rows = [[ONE] + c.strategy_row(pos) for pos in c.charged]
    return lp.LpProblem(
        sense=lp.MIN,
        objective=[ONE] + [ZERO] * (ncols - 1),
        rows=rows,
        relations=[lp.GE] * len(rows),
        rhs=[payoff[pos] for pos in c.charged],
        lower=[None] * (1 + nh) + [ZERO] * (2 * e),
        upper=[None] * ncols,
    )


def superhedge_price(m: Market, f: Claim) -> tuple[Fraction, Strategy]:
    """Least super-replication capital and a strategy attaining it.

    Under robust no-arbitrage the program is bounded; when it is unbounded
    below, the improving ray is a scalable arbitrage and is raised as such
    rather than reported as a price. Capital is a free column, so the
    program is always feasible.
    """
    c = require_valid(m)
    _check_claim(c, f)
    out = lp.solve_lp(_hedge_program(c, f.payoff))
    if out.status == lp.UNBOUNDED:
        raise RobustArbitrageError(
            "market admits robust arbitrage: super-hedging cost decreases without bound",
            blocking="unbounded super-hedging program",
            ray=(out.ray[0], c.strategy_from(out.ray[1:])),
        )
    if out.status != lp.OPTIMAL:
        raise SoundnessError(f"super-hedging program ended {out.status}; capital is free")
    return out.objective_value, canonical_legs(c.strategy_from(out.primal[1:]))


def dual_price(m: Market, f: Claim) -> tuple[Fraction, MartingaleMeasure]:
    """Maximal claim expectation over quote-consistent martingale measures."""
    c = require_valid(m)
    _check_claim(c, f)
    problem, _ = _consistency_rows(c, [f.payoff[pos] for pos in c.charged])
    out = lp.solve_lp(problem)
    if out.status == lp.INFEASIBLE:
        raise ArbitrageError(
            "no quote-consistent martingale measure exists: "
            "the market admits arbitrage on some charged scenario"
        )
    if out.status != lp.OPTIMAL:
        raise SoundnessError("dual program unbounded over a probability simplex")
    return out.objective_value, measure_from_weights(c, _weights_on_charged(c, out.primal))


def duality_report(m: Market, f: Claim) -> PricingReport:
    """Run both sides and insist on an exactly zero gap."""
    c = require_valid(m)
    price, strategy = superhedge_price(c, f)
    value, measure = dual_price(c, f)
    gap = price - value
    if gap != 0:
        raise SoundnessError(f"pricing duality gap {gap} is nonzero; solver bug")
    return PricingReport(price, strategy, value, measure, gap)


def _largest_dyadic_at_most(bound: Fraction) -> Fraction:
    """Largest 1/2^k (k >= 1) that does not exceed the positive bound."""
    lam = Fraction(1, 2)
    while lam > bound:
        lam /= 2
    return lam


def strict_dual_approx(m: Market, f: Claim, eps: Fraction) -> MartingaleMeasure:
    """A strictly interior consistent measure within eps of the dual optimum.

    Mixes the dual optimizer toward the robustness witness with a dyadic
    weight small enough to lose at most eps of value; the witness's full
    support and strict quote interiority survive any positive mixing weight.
    """
    return _strict_dual(m, f, eps)[1]


def _strict_dual(m: Market, f: Claim, eps: Fraction) -> tuple[Fraction, MartingaleMeasure]:
    """The dual optimum and `strict_dual_approx`'s measure, from one dual solve."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    c = require_valid(m)
    verdict = check_nar(c)
    if not verdict.holds:
        raise RobustArbitrageError(
            f"robust no-arbitrage fails: {verdict.blocking}", blocking=verdict.blocking
        )
    value, best = dual_price(c, f)
    interior = verdict.witness.interior_measure
    drift = abs(value - interior.expectation(f.payoff))
    lam = _largest_dyadic_at_most(min(Fraction(1, 2), eps / (1 + drift)))
    weights = [
        (1 - lam) * a + lam * b for a, b in zip(best.weights, interior.weights)
    ]
    return value, measure_from_weights(c, weights)


def claim_price_bounds(m: Market, f: Claim) -> tuple[Fraction, Fraction]:
    """Sub- and super-replication prices of a claim in the market as given."""
    c = require_valid(m)
    upper, _ = superhedge_price(c, f)
    lower_neg, _ = superhedge_price(c, Claim([-v for v in f.payoff]))
    return -lower_neg, upper


def market_without_option(m: Market, i: int) -> MarketModel:
    options = [opt for k, opt in enumerate(m.options) if k != i]
    return MarketModel(tree=m.tree, options=options, measures=m.measures)


def price_bounds_excluding(m: Market, i: int) -> tuple[Fraction, Fraction]:
    """Price interval for option i implied by the rest of the market.

    Requires the reduced market (everything except option i) to be robustly
    arbitrage-free; the interval is then the sub- to super-replication range
    of option i's payoff hedged with the remaining instruments. Quoting a new
    option strictly inside this interval preserves robust no-arbitrage,
    quoting it strictly outside creates arbitrage.
    """
    c = require_valid(m)
    if not 0 <= i < len(c.options):
        raise DomainError(f"option index {i} out of range")
    # no compiled field depends on the options, so the reduced market keeps them
    reduced = replace(c, market=market_without_option(c, i))
    verdict = check_nar(reduced)
    if not verdict.holds:
        raise RobustArbitrageError(
            f"market without option '{c.options[i].name}' fails robust no-arbitrage: "
            f"{verdict.blocking}",
            blocking=verdict.blocking,
        )
    return claim_price_bounds(reduced, Claim(list(c.options[i].payoff)))


def verify_super_replication(
    m: Market, f: Claim, price: Fraction, strategy: Strategy
) -> bool:
    """Exact replay: price + gain covers the claim on every charged leaf."""
    c = require_valid(m)
    gains = terminal_gain(c, strategy)
    return all(price + gains[pos] >= f.payoff[pos] for pos in c.charged)
