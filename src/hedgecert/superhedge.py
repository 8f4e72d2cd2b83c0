"""Super-hedging prices, optimal semi-static strategies, and dual measures.

The super-hedging price of a claim is the least initial capital from which
some semi-static strategy dominates the claim on every charged scenario. By
exact LP duality it is the claim's largest expectation over quote-consistent
martingale measures. Only that measure program is solved: its optimum is the
dual price and its row multipliers are the hedge, so both sides come from one
solve and must agree to the last digit. A strictly interior near-optimizer
is available by mixing the dual optimizer with the robustness witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .arbitrage import (
    _NO_CONSISTENT_MEASURE,
    MartingaleMeasure,
    _hedge,
    _measure,
    _require_nar,
    _solve,
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
    MarketModel,
    Strategy,
    market_without_option,
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
    """StructureError unless f is a Claim with one int or Fraction per leaf."""
    if not isinstance(f, Claim) or not isinstance(f.payoff, (list, tuple)):
        raise StructureError(f"claim is {type(f).__name__}, not a Claim with a payoff list")
    lp._rationals(f.payoff, "claim payoff")
    if len(f.payoff) != len(c.leaves):
        raise StructureError(f"claim has {len(f.payoff)} payoffs, market has {len(c.leaves)} leaves")


def _solve_pricing(c: CompiledMarket, f: Claim) -> lp.LpOutcome:
    """Solve the measure program that maximizes the claim's expectation: the
    one solve behind both sides of the pricing duality."""
    _check_claim(c, f)
    return _solve(c, [f.payoff[pos] for pos in c.charged])


def _hedge_side(c: CompiledMarket, out: lp.LpOutcome) -> tuple[Fraction, Strategy]:
    """The hedge the multipliers encode (`arbitrage._hedge`), as a fresh
    strategy. Optimal duals have y . A_w >= payoff: a super-hedge. With no
    consistent measure the negated Farkas vector has y . A_w >= 0 > y . rhs:
    a ray along which the cost falls without bound, the same for every
    claim, so it is derived once, with the face (`arbitrage._face`)."""
    capital, positions = _hedge(c, out)
    if out.status == lp.INFEASIBLE:
        raise RobustArbitrageError(
            "market admits robust arbitrage: super-hedging cost decreases without bound",
            blocking=_NO_CONSISTENT_MEASURE,
            ray=(capital, c.strategy_from(positions)),
        )
    return capital, c.strategy_from(positions)


def _measure_side(c: CompiledMarket, out: lp.LpOutcome) -> tuple[Fraction, MartingaleMeasure]:
    if out.status == lp.INFEASIBLE:
        raise ArbitrageError(
            "no quote-consistent martingale measure exists: "
            "the market admits arbitrage on some charged scenario"
        )
    return out.objective_value, _measure(c, out.primal)


def superhedge_price(m: MarketModel, f: Claim) -> tuple[Fraction, Strategy]:
    """Least super-replication capital and a strategy attaining it, read off
    the row multipliers of the measure program `dual_price` solves. With no
    quote-consistent measure the cost is unbounded below, and its ray is
    raised as a robust arbitrage rather than reported as a price."""
    c = require_valid(m)
    return _hedge_side(c, _solve_pricing(c, f))


def dual_price(m: MarketModel, f: Claim) -> tuple[Fraction, MartingaleMeasure]:
    """Maximal claim expectation over quote-consistent martingale measures."""
    c = require_valid(m)
    return _measure_side(c, _solve_pricing(c, f))


def duality_report(m: MarketModel, f: Claim) -> PricingReport:
    """Both sides of one measure-program solve: the multipliers' y . rhs and
    the optimal measure's expectation of the claim must agree exactly."""
    c = require_valid(m)
    out = _solve_pricing(c, f)
    price, strategy = _hedge_side(c, out)
    value, measure = _measure_side(c, out)
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


def strict_dual_approx(m: MarketModel, f: Claim, eps: Fraction) -> MartingaleMeasure:
    """A strictly interior consistent measure within eps of the dual optimum.

    Mixes the dual optimizer toward the robustness witness with a dyadic
    weight small enough to lose at most eps of value; the witness's full
    support and strict quote interiority survive any positive mixing weight.
    """
    return _strict_dual(m, f, eps)[1]


def _strict_dual(m: MarketModel, f: Claim, eps: Fraction) -> tuple[Fraction, MartingaleMeasure]:
    """The dual optimum and `strict_dual_approx`'s measure, from one dual solve."""
    if not lp._rational_lists([eps]):
        raise DomainError(f"eps is {type(eps).__name__}, not an int or a Fraction")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    c = require_valid(m)
    _check_claim(c, f)
    interior = _require_nar(c, "robust no-arbitrage fails").interior_measure
    value, best = dual_price(c, f)
    drift = abs(value - interior.expectation(f.payoff))
    lam = _largest_dyadic_at_most(min(Fraction(1, 2), eps / (1 + drift)))
    weights = [(1 - lam) * best.weights[pos] + lam * interior.weights[pos] for pos in c.charged]
    return value, _measure(c, weights)


def _bound_hedges(c: CompiledMarket, f: Claim):
    """The two super-hedges behind a claim's price bounds, each as (claim,
    capital, strategy): f's, whose capital is the upper bound, then -f's,
    whose capital is minus the lower bound."""
    upper = superhedge_price(c, f)
    short = Claim([-v for v in f.payoff])
    return (f, *upper), (short, *superhedge_price(c, short))


def claim_price_bounds(m: MarketModel, f: Claim) -> tuple[Fraction, Fraction]:
    """Sub- and super-replication prices of a claim in the market as given."""
    (_, upper, _), (_, lower_neg, _) = _bound_hedges(require_valid(m), f)
    return -lower_neg, upper


def price_bounds_excluding(m: MarketModel, i: int) -> tuple[Fraction, Fraction]:
    """Price interval for option i implied by the rest of the market.

    Requires the reduced market (everything except option i) to be robustly
    arbitrage-free; the interval is then the sub- to super-replication range
    of option i's payoff hedged with the remaining instruments. Quoting a new
    option strictly inside this interval preserves robust no-arbitrage,
    quoting it strictly outside creates arbitrage.
    """
    return claim_price_bounds(*_option_in_reduced_market(m, i))


def _option_in_reduced_market(m: MarketModel, i: int) -> tuple[CompiledMarket, Claim]:
    """The market less option i, checked robustly arbitrage-free, and
    option i's payoff as a claim in it."""
    c = require_valid(m)
    reduced = market_without_option(c, i)
    _require_nar(reduced, f"market without option '{c.options[i].name}' fails robust no-arbitrage")
    return reduced, Claim(list(c.options[i].payoff))


def verify_super_replication(
    m: MarketModel, f: Claim, price: Fraction, strategy: Strategy
) -> bool:
    """Exact replay: price + gain covers the claim on every charged leaf."""
    c = require_valid(m)
    if not lp._rational_lists([price]):
        return False
    try:
        _check_claim(c, f)
        gains = terminal_gain(c, strategy)
    except StructureError:  # a claim or strategy malformed for this market
        return False
    return all(price + gains[pos] >= f.payoff[pos] for pos in c.charged)
