"""An infeasible face keeps its robust-arbitrage ray (`arbitrage._face`):
the capital and positions its negated Farkas vector encodes, derived once
when the face is built. Every outcome on the face that is not optimal reads
that ray (`arbitrage._hedge`), so `superhedge_price` raises the same ray
for every claim, warm or cold, and `check_na` certifies with its strategy.
"""

import copy
import random
import sys
from fractions import Fraction as F

import pytest

from concurrency import run_together, slow_phase_one
from hedgecert import arbitrage, superhedge
from hedgecert.errors import RobustArbitrageError
from hedgecert.marketio import dump_market, parse_market
from hedgecert.model import ONE, Claim, require_valid
from markets import binomial_with_free_option, random_arbitrary_market, random_claim


def _infeasible_markets():
    """The free-option market, then seeded random markets, with no
    construction guarantees, whose face is infeasible, as JSON texts."""
    rng = random.Random(20261020)
    texts = [dump_market(require_valid(binomial_with_free_option()))]
    while len(texts) < 40:
        c = require_valid(random_arbitrary_market(rng, max_periods=2, max_assets=2,
                                                  max_leaves=8, max_options=3))
        if arbitrage._face(c)[2] is not None:
            texts.append(dump_market(c))
    return texts


MARKETS = _infeasible_markets()


def _ray(c, claim):
    """The (capital, strategy) ray superhedge_price raises for the claim."""
    with pytest.raises(RobustArbitrageError) as raised:
        superhedge.superhedge_price(c, claim)
    return raised.value.ray


def _claims(c):
    rng = random.Random(len(c.leaves))
    return [random_claim(rng, c), Claim([F(k) for k in range(len(c.leaves))])]


def test_a_warm_ray_is_a_cold_one_for_every_claim_and_check_nas_certificate():
    # cold: one call on a fresh parse; warm: two claims, each twice, on one
    # compiled market, every ray the cold one field for field
    for text in MARKETS:
        cold = _ray(parse_market(text), _claims(parse_market(text))[0])
        c = parse_market(text)
        for claim in _claims(c) * 2:
            assert _ray(c, claim) == cold, text
        capital, strategy = cold
        assert capital < 0, text
        zero = Claim([F(0)] * len(c.leaves))
        assert superhedge.verify_super_replication(c, zero, capital, strategy), text
        verdict = arbitrage.check_na(c)
        assert not verdict.holds and verdict.certificate.strategy == strategy, text


def test_warm_rays_derive_nothing_again(monkeypatch):
    # once the face is built, superhedge_price, claim_price_bounds and
    # check_na on an infeasible face turn no multipliers into a hedge
    derived = []
    multipliers = arbitrage._multipliers
    monkeypatch.setattr(arbitrage, "_multipliers", lambda *a: derived.append(a) or multipliers(*a))
    for text in MARKETS:
        c = parse_market(text)
        claim = _claims(c)[0]
        expected = _ray(c, claim)
        assert len(derived) == 1, text  # at the face's build
        derived.clear()
        for _ in range(2):
            assert _ray(c, claim) == expected, text
            with pytest.raises(RobustArbitrageError):
                superhedge.claim_price_bounds(c, claim)
            assert arbitrage.check_na(c).certificate.strategy == expected[1], text
        assert derived == [], text


def test_a_caller_that_changes_a_ray_changes_nothing_kept():
    for text in MARKETS:
        c = parse_market(text)
        claim = _claims(c)[0]
        kept = copy.deepcopy(_ray(c, claim))
        for _ in range(2):
            _, strategy = ray = _ray(c, claim)
            strategy.buy_leg.append(ONE)
            strategy.sell_leg[:] = [ONE]
            for positions in strategy.dynamic.values():
                positions.append(ONE)
            strategy.dynamic[-1] = [ONE]
            assert ray != kept, text
        assert _ray(c, claim) == kept, text


def test_eight_threads_on_a_fresh_infeasible_market_build_one_phase_one(monkeypatch):
    # a slow phase 1 keeps every thread's first superhedge_price in flight
    # together; one of them builds the face and its ray, the rest read it
    built, derived = slow_phase_one(monkeypatch), []
    multipliers = arbitrage._multipliers
    monkeypatch.setattr(arbitrage, "_multipliers", lambda *a: derived.append(a) or multipliers(*a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for text in MARKETS[:3]:
            expected = _ray(parse_market(text), _claims(parse_market(text))[0])
            built.clear()
            derived.clear()
            c = parse_market(text)
            claims = _claims(c) * 4

            def run(i):
                try:
                    superhedge.superhedge_price(c, claims[i])
                except RobustArbitrageError as err:
                    return err.ray

            rays = run_together(8, run, timeout=10)
            assert len(built) == 1 and len(derived) == 1, text
            assert rays == [expected] * 8, text
            assert len({id(strategy.buy_leg) for _, strategy in rays}) == 8, text
    finally:
        sys.setswitchinterval(interval)
