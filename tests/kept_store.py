"""The store of what a compiled market keeps, stated once for the suite.

A compiled market decides each of its questions once and keeps the answer
in its store, a dict by entry name that only `model._kept` writes. `ENTRIES`
has one row per entry: the compiled-market queries that read it, and a
seeded corpus of markets on which its build goes each of the ways it can
go. `spy_on_kept` wraps `_kept` wherever the package binds it, records each
build by entry name and market, and can slow a build down.
`tests/test_kept_store.py` checks the same five contracts on every row, so
a change to which query builds an entry, or to what it holds, edits one row.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from functools import cached_property
from typing import Callable

from hedgecert import arbitrage, model, redundancy, superhedge
from hedgecert.errors import HedgecertError
from hedgecert.marketio import dump_market
from hedgecert.model import Claim, require_valid
from markets import (
    binomial_with_free_option,
    binomial_with_spread_option,
    pinned_identical_options_market,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    spread_option_only_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)


def answer(query, *args):
    """What the query gives on the arguments: its answer, or, for an error
    the package raises on purpose, the error's type, message and attributes
    (`blocking`, `ray`, `details`), so that two calls compare."""
    try:
        return query(*args)
    except HedgecertError as err:
        return type(err), str(err), dict(vars(err))


def _parts(answer) -> list:
    """Every list, dict, tuple and dataclass instance the answer reaches
    through dataclass fields, items and dict values, each once."""
    seen, stack, parts = set(), [answer], []
    while stack:
        x = stack.pop()
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            items = [getattr(x, f.name) for f in dataclasses.fields(x)]
        elif isinstance(x, dict):
            items = list(x.values())
        elif isinstance(x, (list, tuple)):
            items = list(x)
        else:
            continue
        if id(x) not in seen:
            seen.add(id(x))
            parts.append(x)
            stack.extend(items)
    return parts


SCRAWL = "scrawled"


def scrawl(answer) -> None:
    """Change in place every list and dict the answer reaches: each list
    gains an entry and each dict a key."""
    for part in _parts(answer):
        if isinstance(part, list):
            part.append(SCRAWL)
        elif isinstance(part, dict):
            part[SCRAWL] = SCRAWL


def shared(*answers) -> list:
    """The lists, dicts, non-empty tuples and dataclass instances that two
    of the answers both reach; the empty tuple is one object in CPython."""
    owner, common = {}, []
    for k, a in enumerate(answers):
        for part in _parts(a):
            if part != () and owner.setdefault(id(part), k) != k:
                common.append(part)
    return common


def _patch_everywhere(monkeypatch, name: str, real, wrapper) -> list:
    """`wrapper` in place of `real` in every package module that binds it
    as `name`; the modules patched."""
    bound = [module for key, module in sys.modules.items()
             if key.startswith("hedgecert") and getattr(module, name, None) is real]
    for module in bound:
        monkeypatch.setattr(module, name, wrapper)
    return bound


SLOW = 0.002  # seconds a slowed build sleeps, under the lock, before it starts


@dataclass
class KeptSpy:
    """Each build `_kept` runs, as (entry name, market), in the order they
    start; a build of the entry named `slow` sleeps `SLOW` seconds first."""

    built: list = dataclasses.field(default_factory=list)
    slow: str | None = None

    def builds(self, name: str, c) -> int:
        return sum(1 for n, m in self.built if n == name and m is c)


def spy_on_kept(monkeypatch) -> KeptSpy:
    """A `KeptSpy` on `model._kept`, patched in every package module that
    binds it (`arbitrage`, `redundancy`)."""
    spy, real = KeptSpy(), model._kept

    def kept(c, name, build):
        def recorded(c):
            spy.built.append((name, c))
            if name == spy.slow:
                time.sleep(SLOW)
            return build(c)

        return real(c, name, recorded)

    bound = _patch_everywhere(monkeypatch, "_kept", real, kept)
    assert {arbitrage, redundancy} <= set(bound), bound
    return spy


# the `arbitrage` functions that derive a certificate or a ray from a
# solved program: a build runs them, and a reader of a built entry need not
DERIVATIONS = ("_multipliers", "_hedge", "_terminal_gain", "_robustness", "_arbitrage")


def spy_on_derivations(monkeypatch) -> list:
    """The name of each of the `DERIVATIONS` as it runs, each patched in
    every package module that binds it."""
    ran = []
    for name in DERIVATIONS:
        real = getattr(arbitrage, name)
        _patch_everywhere(monkeypatch, name, real,
                          lambda *args, name=name, real=real: ran.append(name) or real(*args))
    return ran


def _claims(c):
    """Two claims on the market's leaves: a seeded random one and a ramp."""
    return random_claim(random.Random(len(c.leaves)), c), Claim([F(k) for k in range(len(c.leaves))])


def _face_readers(c):
    f, g = _claims(c)
    leaf = c.charged[-1]
    return [("check_na", arbitrage.check_na), ("check_nar", arbitrage.check_nar),
            ("dual_price f", lambda m: superhedge.dual_price(m, f)),
            ("superhedge_price f", lambda m: superhedge.superhedge_price(m, f)),
            ("superhedge_price g", lambda m: superhedge.superhedge_price(m, g)),
            ("claim_price_bounds g", lambda m: superhedge.claim_price_bounds(m, g)),
            ("scenario_pricing_measure", lambda m: arbitrage.scenario_pricing_measure(m, leaf))]


def _na_readers(c):
    return [("check_na", arbitrage.check_na), ("sharper_ftap", redundancy.sharper_ftap)]


def _nar_readers(c):
    f, _ = _claims(c)
    readers = [("check_nar", arbitrage.check_nar),
               ("check_na", arbitrage.check_na),  # reads push 1's entry without a spread option
               ("sharper_ftap", redundancy.sharper_ftap),
               ("strict_dual_approx f", lambda m: superhedge.strict_dual_approx(m, f, F(1, 100)))]
    return readers + [(f"dominating_measure {k}", lambda m, k=k: arbitrage.dominating_measure(m, k))
                      for k in range(len(c.measures.generators))]


def _replications_readers(c):
    readers = [(f"check_nonredundant {i}", lambda m, i=i: redundancy.check_nonredundant(m, i))
               for i in range(len(c.options))]
    return readers + [("all_spread_options_nonredundant", redundancy.all_spread_options_nonredundant),
                      ("sharper_ftap", redundancy.sharper_ftap)]


def _spread(c) -> str:
    return "spread" if any(opt.has_spread() for opt in c.options) else "no spread"


def _face_way(c):
    return "infeasible" if arbitrage._face(c)[2] is not None else "feasible"


def _na_way(c):
    return ("holds" if arbitrage.check_na(c).holds else "fails") + ", " + _spread(c)


def _nar_way(c):
    return ("holds" if arbitrage.check_nar(c).holds else "fails") + ", " + _spread(c)


def _replications_way(c):
    if not c.options:
        return None  # never built: no option to replicate
    redundant = [opt.has_spread() for i, opt in enumerate(c.options)
                 if not redundancy.check_nonredundant(c, i).non_redundant]
    if not redundant:
        return "non-redundant"
    return "a redundant spread option" if any(redundant) else "a redundant zero-spread option"


FIXTURES = (binomial_with_free_option, binomial_with_spread_option, pinned_identical_options_market,
            wide_quote_identical_options_market, trinomial_straddle_market, spread_option_only_market)


@dataclass(frozen=True)
class Entry:
    """One entry of the store. `readers(c)` gives the queries that read it
    on market c, each as (label, query of a market); `way(c)` names how its
    build goes on c, one of `ways`, or None where it is never built; its
    corpus has `per_way` markets of each way."""

    name: str
    readers: Callable
    way: Callable
    ways: tuple[str, ...]
    per_way: int
    # by way, the `DERIVATIONS` a reader of a market whose entries are all
    # built may still run, each call, on a program it solves for itself
    per_call: dict = dataclasses.field(default_factory=dict)

    @cached_property
    def corpus(self) -> tuple[tuple[str, str], ...]:
        """(way, JSON text) pairs: the fixtures, then seeded random markets
        of up to 8 leaves, each taken while its way has fewer than
        `per_way`, until every way has that many; ordered by way."""
        rng = random.Random(20261021)
        taken = {way: [] for way in self.ways}
        for k in range(3000):
            if k < len(FIXTURES):
                m = FIXTURES[k]()
            elif k % 2:
                m = random_arbitrary_market(rng, max_periods=2, max_assets=2, max_leaves=8, max_options=3)
            else:
                m = random_arbitrage_free_market(rng, max_periods=2, max_assets=1, max_leaves=8,
                                                 max_options=2)
            c = require_valid(m)
            texts = taken.get(self.way(c))
            if texts is not None and len(texts) < self.per_way:
                texts.append(dump_market(c))
            if all(len(texts) == self.per_way for texts in taken.values()):
                return tuple((way, text) for way, texts in taken.items() for text in texts)
        raise AssertionError(f"{self.name}: no corpus fills every way: "
                             f"{ {way: len(texts) for way, texts in taken.items()} }")

    @property
    def firsts(self) -> list[str]:
        """The first corpus market of each way."""
        return [next(text for w, text in self.corpus if w == way) for way in self.ways]


# each corpus has at least as many markets as the tests this table replaced
ENTRIES = {entry.name: entry for entry in [
    # the measure programs' phase 1 and, on an infeasible face, its robust-arbitrage ray;
    # a pricing query reads its own program's hedge, or the kept ray, through `_hedge`
    Entry("_face", _face_readers, _face_way, ("feasible", "infeasible"), 40,
          {"feasible": ("_hedge", "_multipliers"), "infeasible": ("_hedge",)}),
    # push 0's outcome and the NA verdict's parts; without a spread option, push 1's outcome
    Entry("_na", _na_readers, _na_way,
          ("holds, spread", "holds, no spread", "fails, spread", "fails, no spread"), 32),
    # push 1's outcome and the NAR verdict's parts: its blocking sentence or its witness
    Entry("_nar", _nar_readers, _nar_way,
          ("holds, spread", "holds, no spread", "fails, spread", "fails, no spread"), 32),
    # every option's replication, or None where it is non-redundant
    Entry("_replications", _replications_readers, _replications_way,
          ("non-redundant", "a redundant spread option", "a redundant zero-spread option"), 103),
]}
