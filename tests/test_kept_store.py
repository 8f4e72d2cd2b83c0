"""Five contracts of a compiled market's store, checked on every row of
`kept_store.ENTRIES`, each on that row's corpus:

- once: the readers, in three orders and twice each, build the entry once,
  and the second time derive no certificate or ray again;
- warm = cold: each reader answers on a warm market as on a fresh parse;
- fresh answers: changing an answer in place changes no later answer;
- threads: four threads' first readers on a fresh parse build it once;
- copies: no copy holds the entry, and no comparison, repr or file reads it.
"""

import copy
import sys
from dataclasses import replace

import pytest

from concurrency import run_together
from hedgecert.marketio import dump_market, market_to_json, parse_market
from hedgecert.model import market_without_option
from kept_store import ENTRIES, answer, scrawl, shared, spy_on_derivations, spy_on_kept

ROWS = sorted(ENTRIES)


@pytest.fixture
def spy(monkeypatch):
    return spy_on_kept(monkeypatch)


def _orders(n):
    """Three orders of n readers: as listed, reversed and rotated by one."""
    return [list(range(n)), list(reversed(range(n))), [(k + 1) % n for k in range(n)]]


@pytest.mark.parametrize("name", ROWS)
def test_the_readers_in_three_orders_build_the_entry_once_and_derive_nothing_again(
        name, spy, monkeypatch):
    # a first pass of the readers builds what they read; a second pass in
    # the same order builds nothing and runs no derivation but the ones
    # the row lets a reader make of a program it solves for itself
    entry, ran = ENTRIES[name], spy_on_derivations(monkeypatch)
    for way, text in entry.corpus:
        readers = entry.readers(parse_market(text))
        for order in _orders(len(readers)):
            c = parse_market(text)
            spy.built.clear()
            for k in order:
                answer(readers[k][1], c)
            ran.clear()
            for k in order:
                answer(readers[k][1], c)
            labels = [readers[k][0] for k in order]
            assert spy.builds(name, c) == 1, (way, text, labels)
            assert set(ran) <= set(entry.per_call.get(way, ())), (way, text, labels, ran)


@pytest.mark.parametrize("name", ROWS)
def test_a_warm_answer_is_the_cold_one(name):
    entry = ENTRIES[name]
    for way, text in entry.corpus:
        c = parse_market(text)
        readers = entry.readers(c)
        cold = [answer(query, parse_market(text)) for _, query in readers]
        for _ in range(2):
            assert [answer(query, c) for _, query in readers] == cold, (way, text)


@pytest.mark.parametrize("name", ROWS)
def test_a_caller_that_changes_an_answer_changes_no_later_one(name):
    # each reader on a fresh parse, so its first answer is the one the
    # entry's build came with; it and the next are both scrawled on
    entry = ENTRIES[name]
    for way, text in entry.corpus:
        changed = 0
        for label, query in entry.readers(parse_market(text)):
            c = parse_market(text)
            first = answer(query, c)
            for _ in range(2):
                kept = copy.deepcopy(first)
                scrawl(first)
                again = answer(query, c)
                assert again == kept, (way, text, label)
                assert not shared(first, again), (way, text, label)
                changed += again != first
                first = again
        assert changed >= 2, (way, text)  # some reader's answer holds a list or dict


@pytest.mark.parametrize("name", ROWS)
def test_four_threads_on_a_fresh_parse_build_the_entry_once(name, spy):
    # thread i runs every reader from the i-th on; the slowed build keeps
    # every thread's first reader in flight together, and an entry built
    # from inside another's build must not wait on the lock it holds
    entry = ENTRIES[name]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for way, text in entry.corpus:
            probe = parse_market(text)
            readers = entry.readers(probe)
            n = len(readers)
            expected = [answer(query, probe) for _, query in readers]
            c = parse_market(text)
            spy.built.clear()
            spy.slow = name
            runs = run_together(4, lambda i: [answer(readers[(i + j) % n][1], c) for j in range(n)],
                                timeout=10)
            spy.slow = None
            assert spy.builds(name, c) == 1, (way, text)
            assert all(spy.builds(other, c) <= 1 for other in ENTRIES), (text, spy.built)
            assert runs == [expected[i % n:] + expected[:i % n] for i in range(4)], text
            assert not shared(*(a for run in runs for a in run)), text
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ROWS)
def test_copies_hold_no_entry_and_nothing_reads_it(name):
    entry = ENTRIES[name]
    for way, text in entry.corpus:
        c = parse_market(text)
        readers = entry.readers(c)
        for _, query in readers:
            answer(query, c)
        assert name in c._state, (way, text)
        fresh = parse_market(text)
        copies = [fresh, replace(c)] + ([market_without_option(c, 0)] if c.options else [])
        assert all(name not in m._state for m in copies), (way, text)
        assert c == fresh and repr(c) == repr(fresh), (way, text)
        assert market_to_json(c) == market_to_json(fresh) and dump_market(c) == dump_market(fresh)
        if c.options:  # the reduced copy answers for its own options
            reduced = copies[-1]
            cold = parse_market(dump_market(reduced))
            assert [answer(q, reduced) for _, q in readers] == [answer(q, cold) for _, q in readers]


def test_every_entry_the_package_keeps_has_a_row(spy):
    # every reader of every row, on the first corpus market of each way,
    # builds only entries the table has, and each of them
    for entry in ENTRIES.values():
        for text in entry.firsts:
            c = parse_market(text)
            for _, query in entry.readers(c):
                answer(query, c)
    assert {name for name, _ in spy.built} == set(ENTRIES)
