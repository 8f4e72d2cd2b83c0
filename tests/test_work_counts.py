"""Exact work pins: how much the exact kernel does on five ladder trees.

Each tree is the benchmark ladder's (`markets.ladder_market`) with its
reference generator alone, compiled afresh; the five queries run on it in
order, a cold `check_na` first, and each is charged the kernel work it
does. The counts are exact and the same on every machine and under every
hash seed, so a kernel change shows here as a count, never as noise: one
that lowers a pin restates it, and one that raises a pin must say why.

Per query, five counters, from the kernel's one spy (`lp_cases.KernelSpy`):
  - pivots, the `_pivot` calls (those inside `_reduce` included);
  - row updates, the `_combine` calls;
  - pivot-row entries visited, the length of each update's `nonzeros`;
  - entries rescaled, the updated row's length when it is multiplied;
  - entries passed to `gcd` by an update after its first call, the one on
    the pivot entry and the row's: the row's length after the update.
Per tree, the largest tableau entry's bit length when each phase 1 ends,
and the row updates of its phase 1s: the crash, Bland's rule and the
drive-out (b64: 962; Bland's rule from an all-artificial basis made 4042).
"""

from fractions import Fraction as F

import pytest

from hedgecert import arbitrage, redundancy, superhedge
from hedgecert.errors import PreconditionError
from hedgecert.model import Claim, require_valid
from lp_cases import PHASE_ONE, KernelSpy
from markets import ladder_market

QUERIES = {
    "check_na": lambda c, f: arbitrage.check_na(c),
    "check_nar": lambda c, f: arbitrage.check_nar(c),
    "superhedge_price": superhedge.superhedge_price,
    "dual_price": superhedge.dual_price,
    "sharper_ftap": lambda c, f: redundancy.sharper_ftap(c),
}

# tree -> (branching, periods, phase-1 bit lengths, phase-1 row updates, per
# query: pivots, row updates, pivot-row entries visited, entries rescaled,
# entries to gcd)
PINS = {
    "b64": (2, 6, [10], 962, {
        "check_na": (141, 1821, 7070, 2124, 30935),
        "check_nar": (1, 70, 210, 20, 210),
        "superhedge_price": (0, 0, 0, 0, 0),
        "dual_price": (0, 0, 0, 0, 0),
        "sharper_ftap": (64, 513, 3370, 891, 6702),
    }),
    "b256": (2, 8, [13], 4560, {
        "check_na": (525, 8723, 38228, 10623, 388989),
        "check_nar": (1, 262, 786, 20, 786),
        "superhedge_price": (0, 0, 0, 0, 0),
        "dual_price": (0, 0, 0, 0, 0),
        "sharper_ftap": (256, 2817, 20759, 5493, 82177),
    }),
    "b1024": (2, 10, [16], 21274, {
        "check_na": (2061, 40883, 197406, 52160, 5674227),
        "check_nar": (1, 1030, 3090, 20, 3090),
        "superhedge_price": (0, 0, 0, 0, 0),
        "dual_price": (0, 0, 0, 0, 0),
        "sharper_ftap": (1024, 14337, 116366, 42710, 1144292),
    }),
    "t243": (3, 5, [19], 2107, {
        "check_na": (391, 6480, 64985, 29347, 214722),
        "check_nar": (23, 2944, 16384, 4720, 46472),
        "superhedge_price": (87, 959, 22830, 6364, 58925),
        "dual_price": (87, 959, 22830, 6364, 58925),
        "sharper_ftap": (125, 2590, 16362, 451, 16850),
    }),
    "t729": (3, 6, [24], 13536, {
        "check_na": (1397, 51002, 1163282, 762270, 3692528),
        "check_nar": (89, 33019, 553161, 416564, 1055523),
        "superhedge_price": (129, 1397, 137416, 77547, 203339),
        "dual_price": (129, 1397, 137416, 77547, 203339),
        "sharper_ftap": (368, 9223, 67928, 1162, 72941),
    }),
}


@pytest.mark.parametrize("tree", PINS)
def test_the_kernel_does_the_pinned_work_on_each_query(tree, monkeypatch):
    branch, periods, bits, phase_one, pinned = PINS[tree]
    c = require_valid(ladder_market(branch, periods))
    f = Claim([F((7 * pos) % 9, 4) for pos in range(len(c.leaves))])  # the ladder's claim
    spy = KernelSpy(monkeypatch, rows=False)
    work = {}
    for name, query in QUERIES.items():
        before = spy.counts()
        try:
            query(c, f)
        except PreconditionError:  # a complete binomial tree's calls are redundant
            pass
        work[name] = tuple(b - a for a, b in zip(before, spy.counts()))
    assert work == pinned
    assert [max(abs(v).bit_length() for row in tab for v in row.values()) for tab in spy.tabs] == bits
    assert spy.counts(PHASE_ONE)[1] == phase_one
