"""Seeded workload generators for the hedgecert benchmark.

Every market is produced as a schema-1 JSON document, written to disk for
the CLI operations and parsed with `marketio.parse_market` for the library
operations, so the benchmark relies only on the file format and the public
query functions. The random constructions mirror the test suite's
generators without importing them, so refactoring the tests cannot move the
benchmark.

A workload is a list of rounds; a round is a list of cases; a case is one
market (or one group of CLI commands) with its operations. A run measures
a fixed number of whole passes over the rounds (see worker.py).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

from hedgecert import marketio

ZERO = F(0)
ONE = F(1)

LIBRARY_QUERIES = ("na", "nar", "superhedge", "dual", "ftap")
QUERY_METRIC = {
    "na": "na_s",
    "nar": "nar_s",
    "superhedge": "superhedge_s",
    "dual": "dual_s",
    "ftap": "ftap_s",
}
COMMAND_QUERY = {
    "check-na": "na",
    "check-nar": "nar",
    "superhedge": "superhedge",
    "dual": "dual",
    "sharper-ftap": "ftap",
}
SUBCOMMANDS = (
    "check-na", "check-nar", "superhedge", "dual", "bounds",
    "redundancy", "sharper-ftap", "dominate", "strict-dual",
)
EPS = "1/100"

# Ladder points: (label, branching, periods, mispriced, runs per pass).
# Mispriced points quote one call above its unique price, so the Farkas and
# ray paths run on large tableaux. Trees below 64 leaves run several times
# a pass, so their medians rest on several samples: one sample of a
# half-second operation differs by up to 20 % from the next, and the tail
# percentile falls among the 27- and 32-leaf trees' operations. The 64-leaf
# tree, about 8 s of a pass, runs once. A trinomial tree of 81 leaves takes
# about 46 s for the five queries on one core, which is why the ladder stops
# at 64 leaves.
LADDER = (
    ("b8", 2, 3, False, 6),
    ("t9", 3, 2, False, 6),
    ("b16x", 2, 4, True, 4),
    ("t27", 3, 3, False, 4),
    ("b32x", 2, 5, True, 4),
    ("b64", 2, 6, False, 1),
)
# One CLI command per ladder point below 64 leaves, so each replay path runs
# somewhere on the ladder; the 64-leaf tree runs the library queries only.
LADDER_COMMANDS = ("sharper-ftap", "strict-dual", "check-na", "check-nar", "superhedge", None)
# Each of the 12 size classes, 4 option counts, 2 constructions and 3
# generator counts of `sweep_market` meets every other exactly once.
SWEEP_MARKETS = 288


def fmt(value: F) -> str:
    return marketio.format_rational(value)


@dataclass
class Market:
    """A generated market: its file document and what the construction knows."""

    label: str
    doc: dict
    claim: list[F]
    arbitrage_free: bool = False         # True: robust NA holds by construction
    arbitrage: bool = False              # True: NA fails by construction
    reference_price: F | None = None     # unique price of the claim, if known
    model: object = None
    claim_obj: object = None
    market_path: str = ""
    claim_path: str = ""

    @property
    def option_names(self) -> list[str]:
        return [o["name"] for o in self.doc["options"]]

    @property
    def generator_names(self) -> list[str]:
        return [g["name"] for g in self.doc["measures"]]


@dataclass
class Op:
    """One timed operation: a library query or one in-process CLI command."""

    label: str
    kind: str                 # a LIBRARY_QUERIES entry, or "cli"
    metrics: tuple[str, ...]  # end-to-end metrics its wall time feeds
    market: Market | None = None
    argv: list[str] = field(default_factory=list)
    command: str = ""
    expect_invalid: bool = False      # hostile input: must end in exit 4
    known_defect: str | None = None   # exception type it raises today


@dataclass
class Case:
    label: str
    ops: list[Op]
    market: Market | None = None


def _doc(nodes, periods, options, generators, names=None) -> dict:
    """Schema-1 document; node ids ascend level by level, so leafOrder is
    the ascending list of final-period ids and arrays align with it."""
    leaves = [nid for nid, (t, _, _) in enumerate(nodes) if t == periods]
    names = names or [f"P{k}" for k in range(len(generators))]
    return {
        "schemaVersion": 1,
        "tree": {
            "nodes": [
                {"id": nid, "time": t, "parent": parent, "prices": [fmt(p) for p in prices]}
                for nid, (t, parent, prices) in enumerate(nodes)
            ]
        },
        "options": [
            {"name": name, "payoff": [fmt(v) for v in payoff], "bid": fmt(bid), "ask": fmt(ask)}
            for name, payoff, bid, ask in options
        ],
        "measures": [
            {"name": names[k], "weights": [fmt(w) for w in weights]}
            for k, weights in enumerate(generators)
        ],
        "leafOrder": leaves,
    }


def _claim_doc(doc: dict, payoff: list[F]) -> dict:
    return {"schemaVersion": 1, "leafOrder": doc["leafOrder"], "payoff": [fmt(v) for v in payoff]}


def _expectation(weights, payoff) -> F:
    return sum((w * v for w, v in zip(weights, payoff)), ZERO)


# ---------------------------------------------------------------------------
# tree ladder: deterministic non-recombining binomial and trinomial trees
# ---------------------------------------------------------------------------

# Moves and the one-step martingale weights that price them: up 2, down 1/2
# with up-weight 1/3; trinomial adds a flat move, weights 1/4, 1/4, 1/2.
_MOVES = {2: ((F(2), F(1, 3)), (F(1, 2), F(2, 3))),
          3: ((F(2), F(1, 4)), (F(1), F(1, 4)), (F(1, 2), F(1, 2)))}
_STRIKES = (F(1, 2), F(1), F(2))


def ladder_market(label: str, branch: int, periods: int, mispriced: bool,
                  rng: random.Random) -> Market:
    """One stock from 1, three calls quoted around the reference measure,
    a full-support and a partial-support generator, and a claim the calls
    do not span.

    The quotes are fixed and the seed scales the claim and picks the
    partial generator's support. Scaling the claim scales the right-hand
    sides or the objective of the pricing programs, which leaves every
    simplex path unchanged, so seeds change the answers but not the work:
    on the ladder, time depends on tree size alone."""
    nodes = [(0, None, [ONE])]
    weight = [ONE]
    level = [0]
    for t in range(1, periods + 1):
        nxt = []
        for parent in level:
            for move, q in _MOVES[branch]:
                nodes.append((t, parent, [nodes[parent][2][0] * move]))
                weight.append(weight[parent] * q)
                nxt.append(len(nodes) - 1)
        level = nxt
    leaves = level
    qref = [weight[nid] for nid in leaves]
    spot = [nodes[nid][2][0] for nid in leaves]

    options = []
    for k, strike in enumerate(_STRIKES):
        payoff = [max(s - strike, ZERO) for s in spot]
        value = _expectation(qref, payoff)
        if mispriced and k == 1:
            # above the unique no-arbitrage price of a complete binomial tree
            bid, ask = value + F(1, 8), value + F(1, 4)
        else:
            bid, ask = value - F(k + 1, 16), value + F(3 - k, 16)
        options.append((f"call{k}", payoff, bid, ask))

    charged = sorted(rng.sample(range(len(leaves)), len(leaves) // 2))
    partial = [ZERO] * len(leaves)
    for pos in charged:
        partial[pos] = F(1, len(charged))
    scale = F(rng.randint(1, 8), 4)
    claim = [scale * F((7 * pos) % 9, 4) for pos in range(len(leaves))]
    doc = _doc(nodes, periods, options, [qref, partial], ["reference", "partial"])
    return Market(
        label, doc, claim,
        arbitrage_free=not mispriced,
        arbitrage=mispriced,
        reference_price=_expectation(qref, claim) if branch == 2 and not mispriced else None,
    )


# ---------------------------------------------------------------------------
# random small markets
# ---------------------------------------------------------------------------

def _rational(rng, lo=-2, hi=2, dens=(1, 2, 3, 4)) -> F:
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


# Price moves and option payoffs of robust markets are drawn nonzero and from
# many values, so that whether an option is redundant, and with it the path
# `sharper_ftap` takes, follows from the market's shape and not from a tie
# that only some seeds produce.
_GENERIC = (1, 2, 3, 5, 7)


def _moves(rng, cond: list[F]) -> list[F]:
    """Distinct nonzero price moves to the children, zero in mean under the
    conditional weights `cond` (a single child cannot move)."""
    while len(cond) > 1:
        moves = [_rational(rng, dens=_GENERIC) for _ in cond[:-1]]
        moves.append(-sum((w * d for w, d in zip(cond, moves)), ZERO) / cond[-1])
        if all(moves) and len(set(moves)) == len(moves):
            return moves
    return [ZERO]


def _topology(label, periods, leaves):
    """Random tree shape with exactly `leaves` final nodes, as (time,
    parent) per node with ids level by level; level t has about
    leaves^(t/periods) nodes and every node has a child. The shape is
    drawn from the market's label, not from the seed: seeds change the
    numbers of a workload, never its structure."""
    rng = random.Random(f"topology/{label}/{periods}/{leaves}")
    shape = [(0, None)]
    level = [0]
    for t in range(1, periods + 1):
        width = max(len(level), round(leaves ** (t / periods)))
        counts = [1] * len(level)
        for _ in range(width - len(level)):
            counts[rng.randrange(len(level))] += 1
        nxt = []
        for parent, count in zip(level, counts):
            for _ in range(count):
                shape.append((t, parent))
                nxt.append(len(shape) - 1)
        level = nxt
    return shape


def _probability_vector(rng, length) -> list[F]:
    raw = [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(length)]
    if not any(raw):
        raw[rng.randrange(length)] = 1
    total = sum(raw)
    return [F(r, total) for r in raw]


@dataclass(frozen=True)
class Shape:
    """What a random market's cost depends on; the seed draws the rest."""

    periods: int
    leaves: int
    assets: int
    options: int
    generators: int


# Size classes (periods, leaves, assets) of the sweep, smallest to largest.
SWEEP_SIZES = ((1, 2, 0), (1, 3, 1), (1, 5, 2), (1, 8, 1), (2, 4, 1), (2, 6, 2),
               (2, 9, 0), (2, 12, 1), (3, 6, 1), (3, 8, 2), (3, 10, 1), (3, 12, 2))


def sweep_market(k: int, rng) -> Market:
    """The k-th sweep market. Its shape depends on k alone, so every seed
    runs the same mix of sizes, options and generators and differs only in
    numbers; each size class recurs often enough that the slow tail rests on
    many markets rather than on a few draws."""
    periods, leaves, assets = SWEEP_SIZES[k % len(SWEEP_SIZES)]
    shape = Shape(periods, leaves, assets, (k // 12) % 4, 1 + (k // 96) % 3)
    build = arbitrage_free_market if (k // 48) % 2 == 0 else unconstrained_market
    return build(f"m{k}", rng, shape)


def arbitrage_free_market(label, rng, shape: Shape) -> Market:
    """Robustly arbitrage-free by construction: a full-support martingale
    measure prices every option strictly inside its spread and is itself a
    generator. The third option, if any, is quoted without a spread."""
    tree = _topology(label, shape.periods, shape.leaves)
    assets = shape.assets
    children = {nid: [] for nid in range(len(tree))}
    for nid, (_, parent) in enumerate(tree):
        if parent is not None:
            children[parent].append(nid)
    prices = {0: [_rational(rng, 1, 4) for _ in range(assets)]}
    weight = {0: ONE}
    for nid in range(len(tree)):
        kids = children[nid]
        if not kids:
            continue
        raw = [rng.randint(1, 4) for _ in kids]
        cond = [F(r, sum(raw)) for r in raw]
        for kid, w in zip(kids, cond):
            weight[kid] = weight[nid] * w
            prices[kid] = []
        for j in range(assets):
            for kid, d in zip(kids, _moves(rng, cond)):
                prices[kid].append(prices[nid][j] + d)
    nodes = [(t, parent, prices[nid]) for nid, (t, parent) in enumerate(tree)]
    leaves = [nid for nid, (t, _) in enumerate(tree) if t == shape.periods]
    qref = [weight[nid] for nid in leaves]

    options = []
    for k in range(shape.options):
        payoff = [_rational(rng, -2, 3, _GENERIC) for _ in leaves]
        value = _expectation(qref, payoff)
        if k == 2:  # one quote pinned at the reference value, the rest spread
            options.append((f"o{k}", payoff, value, value))
        else:
            options.append((f"o{k}", payoff, value - F(rng.randint(1, 4), 4),
                            value + F(rng.randint(1, 4), 4)))
    generators = [qref] + [_probability_vector(rng, len(leaves)) for _ in range(shape.generators - 1)]
    claim = [_rational(rng, -3, 3) for _ in leaves]
    return Market(label, _doc(nodes, shape.periods, options, generators), claim, arbitrage_free=True)


def unconstrained_market(label, rng, shape: Shape) -> Market:
    """No construction guarantee: may admit arbitrage; every generator is
    drawn with random, usually partial, support."""
    tree = _topology(label, shape.periods, shape.leaves)
    nodes = [(t, parent, [_rational(rng, 0, 3) for _ in range(shape.assets)]) for t, parent in tree]
    options = []
    for k in range(shape.options):
        payoff = [_rational(rng, -1, 2) for _ in range(shape.leaves)]
        mid = _rational(rng, -1, 2)
        options.append((f"o{k}", payoff, mid, mid + rng.choice([ZERO, ZERO, F(1, 2), F(1, 4), ONE])))
    generators = [_probability_vector(rng, shape.leaves) for _ in range(shape.generators)]
    claim = [_rational(rng, -3, 3) for _ in range(shape.leaves)]
    return Market(label, _doc(nodes, shape.periods, options, generators), claim)


def free_option_market(label, rng, shape: Shape) -> Market:
    """A small robust market plus a digital on the first leaf given away:
    NA fails."""
    market = arbitrage_free_market(label, rng, shape)
    leaves = len(market.doc["leafOrder"])
    payoff = [ONE] + [ZERO] * (leaves - 1)
    market.doc["options"].append(
        {"name": "free", "payoff": [fmt(v) for v in payoff], "bid": "0", "ask": "0"}
    )
    market.arbitrage_free, market.arbitrage = False, True
    return market


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _materialize(market: Market, directory: Path) -> None:
    """Write the market and claim files and parse them for library use."""
    text = json.dumps(market.doc)
    claim_text = json.dumps(_claim_doc(market.doc, market.claim))
    market.market_path = str(directory / f"{market.label}.json")
    market.claim_path = str(directory / f"{market.label}.claim.json")
    Path(market.market_path).write_text(text)
    Path(market.claim_path).write_text(claim_text)
    market.model = marketio.parse_market(text)
    market.claim_obj = marketio.parse_claim(claim_text, market.model)


def command_argv(command: str, market: Market) -> list[str]:
    argv = [command, market.market_path, "--verify"]
    if command in ("superhedge", "dual", "strict-dual"):
        argv += ["--claim", market.claim_path]
    if command == "bounds":
        argv += ["--option", market.option_names[0]]
    if command == "dominate":
        argv += ["--generator", market.generator_names[0]]
    if command == "strict-dual":
        argv += ["--eps", EPS]
    return argv


def library_ops(market: Market) -> list[Op]:
    return [Op(f"{market.label}/{q}", q, (QUERY_METRIC[q],), market) for q in LIBRARY_QUERIES]


def cli_op(market: Market, command: str, metrics=("cli_s",)) -> Op:
    return Op(f"{market.label}/cli {command}", "cli", metrics, market,
              command_argv(command, market), command)


def _noop() -> None:
    pass


def tree_ladder(seed: int, directory: Path, tick=_noop) -> list[list[Case]]:
    rng = random.Random(f"tree-ladder/{seed}")
    cases = []
    for (label, branch, periods, mispriced, _), command in zip(LADDER, LADDER_COMMANDS):
        market = ladder_market(label, branch, periods, mispriced, rng)
        _materialize(market, directory)
        tick()
        ops = library_ops(market) + ([cli_op(market, command)] if command else [])
        cases.append(Case(label, ops, market))
    runs = [point[4] for point in LADDER]
    return [[case for case, n in zip(cases, runs) if rep < n] for rep in range(max(runs))]


def market_sweep(seed: int, directory: Path, tick=_noop) -> list[list[Case]]:
    rng = random.Random(f"market-sweep/{seed}")
    rounds = []
    for k in range(SWEEP_MARKETS):
        market = sweep_market(k, rng)
        _materialize(market, directory)
        tick()
        usable = [c for c in SUBCOMMANDS if c != "bounds" or market.option_names]
        command = usable[k % len(usable)]
        rounds.append([Case(market.label, library_ops(market) + [cli_op(market, command)], market)])
    return rounds


# Hostile inputs that end in an uncaught exception today (ROADMAP item 5).
# They stay in the workload so that fixing them shows as a higher ok_ratio.
KNOWN_DEFECTS = {
    "digits": "ValueError",
    "utf8": "UnicodeDecodeError",
    "nesting": "RecursionError",
    "leaforder-mixed": "TypeError",
}


def _hostile_ops(base: Market, directory: Path) -> list[Op]:
    """Malformed and hostile files; every one must end in exit 4."""
    doc = base.doc
    files: dict[str, bytes] = {}

    def variant(name, mutate):
        data = json.loads(json.dumps(doc))
        mutate(data)
        files[name] = json.dumps(data).encode()

    text = json.dumps(doc).encode()
    variant("digits", lambda d: d["measures"][0]["weights"].__setitem__(0, "1" + "0" * 5000))
    files["utf8"] = text[:-1] + b"\xff\xfe}"
    files["nesting"] = b"[" * 100_000
    files["truncated"] = text[: len(text) // 2]
    variant("unknown-field", lambda d: d.__setitem__("extra", 1))
    variant("schema", lambda d: d.__setitem__("schemaVersion", 2))
    variant("mass", lambda d: d["measures"][0].__setitem__("weights", ["1"] * len(d["leafOrder"])))
    variant("leaforder", lambda d: d.__setitem__("leafOrder", d["leafOrder"][1:]))
    variant("zero-denominator", lambda d: d["measures"][0]["weights"].__setitem__(0, "1/0"))
    claims = {
        "leaforder-mixed": {"schemaVersion": 1,
                            "leafOrder": [doc["leafOrder"][0]] + [str(v) for v in doc["leafOrder"][1:]],
                            "payoff": ["0"] * len(doc["leafOrder"])},
        "claim-length": {"schemaVersion": 1, "leafOrder": doc["leafOrder"], "payoff": ["0"]},
    }
    prefix = f"hostile-{base.label}"
    for name, data in files.items():
        (directory / f"{prefix}-{name}.json").write_bytes(data)
    for name, data in claims.items():
        (directory / f"{prefix}-{name}.claim.json").write_text(json.dumps(data))

    def path(name):
        return str(directory / f"{prefix}-{name}.json")

    def claim(name):
        return str(directory / f"{prefix}-{name}.claim.json")

    specs = [
        ("digits", ["check-na", path("digits")]),
        ("utf8", ["check-nar", path("utf8")]),
        ("nesting", ["redundancy", path("nesting")]),
        ("leaforder-mixed", ["superhedge", base.market_path, "--claim", claim("leaforder-mixed")]),
        ("truncated", ["check-na", path("truncated")]),
        ("unknown-field", ["dual", path("unknown-field"), "--claim", base.claim_path]),
        ("schema", ["sharper-ftap", path("schema")]),
        ("missing-file", ["check-nar", path("no-such-file")]),
        ("mass", ["dominate", path("mass"), "--generator", base.generator_names[0]]),
        ("leaforder", ["bounds", path("leaforder"), "--option", base.option_names[0]]),
        ("claim-length", ["strict-dual", base.market_path, "--claim", claim("claim-length"), "--eps", EPS]),
        ("zero-denominator", ["superhedge", path("zero-denominator"), "--claim", base.claim_path]),
        ("unknown-option", ["bounds", base.market_path, "--option", "no-such-option"]),
        ("zero-eps", ["strict-dual", base.market_path, "--claim", base.claim_path, "--eps", "0"]),
    ]
    return [
        Op(f"{prefix}/{name}", "cli", ("cli_s",), None, argv + ["--verify"], argv[0],
           expect_invalid=True, known_defect=KNOWN_DEFECTS.get(name))
        for name, argv in specs
    ]


CLI_SHAPES = tuple(Shape(*dims) for dims in (
    (1, 3, 1, 1, 1), (1, 4, 1, 2, 2), (1, 5, 2, 3, 1), (1, 6, 1, 2, 3),
    (2, 4, 1, 1, 1), (2, 5, 0, 2, 2), (2, 6, 2, 3, 1), (2, 6, 1, 2, 2),
    (3, 5, 1, 1, 2), (3, 6, 1, 2, 2), (3, 7, 1, 1, 3), (3, 8, 1, 2, 1),
))


def cli_mixed(seed: int, directory: Path, tick=_noop) -> list[list[Case]]:
    rng = random.Random(f"cli-mixed/{seed}")
    markets = [arbitrage_free_market(f"small{k}", rng, shape) for k, shape in enumerate(CLI_SHAPES)]
    markets.append(free_option_market("arbitrage", rng, Shape(2, 5, 1, 1, 2)))
    markets += [ladder_market(label, b, p, m, rng) for label, b, p, m, _ in LADDER[1:3]]
    cases = []
    for market in markets:
        _materialize(market, directory)
        tick()
        ops = []
        for command in SUBCOMMANDS:
            query = COMMAND_QUERY.get(command)
            metrics = ("cli_s", QUERY_METRIC[query]) if query else ("cli_s",)
            ops.append(cli_op(market, command, metrics))
        cases.append(Case(market.label, ops, market))
    # hostile variants of the trinomial tree and of a small market: 28 of
    # the round's 163 commands
    for base in (markets[len(CLI_SHAPES) + 1], markets[1]):
        cases.append(Case(f"hostile-{base.label}", _hostile_ops(base, directory)))
    return [cases]


WORKLOADS = {
    "tree-ladder": tree_ladder,
    "market-sweep": market_sweep,
    "cli-mixed": cli_mixed,
}
