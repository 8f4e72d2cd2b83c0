"""JSON market and claim files, plus the serializers the CLI reports use.

Rationals travel as strings of ASCII digits with no whitespace: integers
("3", "-2"), fractions ("1/3"), or finite decimals ("0.25") parsed exactly
as p/10^k, in the one grammar `model` keeps. Output always uses the
canonical lowest-terms form, so identical models print identical bytes.
Leaf ordering is explicit in every file (`leafOrder`), never inferred, and
payoff/weight arrays align with it.

Problems are (path, message) pairs in a plain list; `_fields` checks each
JSON object's shape once, and `_stop` raises the problems found so far when
they block further parsing. A location travels as its parts, such as
("tree.nodes", 3, "prices", 0), and `_path` formats it only for an issue,
so a well-formed file formats none. Each read holds one dict from literal
string to `Fraction`, so every distinct literal of a document is parsed
once and its `Fraction`, immutable, is shared by every list that holds it.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

from .arbitrage import ArbitrageCertificate, MartingaleMeasure, RobustnessWitness
from .errors import StructureError
from .lp import _rational_lists
from .model import (
    ZERO,
    Claim,
    CompiledMarket,
    MarketModel,
    MeasureFamily,
    Node,
    OptionQuote,
    ScenarioTree,
    Strategy,
    _compile,
    _index,
    _parse_rational,
    leaf_ids,
    require_valid,
    validate_market,
)
from .redundancy import ReplicationCertificate
from .superhedge import _check_claim

SCHEMA_VERSION = 1

parse_rational_text = _parse_rational  # files and the command line share it

_MARKET_KEYS = {"schemaVersion", "tree", "options", "measures", "leafOrder"}
_TREE_KEYS = {"nodes"}
_NODE_KEYS = {"id", "time", "parent", "prices"}
_OPTION_KEYS = {"name", "payoff", "bid", "ask"}
_MEASURE_KEYS = {"name", "weights"}
_CLAIM_KEYS = {"schemaVersion", "leafOrder", "payoff"}


class MarketParseError(StructureError):
    """Carries every located problem found in an input file."""

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = issues
        super().__init__("; ".join(f"{path}: {message}" for path, message in issues))


def _stop(issues: list, since: int = 0) -> None:
    """Raise every issue so far if any came after the first `since`: those
    block further parsing."""
    if len(issues) > since:
        raise MarketParseError(issues)


def _path(*where) -> str:
    """The location a tuple of parts names: the first part, then "[k]" for
    each int part and ".name" for each str part."""
    return where[0] + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in where[1:])


def _fields(obj, keys: set[str], issues: list, *where) -> bool:
    """The one shape check of a JSON object at `where`: an issue if `obj` is
    not an object, one per unknown key, and one naming the missing keys,
    sorted. True when `obj` is an object holding every key; an object with
    exactly `keys` returns at once."""
    if isinstance(obj, dict) and obj.keys() == keys:
        return True
    if not isinstance(obj, dict):
        issues.append((_path(*where), "expected an object"))
        return False
    issues += [(_path(*where, key), "unknown field") for key in obj if key not in keys]
    missing = sorted(keys - obj.keys())
    if missing:
        issues.append((_path(*where), f"missing fields: {', '.join(missing)}"))
    return not missing


def format_rational(value: Fraction) -> str:
    # Decimal(int) converts exactly and, unlike str(int), has no digit limit
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _load_object(data: bytes | str) -> dict:
    """Decode and parse one JSON document, an object of the schema version."""
    if not isinstance(data, (bytes, str)):
        raise MarketParseError([("$", f"input is {type(data).__name__}, not bytes or str")])
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarketParseError([("$", f"not UTF-8: invalid byte at offset {exc.start}")]) from None
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MarketParseError([("$", f"malformed JSON: {exc.msg} at line {exc.lineno}")]) from None
    except RecursionError:
        raise MarketParseError([("$", "malformed JSON: nested too deeply")]) from None
    except ValueError as exc:  # an integer literal past the int-string limit
        raise MarketParseError([("$", f"malformed JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise MarketParseError([("$", "top level must be an object")])
    version = raw.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise MarketParseError([("schemaVersion", f"unsupported value {version!r}, expected {SCHEMA_VERSION}")])
    return raw


def _is_id_list(obj) -> bool:
    return isinstance(obj, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in obj
    )


def _take_rational(obj, literals: dict, issues: list, *where) -> Fraction | None:
    """The Fraction a literal spells, or None and an issue at `where`.
    `literals` maps each string parsed so far to its Fraction, so a
    document parses each distinct literal once."""
    value = literals.get(obj) if isinstance(obj, str) else None
    if value is None:
        try:
            value = literals[obj] = parse_rational_text(obj)
        except StructureError as exc:
            issues.append((_path(*where), str(exc)))
    return value


def _take_rational_list(obj, literals: dict, issues: list, *where) -> list[Fraction]:
    if not isinstance(obj, list):
        issues.append((_path(*where), "expected a list of rational strings"))
        return []
    out = []
    for k, item in enumerate(obj):
        v = literals.get(item) if isinstance(item, str) else None  # no call for a repeat
        if v is None:
            v = _take_rational(item, literals, issues, *where, k)
        out.append(v if v is not None else ZERO)
    return out


def _take_int(obj, issues: list, *where):
    if type(obj) is not int:  # bool is an int subclass
        issues.append((_path(*where), f"expected an integer, got {obj!r}"))
        return None
    return obj


def _parse_nodes(raw, literals: dict, issues: list) -> list[Node]:
    nodes = []
    if not isinstance(raw, list) or not raw:
        issues.append(("tree.nodes", "expected a non-empty list"))
        return nodes
    for k, item in enumerate(raw):
        if not _fields(item, _NODE_KEYS, issues, "tree.nodes", k):
            continue
        nid = _take_int(item["id"], issues, "tree.nodes", k, "id")
        time = _take_int(item["time"], issues, "tree.nodes", k, "time")
        parent = item["parent"]
        if parent is not None:
            parent = _take_int(parent, issues, "tree.nodes", k, "parent")
        prices = _take_rational_list(item["prices"], literals, issues, "tree.nodes", k, "prices")
        if nid is None or time is None:
            continue
        nodes.append(Node(nid, time, parent, prices))
    return nodes


def _named_entries(raw, section: str, keys: set[str], vector: str, reorder: list[int],
                   literals: dict, issues: list):
    """Yield (k, entry, name, vector) for each entry k of "options" or
    "measures" that is an object with exactly `keys`; its `vector` field is
    parsed and put in canonical leaf order. `validate_market` checks the
    names with the rest of the market."""
    if not isinstance(raw, list):
        issues.append((section, "expected a list"))
        _stop(issues)
    for k, item in enumerate(raw):
        if not _fields(item, keys, issues, section, k):
            continue
        values = _take_rational_list(item[vector], literals, issues, section, k, vector)
        if len(values) == len(reorder):
            values = [values[i] for i in reorder]
        yield k, item, item["name"], values


def parse_market(data: bytes | str) -> CompiledMarket:
    """Exact parse of a market file; every problem is reported with its path.

    Each distinct literal is parsed once, into one Fraction that every
    entry spelling it shares, and a location is formatted only for an
    issue. The market is validated and compiled here, once, so every query
    on it skips both steps."""
    issues, literals = [], {}
    raw = _load_object(data)
    if not _fields(raw, _MARKET_KEYS, issues, "$"):
        _stop(issues)
    mark = len(issues)
    if not _fields(raw["tree"], _TREE_KEYS, issues, "tree"):
        _stop(issues)
    nodes = _parse_nodes(raw["tree"]["nodes"], literals, issues)
    _stop(issues, mark)

    periods = max(node.time for node in nodes)
    roots = [n for n in nodes if n.parent is None]
    num_assets = len(roots[0].prices) if roots else 0
    tree = ScenarioTree(nodes, periods, num_assets)

    mark = len(issues)
    leaves = leaf_ids(tree)
    order_raw = raw["leafOrder"]
    if not _is_id_list(order_raw):
        issues.append(("leafOrder", "expected a list of node ids"))
    elif sorted(order_raw) != leaves:
        issues.append(("leafOrder", "must list exactly the nodes at the final period"))
    _stop(issues, mark)
    slot = {leaf: k for k, leaf in enumerate(order_raw)}
    reorder = [slot[leaf] for leaf in leaves]  # file index per canonical position

    options = []
    entries = _named_entries(raw["options"], "options", _OPTION_KEYS, "payoff", reorder,
                             literals, issues)
    for k, item, name, payoff in entries:
        bid = _take_rational(item["bid"], literals, issues, "options", k, "bid")
        ask = _take_rational(item["ask"], literals, issues, "options", k, "ask")
        if bid is not None and ask is not None:
            options.append(OptionQuote(name, payoff, bid, ask))

    generators, gen_names = [], []
    entries = _named_entries(raw["measures"], "measures", _MEASURE_KEYS, "weights", reorder,
                             literals, issues)
    for _, _, name, weights in entries:
        generators.append(weights)
        gen_names.append(name)
    _stop(issues)

    market = MarketModel(tree, options, MeasureFamily(generators, gen_names))
    report = validate_market(market)
    if not report.ok:
        raise MarketParseError([("market", v) for v in report.violations])
    return _compile(market)


def market_to_json(m: MarketModel) -> dict:
    c = require_valid(m)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "tree": {
            "nodes": [
                {
                    "id": node.id,
                    "time": node.time,
                    "parent": node.parent,
                    "prices": [format_rational(p) for p in node.prices],
                }
                for node in sorted(m.tree.nodes, key=lambda n: n.id)
            ]
        },
        "options": [
            {
                "name": opt.name,
                "payoff": [format_rational(v) for v in opt.payoff],
                "bid": format_rational(opt.bid),
                "ask": format_rational(opt.ask),
            }
            for opt in m.options
        ],
        "measures": [
            {"name": name, "weights": [format_rational(w) for w in weights]}
            for name, weights in zip(c.generator_names, m.measures.generators)
        ],
        "leafOrder": list(c.leaves),
    }


def dump_market(m: MarketModel) -> str:
    return json.dumps(market_to_json(m), indent=2)


def parse_claim(data: bytes | str, m: MarketModel) -> Claim:
    """Parse a claim file against a market's leaves; the market is
    validated first, and the payoff read as `parse_market` reads a list."""
    leaves = require_valid(m).leaves
    issues = []
    raw = _load_object(data)
    _fields(raw, _CLAIM_KEYS, issues, "$")
    _stop(issues)

    order = raw["leafOrder"]
    if not _is_id_list(order):
        issues.append(("leafOrder", "expected a list of node ids"))
    elif tuple(sorted(order)) != leaves:
        issues.append(("leafOrder", "must list exactly the nodes at the final period"))
    _stop(issues)
    payoff = _take_rational_list(raw["payoff"], {}, issues, "payoff")
    if len(payoff) != len(order):
        issues.append(("payoff", f"{len(payoff)} entries for {len(order)} leaves"))
    _stop(issues)
    slot = {leaf: k for k, leaf in enumerate(order)}
    return Claim([payoff[slot[leaf]] for leaf in leaves])


def claim_to_json(m: MarketModel, f: Claim) -> dict:
    """The claim file of `f` on a valid market; a StructureError names a
    claim that is not a Claim with one int or Fraction per leaf."""
    c = require_valid(m)
    _check_claim(c, f)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "leafOrder": list(c.leaves),
        "payoff": [format_rational(v) for v in f.payoff],
    }


_KINDS = {  # what a report field holds, by kind: its wording and its test
    "list": ("a list of ints and Fractions", _rational_lists),
    "dict": ("a dict from int node ids to lists of ints and Fractions",
             lambda v: isinstance(v, dict) and {int}.issuperset(map(type, v))
             and _rational_lists(*v.values())),
    "rational": ("an int or a Fraction", lambda v: type(v) in (int, Fraction)),
    "leaf": ("an int leaf", lambda v: type(v) is int),
}


def _instance(obj, cls, what: str, **fields) -> None:
    """StructureError unless `obj` is a `cls` (worded as `validate_market`
    words a non-market) whose named fields each hold their kind (`_KINDS`)."""
    if not isinstance(obj, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise StructureError(f"{what} is {type(obj).__name__}, not {article} {cls.__name__}")
    for name, kind in fields.items():
        value, (wanted, holds) = getattr(obj, name), _KINDS[kind]
        if not holds(value):
            raise StructureError(f"{what} {name} is {type(value).__name__}, not {wanted}")


def _dynamic_to_json(dynamic: dict) -> dict:
    return {str(nid): [format_rational(v) for v in dynamic[nid]] for nid in sorted(dynamic)}


def strategy_to_json(s: Strategy) -> dict:
    _instance(s, Strategy, "strategy", dynamic="dict", buy_leg="list", sell_leg="list")
    if len(s.buy_leg) != len(s.sell_leg):
        raise StructureError(
            f"strategy legs sized {len(s.buy_leg)}/{len(s.sell_leg)}, not one length")
    return {
        "dynamic": _dynamic_to_json(s.dynamic),
        "buyLeg": [format_rational(v) for v in s.buy_leg],
        "sellLeg": [format_rational(v) for v in s.sell_leg],
        "net": [format_rational(b - v) for b, v in zip(s.buy_leg, s.sell_leg)],
    }


def measure_to_json(q: MartingaleMeasure) -> dict:
    _instance(q, MartingaleMeasure, "measure", weights="list", option_values="list")
    return {
        "weights": [format_rational(w) for w in q.weights],
        "optionValues": [format_rational(v) for v in q.option_values],
    }


def na_certificate_to_json(cert: ArbitrageCertificate) -> dict:
    _instance(cert, ArbitrageCertificate, "certificate", gains="list", strict_leaf="leaf")
    return {
        "strategy": strategy_to_json(cert.strategy),
        "gains": [format_rational(g) for g in cert.gains],
        "strictLeaf": cert.strict_leaf,
    }


def witness_to_json(w: RobustnessWitness) -> dict:
    _instance(w, RobustnessWitness, "witness", shrunk_bids="list", shrunk_asks="list",
              slack="rational")
    return {
        "shrunkBids": [format_rational(v) for v in w.shrunk_bids],
        "shrunkAsks": [format_rational(v) for v in w.shrunk_asks],
        "slack": format_rational(w.slack),
        "interiorMeasure": measure_to_json(w.interior_measure),
    }


def replication_to_json(m: MarketModel, i: int, cert: ReplicationCertificate) -> dict:
    """Option i's replication on a valid market; an index that is not an
    option's is a DomainError."""
    c = require_valid(m)
    _index(i, len(c.options), "option index")
    _instance(cert, ReplicationCertificate, "certificate", initial_capital="rational",
              dynamic="dict", static_signed="list")
    others = [k for k in range(len(c.options)) if k != i]
    if len(cert.static_signed) != len(others):
        raise StructureError(f"certificate static_signed has {len(cert.static_signed)} "
                             f"positions for {len(others)} other options")
    return {
        "option": c.options[i].name,
        "initialCapital": format_rational(cert.initial_capital),
        "dynamic": _dynamic_to_json(cert.dynamic),
        "staticSigned": [
            {"option": c.options[k].name, "position": format_rational(h)}
            for k, h in zip(others, cert.static_signed)
        ],
    }
