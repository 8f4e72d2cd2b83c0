"""Check every rule of `RULES` below over the modules of `src/hedgecert/`.

    python tests/package_rules.py

Run from the repository root. Prints each problem as `path:line: message`
and exits 1 when there is one; otherwise prints one line naming the rules.
`check(root)` gives the problem lines for the modules under root.
"""

import ast
import builtins
import collections
import functools
import pathlib
import sys

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)
# a node of a module, with the node it hangs from, the names of the definitions around it,
# outermost first, the innermost function's name and the root of the annotation it is in
Site = collections.namedtuple("Site", "path node parent scope function annotation")

def mentioned(node):
    """What a node mentions: a name `n` (as a name or an attribute), `.n` (as
    an attribute), `n()` (as a call) or `import n` (in a from-import)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr, "." + node.attr]
    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
        return [mentioned(node.func)[0] + "()"]
    if isinstance(node, ast.ImportFrom):
        return ["import " + alias.name for alias in node.names]
    return []

@functools.lru_cache(maxsize=16)
def survey(path, source):
    """A module's sites in source order, and their positions by node type and
    by what they mention; kept while the text stays the same, so a checked
    copy with one module changed walks only that one."""
    sites, mentions = [], collections.defaultdict(list)
    stack = [Site(path, ast.parse(source, str(path)), None, (), "module scope", None)]
    while stack:
        site = stack.pop()
        node = site.node
        for key in [type(node), *mentioned(node)]:
            mentions[key].append(len(sites))
        sites.append(site)
        scope = site.scope + (node.name,) if isinstance(node, DEFINITIONS) else site.scope
        function = node.name if isinstance(node, FUNCTIONS) else site.function
        stack += reversed([Site(path, child, node, scope, function, site.annotation or (
                               child if field in ("annotation", "returns") else None))
                           for field, value in ast.iter_fields(node)
                           for child in (value if isinstance(value, list) else [value])
                           if isinstance(child, ast.AST)])
    return sites, mentions

def find(package, *keys, path=None):
    """(site, key) for each site of the module at path, or of every module of
    the package, that mentions one of keys, in module and source order."""
    return [(sites[i], key) for at, (sites, mentions) in package.items() if path in (None, at)
            for i, key in sorted(((i, k) for k in keys for i in mentions.get(k, ())), key=lambda hit: hit[0])]

def within(site, place):
    """True for a site in `place`: a module ("lp.py") or, at any depth, one
    of its definitions ("lp.py:_Phase1.__init__")."""
    module, _, qualname = place.partition(":")
    names = tuple(qualname.split(".")) if qualname else ()
    return site.path.name == module and site.scope[:len(names)] == names

def use(names, inside, message, modules=None, imports=False, once=False):
    """The check that names are used only at the places of `inside`, each a
    place (`within`) or a test of the site. A name `n` counts as a name or an
    attribute, `.n` as an attribute and `n()` as a call; an annotation never
    counts, a from-import only with `imports`. Only `modules` are checked,
    or all; with `once`, each use is reported when there is more than one."""
    keys = [*names, *("import " + name for name in names if imports)]

    def check(package):
        uses = [(site, key.removeprefix("import ").strip(".()")) for site, key in find(package, *keys)
                if site.annotation is None and (modules is None or site.path.name in modules)]
        for site, name in uses:
            if once and len(uses) > 1 or not any(
                    place(site) if callable(place) else within(site, place) for place in inside):
                yield site.path, site.node.lineno, message.format(
                    name=name, top=(site.scope or ("module scope",))[0], function=site.function)
    return check

def imports(package, path):
    """The names the module at path imports, each with its line."""
    bound = {}
    for site, _ in find(package, ast.Import, ast.ImportFrom, path=path):
        if isinstance(site.node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], site.node.lineno) for a in site.node.names)
        elif site.node.module != "__future__":
            bound.update((a.asname or a.name, site.node.lineno) for a in site.node.names)
    return bound.items()

def unused_imports(package):
    for path in [path for path in package if path.name != "__init__.py"]:
        yield from ((path, line, f"{name} imported but unused") for name, line in imports(package, path)
                    if not any(isinstance(site.node, ast.Name) for site, _ in find(package, name, path=path)))

def unbound_annotations(package):
    for path in [path for path in package if path.name != "__init__.py"]:
        bound = {name for name, _ in imports(package, path)} | set(dir(builtins))
        bound |= {site.node.name for site, _ in find(package, *DEFINITIONS, path=path)}
        bound |= {site.node.id for site, _ in find(package, ast.Name, path=path)
                  if isinstance(site.node.ctx, ast.Store)}
        for site, _ in find(package, ast.arg, ast.AnnAssign, *FUNCTIONS, path=path):
            field = "returns" if isinstance(site.node, FUNCTIONS) else "annotation"
            annotation = root = getattr(site.node, field)
            if isinstance(root, ast.Constant) and isinstance(root.value, str):
                root = ast.parse(root.value, mode="eval")
            yield from ((path, annotation.lineno, f"annotation names {sub.id}, which nothing binds")
                        for sub in (ast.walk(root) if root else ())
                        if isinstance(sub, ast.Name) and sub.id not in bound)

def dead_private(package):
    for path, (sites, _) in package.items():
        for node in sites[0].node.body:
            if isinstance(node, DEFINITIONS):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [sub.id for t in targets for sub in ast.walk(t)
                           if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
            else:
                continue
            start, end = (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)
            yield from ((path, node.lineno, f"private {name} is never used") for name in defined
                        if name.startswith("_") and not name.endswith("__") and all(
                            site.path == path and start <= (site.node.lineno, site.node.col_offset) <= end
                            for site, _ in find(package, name, "import " + name)
                            if not isinstance(getattr(site.node, "ctx", None), ast.Store)))

def compiled_fields(package):
    """The path of model.py and `CompiledMarket`'s field declarations."""
    site = next(site for site, _ in find(package, ast.ClassDef)
                if site.path.name == "model.py" and site.node.name == "CompiledMarket")
    return site.path, [node for node in site.node.body if isinstance(node, ast.AnnAssign)]

def unread_fields(package):
    path, fields = compiled_fields(package)
    yield from ((path, node.lineno, f"CompiledMarket field {node.target.id} is never read in the package")
                for node in fields if not any(isinstance(site.node.ctx, ast.Load)
                                              for site, _ in find(package, "." + node.target.id)))

def non_init_fields(package):
    path, fields = compiled_fields(package)
    yield from ((path, node.lineno, f"CompiledMarket declares the non-init field {node.target.id}; "
                 "only _checked and the store, _state, may be one") for node in fields
                if node.target.id not in ("_checked", "_state") and any(
                    k.arg == "init" and getattr(k.value, "value", None) is False
                    for k in getattr(node.value, "keywords", ())))

def store_writes(package):
    aliases = collections.defaultdict(set)  # (path, function): the names bound to a store
    for site, _ in find(package, ast.Assign):
        if getattr(site.node.value, "attr", None) == "_state":
            aliases[site.path, site.function] |= {t.id for t in site.node.targets if isinstance(t, ast.Name)}
    for site, _ in find(package, ast.Subscript, ast.AugAssign, ast.Call):
        node, func = site.node, getattr(site.node, "func", None)
        if isinstance(node, ast.Call) and getattr(func, "attr", None) not in (
                "__setitem__", "__delitem__", "setdefault", "update", "pop", "popitem", "clear"):
            # a store replaced: setattr or object.__setattr__ naming _state or a computed name
            name = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
            writes = (getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__"
                      and getattr(func.value, "id", None) == "object") and (
                          not isinstance(name, str) or name == "_state")
        else:  # a store written: by a subscript, an augmented assignment or a mutating method
            written = func.value if func else node.target if isinstance(node, ast.AugAssign) else node.value
            writes = not isinstance(getattr(node, "ctx", None), ast.Load) and (
                getattr(written, "attr", None) == "_state"
                or getattr(written, "id", None) in aliases[site.path, site.function])
        if writes and (site.path.name, site.function) != ("model.py", "_kept"):
            yield (site.path, node.lineno,
                   f"store of kept state written in {site.function}; only model._kept may write it")

def kept_entries(package):
    seen = set()
    for site, _ in find(package, "_kept()"):
        call = site.node
        name = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "name"), None)
        if not isinstance(getattr(name, "value", None), str):
            yield site.path, call.lineno, "_kept entry named by no string literal"
        elif name.value in seen:
            yield (site.path, call.lineno,
                   f"_kept entry {name.value} named by a second call; each entry has one builder")
        else:
            seen.add(name.value)

def copies_in_nar_verdict(site):
    """True in `arbitrage._nar_verdict` for a call whose arguments are all
    `list(name)`: copies of kept tuples, with nothing computed."""
    return within(site, "arbitrage.py:_nar_verdict") and not site.node.keywords and all(
        isinstance(a, ast.Call) and getattr(a.func, "id", None) == "list" and not a.keywords
        and len(a.args) == 1 and isinstance(a.args[0], ast.Name) for a in site.node.args)

# the replays tests/replay_coverage.py lists, read off its AST so that no package code is imported
REPLAYS = next(tuple(f"{e.value.id}.py:{e.attr}" for e in node.value.elts) for node in ast.parse(
    pathlib.Path(__file__).with_name("replay_coverage.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["REPLAYS"])
Rule = collections.namedtuple("Rule", "name forbids check")
RULES = (
    Rule("unused import", "a name its module imports and never uses; __init__.py's imports are the "
         "re-exports", unused_imports),
    Rule("unbound annotation name", "an annotation naming what nothing binds, which a postponed "
         "annotation never shows at run time", unbound_annotations),
    Rule("dead private code", "a module-level _name that no module names outside its definition; tests "
         "do not count", dead_private),
    Rule("solver use outside lp.py and arbitrage.py", "the solver elsewhere: _solve solves every program",
         use(("solve_lp", "LpProblem", "_Phase1"), ("lp.py", "arbitrage.py"),
             "{name} used outside lp.py and arbitrage.py, which alone build and solve programs")),
    Rule("program solved outside _solve", "solve_lp or .program, so a reader skips _solve's outcome",
         use(("solve_lp", ".program"), ("arbitrage.py:_solve",),
             "{name} used in {top}; only _solve may use it", modules=("arbitrage.py",))),
    Rule("program built outside _face", "LpProblem or _Phase1, so a program skips the face's phase 1",
         use(("LpProblem", "_Phase1"), ("arbitrage.py:_face",),
             "{name} used in {top}; only _face may use it", modules=("arbitrage.py",))),
    Rule("row read outside lp.py", ".rows, a program's rows without the late column only lp.py adds",
         use((".rows",), ("lp.py",), ".rows read outside lp.py, the one reader of a program's rows")),
    Rule("unread compiled field", "a CompiledMarket field that no module reads; tests do not count",
         unread_fields),
    Rule("replay of compiled payoffs", "compiled payoffs in a replay of REPLAYS, which checks them",
         use((".integer_payoffs", ".payoff_columns"), (lambda site: not any(
             within(site, replay) for replay in REPLAYS),),
             "replay {top} reads {name}, the compiled state it must check independently")),
    Rule("row update outside _pivot", "_combine elsewhere: every row update is a pivot's",
         use(("_combine",), ("lp.py:_pivot",), "_combine used in {function}; only _pivot may update a row")),
    Rule("non-init field besides _checked and _state", "another non-init CompiledMarket field: what a "
         "market keeps goes in the store", non_init_fields),
    Rule("kept state written outside _kept", "a write of a market's store, _state, but in model._kept, "
         "which builds each entry once, under its lock", store_writes),
    Rule("kept entry named by no literal or twice", "a _kept entry named by no string literal or by two "
         "calls: each entry has one builder", kept_entries),
    Rule("measure built outside _measure", "a measure priced again, or a kept one copied elsewhere",
         use(("MartingaleMeasure()",), ("arbitrage.py:_measure", copies_in_nar_verdict),
             "MartingaleMeasure built in {function}; only arbitrage._measure may build a measure, "
             "and _nar_verdict copy a kept one")),
    Rule("floor program solved outside _floor", "a _solve given a push, a kept program solved again",
         use(("_solve()",), ("arbitrage.py:_floor", lambda site: len(site.node.args) <= 2 and not any(
             isinstance(a, ast.Starred) for a in site.node.args) and all(
             k.arg not in ("push", None) for k in site.node.keywords)), "_solve given a push in {top}; "
             "only arbitrage._floor, which keeps the outcome, may solve a floor program")),
    Rule("floor verdict derived outside _floor", "_robustness or _arbitrage, kept parts derived again",
         use(("_robustness()", "_arbitrage()"), ("arbitrage.py:_floor",),
             "{name} called in {top}; only the kept floor's build derives a verdict's parts")),
    Rule("floor verdict read outside check_na and check_nar", "a floor helper named or imported",
         use(("_floor", "_arbitrage", "_robustness", "_na_verdict", "_nar_verdict"), ("arbitrage.py",),
             "{name} named outside arbitrage.py, where a verdict is read from check_na and check_nar alone",
             imports=True)),
    Rule("Farkas vector read outside _face", ".farkas, a ray that _face derives once and keeps",
         use((".farkas",), ("lp.py", "arbitrage.py:_face"),
             ".farkas read in {top}; only arbitrage._face, which keeps the ray, may read a Farkas vector")),
    Rule("duals derived before they are read", "_duals run eagerly, not by the partial a read runs",
         use(("_duals",), ("lp.py:_Phase1.__init__", lambda site: getattr(getattr(
             site.parent, "func", None), "id", None) == "partial" and site.parent.args[0] is site.node),
             "_duals used outside a partial and _Phase1.__init__; an outcome's duals are derived only "
             "when read")),
    Rule("report printed at more than main's one site", "_print_report named, but once in cli.main",
         use(("_print_report",), ("cli.py:main",),
             "_print_report named in {function}; main alone prints a report, at one site", once=True)),
    Rule("arbitrage error emitted outside _failure", "a raised failure reported without its ray",
         use(("_emit_error()",), ("cli.py:_failure", lambda site: getattr(
             (site.node.args or [None])[0], "value", None) != "arbitrage"),
             "arbitrage error emitted in {function}; only _failure reports a raised arbitrage failure")),
)

def check(root):
    """The problem lines of every rule over the modules under root, rule by rule."""
    package = {path: survey(path, path.read_text(encoding="utf-8"))
               for path in sorted(pathlib.Path(root).glob("*.py"))}
    return [f"{path}:{line}: {message}" for rule in RULES for path, line, message in rule.check(package)]

if __name__ == "__main__":
    problems = check(pathlib.Path("src/hedgecert"))
    names = [rule.name for rule in RULES]
    print("\n".join(problems) or f"{len(RULES)} rules hold: no {', '.join(names[:-1])} or {names[-1]}")
    sys.exit(bool(problems))
