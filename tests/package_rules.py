"""Check nineteen rules over the modules of the package, `src/hedgecert/*.py`.

A name a module imports but never uses fails; __init__.py is skipped,
because its imports are the package's re-exports. So does a name in a
parameter, return or variable annotation that the module neither imports,
defines nor gets from builtins: under `from __future__ import annotations`
it never fails at run time. So does dead private code: a module-level
function, class or assignment whose name starts with _ (dunders aside) and
that no module of the package names outside its own definition, as a name,
an attribute or an import; a use from tests alone does not count. So does a
use of the solver's entry points, `solve_lp`, `LpProblem` or `_Phase1`, as a
name or an attribute, in a module other than lp.py and arbitrage.py: every
measure program is built and solved by `arbitrage._solve`. An import or an
annotation is not a use. So does a read of a `.rows` attribute outside
lp.py: a program's rows are the face's, one column short of a push
program's, and only the kernel and its replay, which derives the late
column, may read them. So does dead compiled state: a field of
`CompiledMarket` that no module of the package reads as an attribute; a
read from tests alone does not count. So
does a replay that reads compiled payoffs: a `verify_*` function or
`strictly_inside_quotes` that reads `integer_payoffs` or `payoff_columns`,
so every replay prices the options from their payoffs, apart from the
queries. So does a use of `lp._combine`, as a name or an
attribute, anywhere but in `_pivot`: every row update is a pivot's, and
phase 2 builds its start row in one sum. So does, in arbitrage.py, a use of
`solve_lp` or a `.program` attribute outside `_solve`, or of `LpProblem` or
`_Phase1` outside `_face`: every reader of a measure program takes
`_solve`'s outcome, not a problem of its own. An import or an annotation is
not a use. So does a write of a compiled market's store of kept state,
`_state`, anywhere but in `model._kept`: a subscript assignment or
deletion, an augmented assignment or a call of a mutating dict method, on
a `._state` attribute or a name bound to one, or an `object.__setattr__`
or `setattr` call that names `_state` or a name that is not a string, so
each entry is built once, under its lock. So does a `_kept` call whose
entry name is not a string literal, or that names an entry another `_kept`
call names, so each entry has one builder. So does a non-init field of
`CompiledMarket` other than `_checked` and `_state`: what a market keeps
goes in the store. So does a `MartingaleMeasure(...)` call anywhere but
in `arbitrage._measure`, so
every measure the package returns is weighted and priced in one place; the
one other call allowed is in `arbitrage._nar_verdict`, and only when every
argument is `list(name)`: it copies the interior measure `_robustness`
built through `_measure` and keeps, and prices nothing. So
does a `_solve` call with a push, a third positional, starred or `push`
argument, anywhere but in `arbitrage._floor`, so each floor program is
solved once per market and no path solves it again around the kept outcome.
So does a call to `_robustness` or `_arbitrage` anywhere but in
`arbitrage._floor`, so no reader derives a floor verdict again around the
parts `_floor` keeps. So does a module other than arbitrage.py that names
`_floor`, `_arbitrage`, `_robustness`, `_na_verdict` or `_nar_verdict`, as
a name, an attribute or an import: every other module reads a verdict from
`check_na` and `check_nar`, the public answers. So does a read of a
`.farkas` attribute outside lp.py and `arbitrage._face`, which derives an
infeasible face's ray once and keeps it with the face, so no path derives
the ray again. So does a use of `lp._duals`, as a name or an attribute,
anywhere but in `lp._Phase1.__init__`, which derives an infeasible face's
Farkas vector, or as the first argument of a `partial` call, the
derivation an optimal outcome keeps and runs only when its `dual` is read
(`lp.LpOutcome`), so no path builds the duals eagerly again. So does a
cli.py that names `_print_report` more than once, or anywhere but in
`main`, or that calls `_emit_error("arbitrage", ...)` anywhere but in
`_failure`: every report is printed at one site, and every raised arbitrage
failure reported by one function, which replays the ray it carries.
Nineteen rules in all.

    python tests/package_rules.py

Run from the repository root. Prints each problem as path:line: message,
or one line naming the rules when there is none, and exits 1 on a problem.
"""

import ast
import builtins
import collections
import pathlib
import sys

problems = []
for path in sorted(pathlib.Path("src/hedgecert").glob("*.py")):
    if path.name == "__init__.py":
        continue
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems += [f"{path}:{line}: {name} imported but unused"
                 for name, line in imported.items() if name not in used]

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bound = set(imported) | set(dir(builtins))
    bound |= {node.name for node in ast.walk(tree) if isinstance(node, defs)}
    bound |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            annotations += [p.annotation for p in params if p] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        line = annotation.lineno
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        problems += [f"{path}:{line}: annotation names {node.id}, which nothing binds"
                     for node in ast.walk(annotation)
                     if isinstance(node, ast.Name) and node.id not in bound]

trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(pathlib.Path("src/hedgecert").glob("*.py"))}

def named(node):
    """The names one node itself uses: a loaded name, an attribute, an import's."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []

def names(nodes):
    """Every name the nodes use: loaded names, attributes, imports."""
    for node in nodes:
        for sub in ast.walk(node):
            yield from named(sub)

uses = collections.Counter(names(trees.values()))
for path, tree in trees.items():
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [sub.id for t in targets for sub in ast.walk(t)
                       if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
        else:
            continue
        own = collections.Counter(names([node]))  # uses inside the definition
        problems += [f"{path}:{node.lineno}: private {name} is never used"
                     for name in defined
                     if name.startswith("_") and not name.endswith("__")
                     and uses[name] == own[name]]

def annotated(tree):
    """The ids of every node inside a parameter, return or variable annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            roots += [p.annotation for p in params if p] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in filter(None, roots) for sub in ast.walk(root)}

solver = {"solve_lp", "LpProblem", "_Phase1"}
for path, tree in trees.items():
    if path.name in ("lp.py", "arbitrage.py"):
        continue
    skip = annotated(tree)
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)
        if name in solver and id(node) not in skip:
            problems.append(f"{path}:{node.lineno}: {name} used outside lp.py and "
                            "arbitrage.py, which alone build and solve programs")
arbitrage_path = pathlib.Path("src/hedgecert/arbitrage.py")
home = {"solve_lp": "_solve", "program": "_solve", "LpProblem": "_face", "_Phase1": "_face"}
skip = annotated(trees[arbitrage_path])
for top in trees[arbitrage_path].body:
    owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
    for node in ast.walk(top):
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) and node.id != "program" else None)
        if name in home and owner != home[name] and id(node) not in skip:
            problems.append(f"{arbitrage_path}:{node.lineno}: {name} used in "
                            f"{owner or 'module scope'}; only {home[name]} may use it")
problems += [f"{path}:{node.lineno}: .rows read outside lp.py, the one reader of "
             "a program's rows" for path, tree in trees.items() if path.name != "lp.py"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "rows" and isinstance(node.ctx, ast.Load)]
read = {node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
model_path = pathlib.Path("src/hedgecert/model.py")
compiled = next(node for node in trees[model_path].body
                if isinstance(node, ast.ClassDef) and node.name == "CompiledMarket")
problems += [f"{model_path}:{node.lineno}: CompiledMarket field {node.target.id} is "
             "never read in the package" for node in compiled.body
             if isinstance(node, ast.AnnAssign) and node.target.id not in read]
replays = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and (node.name.startswith("verify_") or node.name == "strictly_inside_quotes")]
problems += [f"{path}:{sub.lineno}: replay {fn.name} reads {sub.attr}, the "
             "compiled state it must check independently" for path, fn in replays
             for sub in ast.walk(fn) if isinstance(sub, ast.Attribute)
             and sub.attr in ("integer_payoffs", "payoff_columns")]

def scoped(node, function=None):
    """(innermost enclosing function's name, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        yield function, child
        defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from scoped(child, child.name if defines else function)

problems += [f"{path}:{node.lineno}: _combine used in {function or 'module scope'}; "
             "only _pivot may update a row" for path, tree in trees.items()
             for function, node in scoped(tree) if function != "_pivot"
             and "_combine" in (getattr(node, "id", None), getattr(node, "attr", None))]
def init_false(node):
    """True for a class-body field declared `= field(..., init=False, ...)`."""
    return isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in node.value.keywords)

problems += [f"{model_path}:{node.lineno}: CompiledMarket declares the non-init field "
             f"{node.target.id}; only _checked and the store, _state, may be one"
             for node in compiled.body if init_false(node)
             and node.target.id not in ("_checked", "_state")]
aliases = collections.defaultdict(set)  # (path, function): names bound to a store
for path, tree in trees.items():
    for function, node in scoped(tree):
        if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "_state":
            aliases[path, function] |= {t.id for t in node.targets if isinstance(t, ast.Name)}
mutators = {"__setitem__", "__delitem__", "setdefault", "update", "pop", "popitem", "clear"}

def writes_store(node, names):
    """True for a node that writes a store, a `._state` attribute or a name
    in `names`, or replaces one: `object.__setattr__` or `setattr` naming
    `_state` or a name that is not a string."""
    def store(value):
        return getattr(value, "attr", None) == "_state" or getattr(value, "id", None) in names
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, (ast.Store, ast.Del)) and store(node.value)
    if isinstance(node, ast.AugAssign):
        return store(node.target)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in mutators:
        return store(func.value)
    if not (getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__"
            and getattr(func.value, "id", None) == "object"):
        return False
    name = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
    return not isinstance(name, str) or name == "_state"

problems += [f"{path}:{node.lineno}: store of kept state written in {function or 'module scope'}; "
             "only model._kept may write it" for path, tree in trees.items()
             for function, node in scoped(tree) if (path, function) != (model_path, "_kept")
             and writes_store(node, aliases[path, function])]
entries = collections.Counter()
for path, tree in trees.items():
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and "_kept" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            continue
        name = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "name"), None)
        if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            problems.append(f"{path}:{node.lineno}: _kept entry named by no string literal")
            continue
        entries[name.value] += 1
        if entries[name.value] == 2:
            problems.append(f"{path}:{node.lineno}: _kept entry {name.value} named by a second "
                            "call; each entry has one builder")
def copies(call):
    """True for a call whose arguments are all `list(name)`: copies of
    kept tuples, with nothing computed."""
    return not call.keywords and all(
        isinstance(a, ast.Call) and getattr(a.func, "id", None) == "list" and not a.keywords
        and len(a.args) == 1 and isinstance(a.args[0], ast.Name) for a in call.args)

problems += [f"{path}:{node.lineno}: MartingaleMeasure built in {function or 'module scope'}; "
             "only arbitrage._measure may build a measure, and _nar_verdict copy a kept one"
             for path, tree in trees.items()
             for function, node in scoped(tree) if isinstance(node, ast.Call)
             and "MartingaleMeasure" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             and (path, function) != (arbitrage_path, "_measure")
             and not ((path, function) == (arbitrage_path, "_nar_verdict") and copies(node))]
problems += [f"{path}:{node.lineno}: _solve given a push in {getattr(top, 'name', 'module scope')}; "
             "only arbitrage._floor, which keeps the outcome, may solve a floor program"
             for path, tree in trees.items() for top in tree.body
             if (path, getattr(top, "name", None)) != (arbitrage_path, "_floor")
             for node in ast.walk(top) if isinstance(node, ast.Call)
             and "_solve" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             and (len(node.args) > 2 or any(isinstance(a, ast.Starred) for a in node.args)
                  or any(k.arg in ("push", None) for k in node.keywords))]
problems += [f"{path}:{node.lineno}: {name} called in {getattr(top, 'name', 'module scope')}; "
             "only the kept floor's build derives a verdict's parts"
             for path, tree in trees.items() for top in tree.body
             for node in ast.walk(top) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
             if name in ("_robustness", "_arbitrage")
             and (path, getattr(top, "name", None)) != (arbitrage_path, "_floor")]
floors = {"_floor", "_arbitrage", "_robustness", "_na_verdict", "_nar_verdict"}
problems += [f"{path}:{node.lineno}: {name} named outside arbitrage.py, where a verdict "
             "is read from check_na and check_nar alone" for path, tree in trees.items()
             if path != arbitrage_path for node in ast.walk(tree)
             for name in named(node) if name in floors]
problems += [f"{path}:{node.lineno}: .farkas read in {getattr(top, 'name', 'module scope')}; "
             "only arbitrage._face, which keeps the ray, may read a Farkas vector"
             for path, tree in trees.items() if path.name != "lp.py" for top in tree.body
             if (path, getattr(top, "name", None)) != (arbitrage_path, "_face")
             for node in ast.walk(top) if isinstance(node, ast.Attribute)
             and node.attr == "farkas" and isinstance(node.ctx, ast.Load)]
lp_path = pathlib.Path("src/hedgecert/lp.py")
phase1_init = next(node for top in trees[lp_path].body
              if isinstance(top, ast.ClassDef) and top.name == "_Phase1"
              for node in top.body if getattr(node, "name", None) == "__init__")
allowed = {id(sub) for sub in ast.walk(phase1_init)}
allowed |= {id(node.args[0]) for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "partial"
            and node.args}
problems += [f"{path}:{node.lineno}: _duals used outside a partial and _Phase1.__init__; "
             "an outcome's duals are derived only when read"
             for path, tree in trees.items() for node in ast.walk(tree)
             if "_duals" in (getattr(node, "id", None), getattr(node, "attr", None))
             and id(node) not in allowed]
cli_path = pathlib.Path("src/hedgecert/cli.py")
prints = [(function, node) for function, node in scoped(trees[cli_path])
          if "_print_report" in (getattr(node, "id", None), getattr(node, "attr", None))]
problems += [f"{cli_path}:{node.lineno}: _print_report named in {function or 'module scope'}; "
             "main alone prints a report, at one site" for function, node in prints
             if function != "main" or len(prints) > 1]
problems += [f"{cli_path}:{node.lineno}: arbitrage error emitted in {function or 'module scope'}; "
             "only _failure reports a raised arbitrage failure"
             for function, node in scoped(trees[cli_path]) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_emit_error" and function != "_failure"
             and node.args and getattr(node.args[0], "value", None) == "arbitrage"]
print("\n".join(problems) or "no unused imports, unbound annotation names, dead "
      "private code, solver use outside lp.py and arbitrage.py, row read "
      "outside lp.py, unread compiled field, replay of compiled payoffs, row "
      "update outside _pivot, program built or solved outside _face and _solve, kept "
      "state written outside _kept, kept entry named by no literal or twice, non-init "
      "field besides _checked and _state, measure built outside _measure, floor program "
      "solved outside _floor, floor verdict derived outside _floor or read "
      "outside check_na and check_nar, Farkas vector read outside _face, duals "
      "derived before they are read, report printed at more than main's one site "
      "or arbitrage error emitted outside _failure")
sys.exit(bool(problems))
