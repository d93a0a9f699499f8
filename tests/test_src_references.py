"""Every definition in the package has a caller in the package.

Code that only the tests use lives in `tests/helpers.py`.  This scan finds
each class, function and non-dunder method defined in `src/orbifold24` and
requires its name to appear elsewhere in the package: a class or function
as a name, an attribute or an import, a method only as an attribute
(`x.name`), so a local variable of the same name does not count.  A use
inside its own definition does not count either.
"""

import ast
from pathlib import Path

import orbifold24

from helpers import package_caches

SRC = Path(orbifold24.__file__).parent

# planned to become a report step; until then only the tests call it
EXEMPT = {"latticevoa.LiftedAutomorphism.verify_automorphism"}
# NamedTuple hooks: _replace calls _make, which must validate as __new__ does
EXEMPT |= {"rootdata.SimpleType._make", "affinerep.AffineAlgebra._make"}


def definitions(tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def uses(tree):
    """(name, line, is_attribute) for every name, attribute and import."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno, False
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno, True
        elif isinstance(n, ast.ImportFrom):
            for alias in n.names:
                yield alias.name, n.lineno, False


def test_every_src_definition_is_used_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {mod: list(uses(tree)) for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        for qual, node in definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            method = "." in qual
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                n == name and (attr or not method) and not (m == mod and line in inside)
                for m, refs in used.items()
                for n, line, attr in refs
            ):
                unused.append(f"{mod}.{qual}")
    assert sorted(unused) == sorted(EXEMPT)


def test_no_module_draws_at_random():
    # every step is deterministic: no module imports `random`
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                importers.append(path.stem)
    assert importers == []


def cached_functions(nodes):
    """The function definitions among nodes decorated with lru_cache."""
    for n in nodes:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in n.decorator_list]
            names = [getattr(d, "id", getattr(d, "attr", "")) for d in decorators]
            if "lru_cache" in names or "cache" in names:
                yield n


def test_no_cached_function_has_a_default():
    # an lru_cache keys f() apart from f(12), so a cached function takes
    # each argument from its caller: one value, one cache entry
    knobs = []
    for path in sorted(SRC.glob("*.py")):
        for n in cached_functions(ast.walk(ast.parse(path.read_text()))):
            if n.args.defaults or any(d is not None for d in n.args.kw_defaults):
                knobs.append(f"{path.stem}.{n.name}")
    assert knobs == []


def test_fresh_caches_clears_every_cached_function():
    # the fresh_caches fixture clears what package_caches finds; that must
    # be every function and method decorated with lru_cache in the package,
    # and each of them must sit at module or class level, where it can be
    # reached to be cleared
    decorated, anywhere = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        anywhere += len(list(cached_functions(ast.walk(tree))))
        decorated += [f"{path.stem}.{n.name}" for n in cached_functions(tree.body)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            decorated += [f"{path.stem}.{cls.name}.{n.name}" for n in cached_functions(cls.body)]
    assert decorated and len(decorated) == anywhere
    assert sorted(package_caches()) == sorted(decorated)
    # the count is pinned, so that a new per-process cache is a decision
    # recorded here
    assert len(decorated) == 23


def test_no_assert_statement_in_src():
    # an assert vanishes under python -O; every invariant of the package is
    # an explicit check that raises
    asserts = [
        f"{path.stem}:{n.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Assert)
    ]
    assert asserts == []


def test_no_function_takes_a_private_parameter():
    # a parameter named with a leading underscore is a knob for some callers
    # only, a second path through the function; every parameter a function
    # takes is one that any caller may pass
    knobs = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = n.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            knobs += [f"{path.stem}.{n.name}({p.arg})" for p in params if p.arg.startswith("_")]
    assert knobs == []
