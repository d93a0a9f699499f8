"""Every definition in the package has a caller in the package.

Code that only the tests use lives in `tests/helpers.py`.  This scan finds
each class, function and non-dunder method defined in `src/orbifold24` and
requires its name to appear elsewhere in the package: a class or function
as a name, an attribute or an import, a method only as an attribute
(`x.name`), so a local variable of the same name does not count.  A use
inside its own definition does not count either.
"""

import ast
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import orbifold24
from orbifold24 import (
    affinerep, cases, latticevoa, qmodular, rootdata, schellekens, twistbound,
)

from helpers import package_caches

SRC = Path(orbifold24.__file__).parent

# NamedTuple hooks: _replace calls _make, which must validate as __new__ does
EXEMPT = {"rootdata.SimpleType._make", "affinerep.AffineAlgebra._make"}


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
    # recorded here: the last are the order-3 filter's option rows per ideal
    # and sorted positions per candidate
    assert len(decorated) == 27


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


E6_CASE = cases.BUILTIN_CASES["e6g2"]
E6 = rootdata.SimpleType("E", 6)
TRUNC = qmodular.TRUNC

# one probe per cached function, on arguments that the built-in cases pass
CACHE_PROBES = {
    "affinerep.enumerate_level_weights":
        lambda: affinerep.enumerate_level_weights(E6_CASE.ambient[0]),
    "cases.forward_chain": lambda: cases.forward_chain(E6_CASE),
    "cases.lattice_data": lambda: cases.lattice_data(E6_CASE.expected_target),
    "cases.lattice_fixed_type": lambda: cases.lattice_fixed_type(E6_CASE),
    "cases.lattice_isometry": lambda: cases.lattice_isometry(E6_CASE),
    "latticevoa.GlueCode.words": lambda: latticevoa.NI_E6_4.words(),
    "latticevoa._catalogue_powers":
        lambda: latticevoa._catalogue_powers((E6, "inner", "A2,1 A2,1 A2,1")),
    "latticevoa._coset_norm_floor": lambda: latticevoa._coset_norm_floor(E6, 1),
    "latticevoa._digit_reps": lambda: latticevoa._digit_reps(E6),
    "latticevoa._negative_pairs": lambda: latticevoa._negative_pairs(E6),
    "qmodular.derive_dimension_formula": lambda: qmodular.derive_dimension_formula(),
    "qmodular.f_power_at_S": lambda: qmodular.f_power_at_S(-3, TRUNC),
    "qmodular.hauptmodul_f": lambda: qmodular.hauptmodul_f(TRUNC),
    "qmodular.laurent_table": lambda: qmodular.laurent_table(),
    "rootdata._affine_diagram": lambda: rootdata._affine_diagram(E6),
    "rootdata.SemisimpleTypeWithLevels.__str__": lambda: str(E6_CASE.expected_target),
    "rootdata.build_root_system": lambda: rootdata.build_root_system(E6),
    "rootdata.parse_ideal": lambda: rootdata.parse_ideal("E6,1"),
    "rootdata.parse_rational": lambda: rootdata.parse_rational("1/3"),
    "schellekens._inner_options_at_level_one":
        lambda: schellekens._inner_options_at_level_one(E6),
    "schellekens._option_rows": lambda: schellekens._option_rows(
        cases.unique_survivor(E6_CASE)[0].ideals[0]
    ),
    "schellekens._positions": lambda: schellekens._positions(cases.unique_survivor(E6_CASE)[0]),
    "schellekens._tally": lambda: schellekens._tally(E6_CASE.expected_fixed),
    "schellekens._moves": lambda: schellekens._moves(
        E6_CASE.expected_fixed, cases.unique_survivor(E6_CASE)[0].ideals[0], True
    ),
    "schellekens.enumerate_candidates":
        lambda: schellekens.enumerate_candidates(
            cases.forward_chain(E6_CASE).target_dim, cases.forward_chain(E6_CASE).ratio
        ),
    "schellekens.order3_fixed_options": lambda: schellekens.order3_fixed_options(E6, 1),
    "twistbound.ideal_twist": lambda: twistbound.ideal_twist(E6_CASE.ambient[0], E6_CASE.h[0]),
}


def is_value(x) -> bool:
    """Whether x is built of None, bools, ints, strings and Fractions inside
    tuples (NamedTuples included), frozensets and read-only mappings."""
    if x is None or isinstance(x, (bool, int, str, Fraction)):
        return True
    if isinstance(x, (tuple, frozenset)):
        return all(map(is_value, x))
    if isinstance(x, MappingProxyType):
        return all(map(is_value, x.keys())) and all(map(is_value, x.values()))
    return False


def test_cached_functions_return_values():
    # a per-process cache hands every caller the same object, so what it
    # holds must be immutable: an edit by one caller would change every
    # later step.  A new cache declares its probe here
    assert sorted(CACHE_PROBES) == sorted(package_caches())
    mutable = [name for name, probe in CACHE_PROBES.items() if not is_value(probe())]
    assert mutable == []


@pytest.mark.parametrize(
    "table",
    [
        lambda: cases.lattice_data(E6_CASE.expected_target)[1].pairs[0],
        lambda: cases.lattice_data(E6_CASE.expected_target)[1].cr[0],
        lambda: cases.lattice_data(E6_CASE.expected_target)[1].root_index,
        lambda: rootdata.build_root_system(E6).form,
        lambda: qmodular.hauptmodul_f(TRUNC).coeffs,
        lambda: qmodular.laurent_table(),
    ],
    ids=["pairs-row", "cr-row", "root-index", "root-system-form", "series-coeffs",
         "laurent-table"],
)
def test_cached_tables_refuse_writes(table):
    # a write into a cached table raises, so no caller can change what
    # every later caller reads
    with pytest.raises(TypeError):
        table()[0] = None
