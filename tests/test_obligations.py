"""Which steps discharge each finite obligation of the three chains.

Per chain, the uniqueness claim rests on five obligations, in the paper's
order:

- O1, sigma on V: order 3, fixed type F, and both twisted minima at least 1;
- O2, the orbifold's weight-one algebra: its dimension and the unique
  survivor of the order-3 filter;
- O3, V_N: the survivor's Niemeier lattice, and an order-3 lift of an
  isometry of it with fixed type F;
- O4, that lift is unique up to conjugacy;
- O5, the reverse orbifold gives back dim g.

O1-O3 are discharged today by named steps of `run_case(cf)` and of
`verify_lattice()`; O4 and O5 have no step yet and name what stays open.
The table is read by step name, which is unique within each case report
and within the lattice battery.
"""

import pytest

from orbifold24 import cases

# the steps of run_case(cf) that discharge O1 and O2, the same for each case
CASE_STEPS = {
    "O1": (
        "twist norm <h|h>",
        "twist norm in 2Z",
        "twist norm in (2/3)Z",
        "shift bound (h|alpha) >= -1",
        "min twisted weight (+h)",
        "min twisted weight (-h)",
        "category twist order",
        "fixed subalgebra",
        "fixed subalgebra dim",
    ),
    "O2": (
        "dimension formula coefficients",
        "orbifold weight-one dim",
        "order-3 admissibility survivors",
    ),
}


def lattice_o3(lattice: str, isometry: str):
    """The lattice battery's O3 steps of one case: its survivor's lattice,
    and the isometry whose lift has fixed type F."""
    return (
        f"{lattice}: glue index",
        f"{lattice}: root count",
        f"{lattice}: algebra dim",
        f"{lattice}: bracket table is the Frenkel-Kac cocycle bracket",
        f"{isometry}: order",
        f"{isometry}: preserves gram",
        f"{isometry}: fixed subalgebra",
        f"{isometry}: fixed dim",
    )


# case id -> obligation -> (steps of run_case, steps of verify_lattice),
# or the open item that will discharge it
OBLIGATIONS = {
    case_id: {
        **{o: (steps, ()) for o, steps in CASE_STEPS.items()},
        "O3": (("lattice-side fixed subalgebra", "lattice-side fixed dim"),
               lattice_o3(lattice, isometry)),
        "O4": "open: ledger entry 3, conjugacy-class uniqueness of the named lattice automorphisms",
        "O5": "open: ROADMAP items 2 and 21, the reverse orbifold on the lattice side",
    }
    for case_id, lattice, isometry in (("e6g2", "e6_4", "sigma6"), ("a2x6", "d4_6", "sigma2"),
                                       ("a5d4", "d4_6", "sigma4"))
}

# the steps that no obligation names: info steps, and diagnostics that
# guard a fact some named step also rests on
UNNAMED_CASE_STEPS = [
    "tuple space size",
    "vacuum tuple is a witness",
    "dim of the ambient weight-one algebra",
    "forced ratio h-dual/level",
    "candidates",
]
UNNAMED_LATTICE_STEPS = [
    "e6_4: glue automorphism group order",
    "d4_6: glue automorphism group order",
    "sigma6: twisted ground energy",
    "sigma6: eigenvalue multiplicities",
    "sigma6: projected glue-vector norm",
    "sigma6: first glue digit projects to zero",
    "orthogonal A2^3 sublattices of E6",
]


def steps_by_name(rep, count):
    """A report's steps by name; the names are unique and there are count."""
    steps = {s.name: s for s in rep.steps}
    assert len(rep.steps) == len(steps) == count
    return steps


@pytest.mark.parametrize("case_id", sorted(OBLIGATIONS))
def test_each_obligation_names_passing_steps(case_id):
    case_steps = steps_by_name(cases.run_case(cases.BUILTIN_CASES[case_id]), 19)
    lattice_steps = steps_by_name(cases.verify_lattice(), 27)
    table = OBLIGATIONS[case_id]
    assert sorted(table) == ["O1", "O2", "O3", "O4", "O5"]
    for obligation in ("O1", "O2", "O3"):
        in_case, in_lattice = table[obligation]
        assert in_case or in_lattice
        for name in in_case:
            assert case_steps[name].verdict == "pass", (obligation, name)
        for name in in_lattice:
            assert lattice_steps[name].verdict == "pass", (obligation, name)
    # the open obligations: O4 is still consumed as input, and says so
    assert table["O4"].startswith("open: ledger entry 3,")
    assert table["O4"].split(", ", 1)[1] in cases.ASSUMPTIONS[2]
    assert table["O5"].startswith("open: ROADMAP items 2 and 21")


def test_the_steps_no_obligation_names_are_pinned():
    # the candidates for one step per fact (ROADMAP item 15) or for deletion
    named_case = {n for t in OBLIGATIONS.values() for o in ("O1", "O2", "O3") for n in t[o][0]}
    named_lattice = {n for t in OBLIGATIONS.values() for o in ("O1", "O2", "O3") for n in t[o][1]}
    for cf in cases.BUILTIN_CASES.values():
        unnamed = [s.name for s in cases.run_case(cf).steps if s.name not in named_case]
        assert unnamed == UNNAMED_CASE_STEPS
    unnamed = [s.name for s in cases.verify_lattice().steps if s.name not in named_lattice]
    assert unnamed == UNNAMED_LATTICE_STEPS
