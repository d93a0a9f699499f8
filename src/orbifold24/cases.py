"""Case drivers: the three order-3 uniqueness chains and the table verifier.

A case file names the ambient semisimple algebra with levels and the twist
direction in fundamental-weight coordinates per ideal; the built-in cases
also carry the expected fixed subalgebra and orbifold target, and an isometry
of the lattice whose root system is their unique survivor.  run_case replays
the whole chain: the twist steps that twist-bound also prints (invariant
norm, shift bound, exhaustive twisted minima for both twist signs), category
order, fixed subalgebra, the dimension formula, candidate enumeration and
the order-3 admissibility filter, and the lattice-side cross-check.  The
table verifier diffs each reference module table against one ideal of a
built-in case, at that case's twist of the ideal.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from . import golden, latticevoa, qmodular, schellekens
from .affinerep import (
    AffineAlgebra,
    enumerate_level_weights,
    inner_fixed_subalgebra,
    n_min_column,
    pairing_column,
    sigma_order_on_category,
)
from .exactmath import InvariantError
from .report import Report
from .rootdata import (
    ScaledCoords,
    SemisimpleTypeWithLevels,
    SimpleType,
    parse_ideal,
    parse_rational,
    scaled_coords,
)
from .schellekens import Witness
from .twistbound import invariant_norm, min_twisted_weight, shift_ok, tuple_space_size

ASSUMPTIONS = [
    "weight-one exhaustion: a non-vacuum module of the ambient algebra inside "
    "a holomorphic CFT-type container has lowest weight at least 2",
    "the category-level twist order equals the order on the full algebra only "
    "when every admissible module occurs",
    "conjugacy-class uniqueness of the named lattice automorphisms is consumed "
    "as input, not recomputed",
    "integer levels: every simple ideal of a lattice-side fixed-point Lie "
    "algebra has a positive integer level, as in every strongly regular vertex "
    "operator algebra (Dong-Mason, Integrability of C2-cofinite vertex operator "
    "algebras, IMRN 2006); the exact type certificate consumes it",
    "a Niemeier lattice is determined by its root system (Niemeier 1973; Conway-Sloane, "
    "SPLAG, Table 16.1): the forward chain's unique survivor names the lattice side",
]


CASE_KEYS = ("id", "ambient", "h")


class CaseFile(NamedTuple):
    case_id: str
    ambient: Tuple[AffineAlgebra, ...]
    h: Tuple[ScaledCoords, ...]  # per ideal, in the written order of ambient
    expected_fixed: Optional[SemisimpleTypeWithLevels] = None
    expected_target: Optional[SemisimpleTypeWithLevels] = None
    isometry_name: Optional[str] = None

    def dim_v1(self) -> int:
        return sum(a.type.dim() for a in self.ambient)

    @staticmethod
    def from_data(data: object) -> "CaseFile":
        """Parse a case object with the keys CASE_KEYS; a malformed one
        raises ValueError.  Each h_i is parsed and scaled here, once."""
        if not isinstance(data, dict):
            raise ValueError("case file must be a JSON object")
        unknown = [key for key in data if key not in CASE_KEYS]
        if unknown:
            raise ValueError(f"unknown case field {unknown[0]!r}")
        for key in ("ambient", "h"):
            if key not in data:
                raise ValueError(f"case file has no {key!r}")
        for key in ("id", "ambient"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"case field {key!r} must be a string")
        if not data["ambient"].isascii():
            raise ValueError("case field 'ambient' must be ASCII")
        h = data["h"]
        if not (isinstance(h, list) and all(isinstance(c, list) for c in h)):
            raise ValueError("'h' must be a list of coordinate lists")
        try:
            # one token per ideal, kept in the written order that h follows,
            # each type as written: h's coordinates follow its Dynkin labels
            typed = [parse_ideal(tok) for tok in data["ambient"].split()]
            coords = [[parse_rational(str(c)) for c in comp] for comp in h]
        except ValueError as err:
            raise ValueError(f"malformed case file: {err}") from None
        if not typed:
            raise ValueError("case ambient must be semisimple")
        ranks = [t.rank for t, _ in typed]
        if [len(c) for c in coords] != ranks:
            raise ValueError(
                f"'h' must give one coordinate list per ideal, of lengths {ranks}"
            )
        return CaseFile(
            case_id=data.get("id", "custom"),
            ambient=tuple(AffineAlgebra(t, k) for t, k in typed),
            h=tuple(scaled_coords(c) for c in coords),
        )

    @staticmethod
    def from_json(path: str) -> "CaseFile":
        """Load a case file; a malformed one raises ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("malformed case file: nested too deeply") from None
        return CaseFile.from_data(data)


# the built-in cases parse through from_data, then carry their expectations,
# each type parsed here once
BUILTIN_CASES: Dict[str, CaseFile] = {
    "e6g2": CaseFile.from_data({
        "id": "e6g2",
        "ambient": "E6,3 G2,1 G2,1 G2,1",
        "h": [["0"] * 6, ["1", "0"], ["1", "0"], ["1", "0"]],
    })._replace(
        expected_fixed=SemisimpleTypeWithLevels.parse("E6,3 A2,1 A2,1 A2,1"),
        expected_target=SemisimpleTypeWithLevels.parse("E6,1 E6,1 E6,1 E6,1"),
        isometry_name="sigma6",
    ),
    "a2x6": CaseFile.from_data({
        "id": "a2x6",
        "ambient": " ".join(["A2,3"] * 6),
        "h": [["1", "0"]] + [["0", "0"]] * 5,
    })._replace(
        expected_fixed=SemisimpleTypeWithLevels.parse("A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"),
        expected_target=SemisimpleTypeWithLevels.parse("D4,1 D4,1 D4,1 D4,1 D4,1 D4,1"),
        isometry_name="sigma2",
    ),
    "a5d4": CaseFile.from_data({
        "id": "a5d4",
        "ambient": "A5,3 D4,3 A1,1 A1,1 A1,1",
        "h": [["0", "0", "2/3", "0", "0"], ["0"] * 4, ["0"], ["0"], ["0"]],
    })._replace(
        expected_fixed=SemisimpleTypeWithLevels.parse("A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1"),
        expected_target=SemisimpleTypeWithLevels.parse("D4,1 D4,1 D4,1 D4,1 D4,1 D4,1"),
        isometry_name="sigma4",
    ),
}


@lru_cache(maxsize=None)
def lattice_data(
    root_system: SemisimpleTypeWithLevels,
) -> Tuple[latticevoa.EvenLattice, latticevoa.LatticeLieAlgebra]:
    """The Niemeier lattice with this root system and its weight-one algebra."""
    lat = latticevoa.assemble_niemeier(latticevoa.niemeier_code(root_system))
    return lat, latticevoa.weight_one_algebra(lat)


# the built-in case whose lattice side each isometry name stands for
ISOMETRY_CASES = {cf.isometry_name: cf for cf in BUILTIN_CASES.values()}


class ForwardChain(NamedTuple):
    """A case's forward orbifold: the fixed subalgebra, the orbifold
    weight-one dim, the ratio, the candidates and the survivors."""

    fixed: SemisimpleTypeWithLevels
    target_dim: int
    ratio: Q
    candidates: Tuple[SemisimpleTypeWithLevels, ...]
    survivors: Tuple[Tuple[SemisimpleTypeWithLevels, Witness], ...]


@lru_cache(maxsize=None)
def forward_chain(cf: CaseFile) -> ForwardChain:
    """A case's forward orbifold, computed once."""
    fixed = inner_fixed_subalgebra(cf.ambient, cf.h)
    target_dim = qmodular.dim_tilde_v1(cf.dim_v1(), fixed.dim(), 0, 0)
    ratio = Q(target_dim - 24, 24)
    candidates = schellekens.enumerate_candidates(target_dim, ratio)
    survivors = schellekens.filter_candidates(candidates, fixed)
    return ForwardChain(fixed, target_dim, ratio, candidates, survivors)


def unique_survivor(cf: CaseFile) -> Tuple[SemisimpleTypeWithLevels, Witness]:
    """The one survivor of a case's forward chain, with its witness."""
    survivors = forward_chain(cf).survivors
    if len(survivors) != 1:
        raise InvariantError(f"case {cf.case_id} has {len(survivors)} survivors, not 1")
    return survivors[0]


@lru_cache(maxsize=None)
def lattice_fixed_type(
    cf: CaseFile,
) -> Tuple[latticevoa.LatticeIsometry, SemisimpleTypeWithLevels, int]:
    """The isometry that a case's survivor's witness builds on its lattice,
    and the type and dim of the fixed subalgebra of its standard lift."""
    survivor, witness = unique_survivor(cf)
    lat, alg = lattice_data(survivor)
    iso = latticevoa.build_isometry(lat, witness, cf.isometry_name)
    fixed = latticevoa.fixed_subalgebra(latticevoa.standard_lift(alg, iso))
    return iso, latticevoa.identify_type(fixed), fixed.dim


def check_twist(rep: Report, cf: CaseFile) -> Optional[tuple]:
    """The twist steps: <h|h>, in 2Z and in (2/3)Z, the shift bound, and when
    it holds the tuple space size and the minima for h and -h, whose
    witnesses are returned (None when it fails).  The chain's values
    (<h|h> = 2, both flags true, minima 1) are expected only of a case that
    carries the chain's expectations, as the built-ins do; a case file
    carries none."""
    chain = cf.expected_target is not None
    norm_ref, flag_ref, min_ref = (Q(2), True, Q(1)) if chain else (None, None, None)
    norm, in_2z, in_23z = invariant_norm(cf.ambient, cf.h)
    rep.check("twist norm <h|h>", norm, norm_ref, source="reference")
    rep.check("twist norm in 2Z", in_2z, flag_ref)
    rep.check("twist norm in (2/3)Z", in_23z, flag_ref)
    shift = shift_ok(cf.ambient, cf.h)
    rep.check("shift bound (h|alpha) >= -1", shift, True)
    if not shift:
        return None
    rep.note("tuple space size", tuple_space_size(cf.ambient))
    m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(cf.ambient, cf.h)
    rep.check("min twisted weight (+h)", m_pos, min_ref, source="reference")
    rep.check("min twisted weight (-h)", m_neg, min_ref, source="reference")
    return wit_pos, wit_neg


def check_dimension_formula(rep: Report) -> None:
    """The dimension formula coefficients, derived once per process."""
    rep.check(
        "dimension formula coefficients",
        qmodular.derive_dimension_formula(),
        golden.DIMENSION_COEFFS,
        source="reference",
    )


def run_case(cf: CaseFile) -> Report:
    """Replay the full chain for one built-in case, checking its expectations."""
    rep = Report(f"case {cf.case_id}", assumptions=list(ASSUMPTIONS))
    witnesses = check_twist(rep, cf)
    if witnesses is not None:
        rep.check(
            "vacuum tuple is a witness",
            all(not any(w) for wit in witnesses for w in wit),
            True,
        )
    rep.check(
        "category twist order",
        sigma_order_on_category(cf.ambient, cf.h),
        3,
        source="reference",
    )

    chain = forward_chain(cf)
    fixed = chain.fixed
    rep.check("fixed subalgebra", str(fixed), str(cf.expected_fixed), source="reference")
    rep.check("fixed subalgebra dim", fixed.dim(), cf.expected_fixed.dim(), source="reference")

    rep.note("dim of the ambient weight-one algebra", cf.dim_v1())
    check_dimension_formula(rep)
    rep.check("orbifold weight-one dim", chain.target_dim, cf.expected_target.dim())

    rep.note("forced ratio h-dual/level", chain.ratio)
    rep.note("candidates", [str(c) for c in chain.candidates])
    rep.check(
        "order-3 admissibility survivors",
        [str(c) for c, _ in chain.survivors],
        [str(cf.expected_target)],
        source="reference",
    )

    if len(chain.survivors) == 1:  # built from the chain's own witness
        _, lat_type, lat_dim = lattice_fixed_type(cf)
        rep.check(
            "lattice-side fixed subalgebra",
            str(lat_type),
            str(fixed),
            source="cross-check",
        )
        rep.check("lattice-side fixed dim", lat_dim, fixed.dim(), source="cross-check")
    return rep


def _table_report(
    which: str, table_rows, algebra: AffineAlgebra, twist: ScaledCoords
) -> Report:
    """Diff the columns that the twist DP and the category order read: the
    cw column, and the pairings (h|lam) and the +h column of `n_min_column`
    where the reference rows carry them."""
    rep = Report(f"module table {which}")
    table = enumerate_level_weights(algebra)
    rep.check(
        "row count", len(table.weights), golden.TABLE_COUNTS[which], source="reference"
    )
    index = {lam: i for i, lam in enumerate(table.weights)}
    golden_weights = {coords for coords, _, _, _ in table_rows}
    rep.check(
        "weight sets agree", sorted(index) == sorted(golden_weights), True
    )
    cw_den, cws = table.cw_column
    d, pairs = pairing_column(algebra, twist)
    _, nmins, _ = n_min_column(algebra, twist)
    for coords, cw, pair, nmin in table_rows:
        i = index.get(coords)
        if i is None:
            rep.check(f"weight {coords} present", False, True)
            continue
        rep.check(f"conformal weight {coords}", Q(cws[i], cw_den), cw, source="reference")
        if pair is not None:
            rep.check(f"pairing {coords}", Q(pairs[i], d), pair, source="reference")
            rep.check(f"min pairing {coords}", Q(nmins[i], d), nmin, source="reference")
    return rep


def verify_modular() -> Report:
    rep = Report("modular data")
    f = qmodular.hauptmodul_f(qmodular.TRUNC)
    rep.check("f: coefficient of q^-1", f.coeff(-1), Q(1), source="reference")
    rep.check("f: constant term", f.coeff(0), Q(-12), source="reference")
    rep.check(
        "f: coefficient of q (displayed as binom(12,2))",
        f.coeff(1),
        golden.F_Q_COEFF_DISPLAYED,
        source="reference",
        documented=True,
    )
    for n, exp, scaled in golden.CUSP_COEFFS:
        rep.check(
            f"cusp expansion f^{n}: q^({exp}) coefficient * 3^{-6 * n}",
            qmodular.f_power_at_S(n, qmodular.TRUNC).coeff(exp) * Q(3) ** (-6 * n),
            scaled,
            source="reference",
        )
    fit = qmodular.fit_character(BUILTIN_CASES["e6g2"].expected_fixed.dim(), 0, 0)
    rep.check("pole coefficient c_-3", fit[-3], golden.POLE_COEFF, source="reference")
    check_dimension_formula(rep)
    for cf in BUILTIN_CASES.values():
        dims = (cf.dim_v1(), cf.expected_fixed.dim())
        rep.check(
            f"orbifold dim from (dim V1, d0) = {dims}",
            qmodular.dim_tilde_v1(*dims, 0, 0),
            cf.expected_target.dim(),
            source="reference",
        )
    return rep


def verify_candidates() -> Report:
    rep = Report("candidate enumeration")
    c312 = schellekens.enumerate_candidates(312, Q(12))
    rep.check(
        "candidates at (312, 12)",
        [str(c) for c in c312],
        ["A11,1 D7,1 E6,1", "E6,1 E6,1 E6,1 E6,1"],
        source="reference",
    )
    c168 = schellekens.enumerate_candidates(168, Q(6))
    rep.check("candidate count at (168, 6)", len(c168), 4, source="reference")
    pool = schellekens.simple_ideals_with_ratio(Q(6), 168)
    c5_level = next(k for t, k in pool if str(t) == "C5")
    rep.check(
        "level of the C5 ideal at ratio 6 (displayed as 2)",
        c5_level,
        golden.C5_LEVEL_DISPLAYED,
        source="reference",
        documented=True,
    )
    for cf in BUILTIN_CASES.values():
        rep.check(
            f"unique survivor for {cf.case_id}",
            [str(c) for c, _ in forward_chain(cf).survivors],
            [str(cf.expected_target)],
            source="reference",
        )
    return rep


def check_lattice(
    rep: Report, lat: latticevoa.EvenLattice, alg: latticevoa.LatticeLieAlgebra
) -> None:
    """The checks on a lattice and its algebra: glue, roots, dimension, glue group, brackets."""
    root_system = lat.code.root_system()
    exp = golden.LATTICE_EXPECTED[str(root_system)]
    name = lat.code.label()
    rep.check(f"{name}: glue index", lat.glue_index(), exp["glue_index"])
    rep.check(f"{name}: root count", alg.n_roots, sum(t.n_roots() for t, _ in root_system.ideals))
    rep.check(f"{name}: algebra dim", alg.dim, root_system.dim())
    rep.check(
        f"{name}: glue automorphism group order",
        latticevoa.glue_automorphism_group_order(lat.code),
        exp["glue_group_order"],
        source="reference",
    )
    rep.check(
        f"{name}: bracket table is the Frenkel-Kac cocycle bracket",
        latticevoa.certify_frenkel_kac(alg),
        True,
    )


def check_isometry(rep: Report, iso_name: str) -> latticevoa.LatticeIsometry:
    """The per-isometry checks on the isometry built from the witness of the
    named built-in case's survivor on its lattice, returned: order, gram, and
    the fixed subalgebra and its dim against the case's."""
    cf = ISOMETRY_CASES[iso_name]
    iso, fixed_type, fixed_dim = lattice_fixed_type(cf)
    rep.check(f"{iso_name}: order", iso.order, 3, source="reference")
    rep.check(f"{iso_name}: preserves gram", iso.preserves_gram, True)
    rep.check(
        f"{iso_name}: fixed subalgebra",
        str(fixed_type),
        str(cf.expected_fixed),
        source="reference",
    )
    rep.check(f"{iso_name}: fixed dim", fixed_dim, cf.expected_fixed.dim(), source="reference")
    return iso


def check_ground_energy(
    rep: Report, iso_name: str, iso: latticevoa.LatticeIsometry
) -> None:
    """The twisted ground energy, checked where a reference value exists,
    and the eigenvalue multiplicities it comes from."""
    rho, mults = latticevoa.twisted_ground_energy(iso)
    rep.check(
        f"{iso_name}: twisted ground energy",
        rho,
        golden.GROUND_ENERGY.get(iso_name),
        source="reference",
    )
    rep.note(f"{iso_name}: eigenvalue multiplicities", mults)


def verify_lattice() -> Report:
    rep = Report("lattice battery")
    for survivor in dict.fromkeys(unique_survivor(cf)[0] for cf in ISOMETRY_CASES.values()):
        check_lattice(rep, *lattice_data(survivor))
    isometries = {iso_name: check_isometry(rep, iso_name) for iso_name in ISOMETRY_CASES}
    s6 = isometries["sigma6"]
    check_ground_energy(rep, "sigma6", s6)
    u = s6.lattice.code.word_vector((0, 1, 0, 0))
    _, nrm = latticevoa.fixed_projection_norm(s6, u)
    rep.check(
        "sigma6: projected glue-vector norm",
        nrm,
        golden.PROJECTION_NORM,
        source="reference",
    )
    u0 = s6.lattice.code.word_vector((1, 0, 0, 0))
    (_, proj0), _ = latticevoa.fixed_projection_norm(s6, u0)
    rep.check("sigma6: first glue digit projects to zero", all(x == 0 for x in proj0), True)
    rep.check(
        "orthogonal A2^3 sublattices of E6",
        latticevoa.count_orthogonal_subsystems(
            SimpleType("E", 6), SimpleType("A", 2), 3
        ),
        golden.A2_CUBED_IN_E6,
        source="reference",
    )
    return rep


# module family -> (golden table, built-in case id, ideal index): the table
# is diffed against that case's ambient ideal and its twist there
MODULE_TABLES = {
    "g2.1": (golden.G2_1_TABLE, "e6g2", 1),
    "a2.3": (golden.A2_3_TABLE, "a2x6", 0),
    "a1.1": (golden.A1_1_TABLE, "a5d4", 2),
    "a5.3": (golden.A5_3_TABLE, "a5d4", 0),
    "d4.3": (golden.D4_3_TABLE, "a5d4", 1),
}
TABLE_FAMILIES = tuple(MODULE_TABLES) + ("modular", "lattice")


def verify_tables(which: str) -> Report:
    """Diff recomputed values against the embedded reference tables."""
    if which not in TABLE_FAMILIES + ("all",):
        raise ValueError(f"unknown table family {which!r}")
    rep = Report(f"verify {which}")
    selected = TABLE_FAMILIES if which == "all" else (which,)
    for fam in selected:
        if fam in MODULE_TABLES:
            table_rows, case_id, i = MODULE_TABLES[fam]
            cf = BUILTIN_CASES[case_id]
            rep.extend(_table_report(fam, table_rows, cf.ambient[i], cf.h[i]))
        elif fam == "modular":
            rep.extend(verify_modular())
        else:
            rep.extend(verify_lattice())
    # candidate checks ride along with the full run
    if which == "all":
        rep.extend(verify_candidates())
    return rep
