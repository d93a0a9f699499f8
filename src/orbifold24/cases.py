"""Case drivers: the three order-3 uniqueness chains and the table verifier.

A case file names the ambient semisimple algebra with levels, the twist
direction in fundamental-weight coordinates per ideal, and (for the built-in
cases) the expected fixed subalgebra, orbifold target, and associated
lattice.  run_case replays the whole chain: invariant norm, shift bound,
category order, fixed subalgebra, exhaustive twisted minima for both twist
signs, the dimension formula, candidate enumeration and the order-3
admissibility filter, and the lattice-side cross-check.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from . import golden, latticevoa, qmodular, schellekens
from .affinerep import (
    AffineAlgebra,
    TwistVector,
    enumerate_level_weights,
    inner_fixed_subalgebra,
    n_min,
    sigma_order_on_category,
)
from .report import Report
from .rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    Weight,
    build_root_system,
    inner_product,
)
from .twistbound import (
    CaseSpec,
    invariant_norm,
    min_twisted_weight,
    shift_ok,
    tuple_space_size,
)

ASSUMPTIONS = [
    "weight-one exhaustion: a non-vacuum module of the ambient algebra inside "
    "a holomorphic CFT-type container has lowest weight at least 2",
    "the category-level twist order equals the order on the full algebra only "
    "when every admissible module occurs",
    "conjugacy-class uniqueness of the named lattice automorphisms is consumed "
    "as input, not recomputed",
]


@dataclass(frozen=True)
class CaseFile:
    case_id: str
    ambient: Tuple[Tuple[str, int], ...]       # ("E6", 3), ...
    h_coords: Tuple[Tuple[str, ...], ...]      # rationals as strings, per ideal
    expected_fixed: Optional[str] = None
    expected_fixed_dim: Optional[int] = None
    expected_target: Optional[str] = None
    lattice_name: Optional[str] = None
    isometry_name: Optional[str] = None

    def algebras(self) -> Tuple[AffineAlgebra, ...]:
        return tuple(
            AffineAlgebra(SimpleType.parse(t), k) for t, k in self.ambient
        )

    def twist_vector(self) -> TwistVector:
        comps = []
        for (t, _), coords in zip(self.ambient, self.h_coords):
            rs = build_root_system(SimpleType.parse(t))
            comps.append(Weight(tuple(Q(c) for c in coords), rs))
        return TwistVector(tuple(comps))

    def case_spec(self) -> CaseSpec:
        return CaseSpec(self.case_id, self.algebras(), self.twist_vector())

    def dim_v1(self) -> int:
        return sum(SimpleType.parse(t).dim() for t, _ in self.ambient)

    def ratio(self) -> Q:
        return Q(self.dim_v1() - 24, 24)

    @staticmethod
    def from_json(path: str) -> "CaseFile":
        """Load a case file; a malformed one raises ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("case file must be a JSON object")
        for key in ("ambient", "h"):
            if key not in data:
                raise ValueError(f"case file has no {key!r}")
        for key in ("id", "ambient", "expected_fixed", "expected_target",
                    "lattice", "isometry"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"case field {key!r} must be a string")
        fixed_dim = data.get("expected_fixed_dim")
        if fixed_dim is not None and type(fixed_dim) is not int:
            raise ValueError("case field 'expected_fixed_dim' must be an integer")
        h = data["h"]
        if not (isinstance(h, list) and all(isinstance(c, list) for c in h)):
            raise ValueError("'h' must be a list of coordinate lists")
        try:
            # one token per ideal, kept in the written order that h follows
            ambient = [
                SemisimpleTypeWithLevels.parse(tok) for tok in data["ambient"].split()
            ]
            for c in itertools.chain.from_iterable(h):
                Q(str(c))
        except (ValueError, ZeroDivisionError, IndexError) as err:
            raise ValueError(f"malformed case file: {err}") from None
        if not ambient or any(a.abelian_rank for a in ambient):
            raise ValueError("case ambient must be semisimple")
        typed = [a.ideals[0] for a in ambient]
        if any(k is None or k.denominator != 1 for _, k in typed):
            raise ValueError("every ambient ideal needs an integer level")
        ranks = [t.rank for t, _ in typed]
        if [len(c) for c in h] != ranks:
            raise ValueError(
                f"'h' must give one coordinate list per ideal, of lengths {ranks}"
            )
        ideals = [(str(t), int(k)) for t, k in typed]
        return CaseFile(
            case_id=data.get("id", "custom"),
            ambient=tuple(ideals),
            h_coords=tuple(tuple(str(c) for c in comp) for comp in h),
            expected_fixed=data.get("expected_fixed"),
            expected_fixed_dim=fixed_dim,
            expected_target=data.get("expected_target"),
            lattice_name=data.get("lattice"),
            isometry_name=data.get("isometry"),
        )


BUILTIN_CASES: Dict[str, CaseFile] = {
    "e6g2": CaseFile(
        case_id="e6g2",
        ambient=(("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)),
        h_coords=(
            ("0",) * 6,
            ("1", "0"),
            ("1", "0"),
            ("1", "0"),
        ),
        expected_fixed="E6,3 A2,1 A2,1 A2,1",
        expected_fixed_dim=102,
        expected_target="E6,1 E6,1 E6,1 E6,1",
        lattice_name="e6_4",
        isometry_name="sigma6",
    ),
    "a2x6": CaseFile(
        case_id="a2x6",
        ambient=(("A2", 3),) * 6,
        h_coords=(("1", "0"),) + (("0", "0"),) * 5,
        expected_fixed="A2,3 A2,3 A2,3 A2,3 A2,3 A2,3",
        expected_fixed_dim=48,
        expected_target="D4,1 D4,1 D4,1 D4,1 D4,1 D4,1",
        lattice_name="d4_6",
        isometry_name="sigma2",
    ),
    "a5d4": CaseFile(
        case_id="a5d4",
        ambient=(("A5", 3), ("D4", 3), ("A1", 1), ("A1", 1), ("A1", 1)),
        h_coords=(
            ("0", "0", "2/3", "0", "0"),
            ("0",) * 4,
            ("0",),
            ("0",),
            ("0",),
        ),
        expected_fixed="A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1",
        expected_fixed_dim=54,
        expected_target="D4,1 D4,1 D4,1 D4,1 D4,1 D4,1",
        lattice_name="d4_6",
        isometry_name="sigma4",
    ),
}


@lru_cache(maxsize=None)
def lattice_data(name: str) -> Tuple[latticevoa.EvenLattice, latticevoa.LatticeLieAlgebra]:
    code = {"e6_4": latticevoa.NI_E6_4, "d4_6": latticevoa.NI_D4_6}[name]
    lat = latticevoa.assemble_niemeier(code)
    return lat, latticevoa.weight_one_algebra(lat)


@lru_cache(maxsize=None)
def lattice_isometry(name: str, isometry: str) -> latticevoa.LatticeIsometry:
    return latticevoa.build_isometry(lattice_data(name)[0], isometry)


@lru_cache(maxsize=None)
def lattice_fixed_type(
    name: str, isometry: str
) -> Tuple[SemisimpleTypeWithLevels, int]:
    _, alg = lattice_data(name)
    lift = latticevoa.standard_lift(alg, lattice_isometry(name, isometry))
    fixed = latticevoa.fixed_subalgebra(lift)
    return latticevoa.identify_type(fixed), fixed.dim


def run_case(cf: CaseFile) -> Report:
    """Replay the full chain for one case, checking expectations where given."""
    rep = Report(f"case {cf.case_id}", assumptions=list(ASSUMPTIONS))
    spec = cf.case_spec()
    algebras = spec.ambient

    norm, in_2z, in_23z = invariant_norm(spec)
    rep.check("twist norm <h|h>", norm, Q(2), source="reference")
    rep.check("twist norm in 2Z", in_2z, True)
    rep.check("twist norm in (2/3)Z", in_23z, True)
    shift = shift_ok(spec)
    rep.check("shift bound (h|alpha) >= -1", shift, True)
    rep.check(
        "category twist order",
        sigma_order_on_category(spec.h, algebras),
        3,
        source="reference",
    )

    fixed, fdim = inner_fixed_subalgebra(algebras, spec.h)
    expected_fixed = (
        str(SemisimpleTypeWithLevels.parse(cf.expected_fixed))
        if cf.expected_fixed
        else None
    )
    rep.check("fixed subalgebra", str(fixed), expected_fixed, source="reference")
    rep.check("fixed subalgebra dim", fdim, cf.expected_fixed_dim, source="reference")

    rep.note("tuple space size", tuple_space_size(spec))
    if shift:
        m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(spec)
        rep.check("min twisted weight (+h)", m_pos, Q(1), source="reference")
        rep.check("min twisted weight (-h)", m_neg, Q(1), source="reference")
        rep.check(
            "vacuum tuple is a witness",
            all(all(x == 0 for x in w) for w in wit_pos)
            and all(all(x == 0 for x in w) for w in wit_neg),
            True,
        )

    dim_v1 = cf.dim_v1()
    rep.note("dim of the ambient weight-one algebra", dim_v1)
    rep.check(
        "dimension formula coefficients",
        qmodular.derive_dimension_formula(),
        golden.DIMENSION_COEFFS,
        source="reference",
    )
    target_dim = qmodular.dim_tilde_v1(dim_v1, fdim, 0, 0)
    expected_target_dim = (
        SemisimpleTypeWithLevels.parse(cf.expected_target).dim()
        if cf.expected_target
        else None
    )
    rep.check("orbifold weight-one dim", target_dim, expected_target_dim)

    ratio = Q(target_dim - 24, 24)
    rep.note("forced ratio h-dual/level", ratio)
    candidates = schellekens.enumerate_candidates(target_dim, ratio)
    rep.note("candidates", [str(c.value) for c in candidates])
    survivors = schellekens.filter_candidates(candidates, fixed)
    expected_surv = (
        [str(SemisimpleTypeWithLevels.parse(cf.expected_target))]
        if cf.expected_target
        else None
    )
    rep.check(
        "order-3 admissibility survivors",
        [str(c.value) for c in survivors],
        expected_surv,
        source="reference",
    )

    if cf.lattice_name and cf.isometry_name:
        lat_type, lat_dim = lattice_fixed_type(cf.lattice_name, cf.isometry_name)
        rep.check(
            "lattice-side fixed subalgebra",
            str(lat_type),
            str(fixed),
            source="cross-check",
        )
        rep.check("lattice-side fixed dim", lat_dim, fdim, source="cross-check")
    return rep


def _table_report(
    which: str,
    algebra: AffineAlgebra,
    table_rows,
    twist_coords: Optional[Sequence[Q]],
) -> Report:
    rep = Report(f"module table {which}")
    table = enumerate_level_weights(algebra)
    rep.check(
        "row count", len(table), golden.TABLE_COUNTS[which], source="reference"
    )
    rs = algebra.root_system()
    computed = {tuple(int(c) for c in r.weight): r for r in table.rows}
    golden_weights = {coords for coords, _, _, _ in table_rows}
    rep.check(
        "weight sets agree", sorted(computed) == sorted(golden_weights), True
    )
    twist = (
        Weight(tuple(twist_coords), rs) if twist_coords is not None else None
    )
    for coords, cw, pair, nmin in table_rows:
        row = computed.get(coords)
        if row is None:
            rep.check(f"weight {coords} present", False, True)
            continue
        rep.check(f"conformal weight {coords}", row.conformal_weight, cw, source="reference")
        if twist is not None and pair is not None:
            lam = Weight(tuple(Q(c) for c in coords), rs)
            rep.check(
                f"pairing {coords}",
                inner_product(twist, lam),
                pair,
                source="reference",
            )
            rep.check(
                f"min pairing {coords}", n_min(twist, lam), nmin, source="reference"
            )
    return rep


def verify_modular(trunc: int = 12) -> Report:
    rep = Report("modular data")
    f = qmodular.hauptmodul_f(trunc)
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
        series = qmodular.f_power_at_S(n, trunc)
        rep.check(
            f"cusp expansion f^{n}: q^({exp}) coefficient * 3^{-6 * n}",
            series.coeff(exp) * Q(3) ** (-6 * n),
            scaled,
            source="reference",
        )
    fit = qmodular.fit_character(102, 0, 0)
    rep.check("pole coefficient c_-3", fit.cm3, golden.POLE_COEFF, source="reference")
    rep.check(
        "dimension formula coefficients",
        qmodular.derive_dimension_formula(trunc),
        golden.DIMENSION_COEFFS,
        source="reference",
    )
    for dims, expect in (((120, 102), 312), ((48, 48), 168), ((72, 54), 168)):
        rep.check(
            f"orbifold dim from (dim V1, d0) = {dims}",
            qmodular.dim_tilde_v1(dims[0], dims[1], 0, 0),
            expect,
            source="reference",
        )
    return rep


def verify_candidates() -> Report:
    rep = Report("candidate enumeration")
    c312 = schellekens.enumerate_candidates(312, Q(12))
    rep.check(
        "candidates at (312, 12)",
        [str(c.value) for c in c312],
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
    for case_id in ("e6g2", "a2x6", "a5d4"):
        cf = BUILTIN_CASES[case_id]
        fixed = SemisimpleTypeWithLevels.parse(cf.expected_fixed)
        dim = SemisimpleTypeWithLevels.parse(cf.expected_target).dim()
        survivors = schellekens.filter_candidates(
            schellekens.enumerate_candidates(dim, Q(dim - 24, 24)), fixed
        )
        rep.check(
            f"unique survivor for {case_id}",
            [str(c.value) for c in survivors],
            [cf.expected_target],
            source="reference",
        )
    return rep


def verify_lattice(seed: int = 0) -> Report:
    rep = Report("lattice battery")
    import random

    rng = random.Random(seed)
    for name in ("e6_4", "d4_6"):
        exp = golden.LATTICE_EXPECTED[name]
        lat, alg = lattice_data(name)
        rep.check(f"{name}: glue index", lat.glue_index(), exp["glue_index"])
        rep.check(f"{name}: root count", alg.n_roots, exp["root_count"])
        rep.check(f"{name}: algebra dim", alg.dim, exp["algebra_dim"])
        rep.check(
            f"{name}: glue automorphism group order",
            latticevoa.glue_automorphism_group_order(lat.code),
            exp["glue_group_order"],
            source="reference",
        )
        jacobi_ok = True
        for _ in range(500):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            x, y, z = {i: 1}, {j: 1}, {k: 1}
            lhs = alg.bracket(x, alg.bracket(y, z))
            acc = alg.bracket(alg.bracket(x, y), z)
            for idx, c in alg.bracket(y, alg.bracket(x, z)).items():
                acc[idx] = acc.get(idx, 0) + c
            jacobi_ok = jacobi_ok and lhs == {a: b for a, b in acc.items() if b}
        rep.check(f"{name}: Jacobi identity on 500 sampled triples", jacobi_ok, True)
    for iso_name, lattice_name in (
        ("sigma6", "e6_4"),
        ("sigma2", "d4_6"),
        ("sigma4", "d4_6"),
    ):
        iso = lattice_isometry(lattice_name, iso_name)
        rep.check(f"{iso_name}: order", iso.order(), 3, source="reference")
        rep.check(f"{iso_name}: preserves gram", iso.preserves_gram(), True)
        expected_type, expected_dim = golden.FIXED_EXPECTED[iso_name]
        fixed_type, fixed_dim = lattice_fixed_type(lattice_name, iso_name)
        rep.check(
            f"{iso_name}: fixed subalgebra",
            str(fixed_type),
            str(SemisimpleTypeWithLevels.parse(expected_type)),
            source="reference",
        )
        rep.check(f"{iso_name}: fixed dim", fixed_dim, expected_dim, source="reference")
    lat, _ = lattice_data("e6_4")
    s6 = lattice_isometry("e6_4", "sigma6")
    rho, mults = latticevoa.twisted_ground_energy(s6)
    rep.check(
        "sigma6: twisted ground energy",
        rho,
        golden.GROUND_ENERGY_SIGMA6,
        source="reference",
    )
    rep.note("sigma6: eigenvalue multiplicities", mults)
    u = latticevoa.NI_E6_4.word_vector((0, 1, 0, 0))
    _, nrm = latticevoa.fixed_projection_norm(lat, s6, u)
    rep.check(
        "sigma6: projected glue-vector norm",
        nrm,
        golden.PROJECTION_NORM,
        source="reference",
    )
    u0 = latticevoa.NI_E6_4.word_vector((1, 0, 0, 0))
    proj0, _ = latticevoa.fixed_projection_norm(lat, s6, u0)
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


# module family -> (algebra, golden table, twist coordinates or None)
MODULE_TABLES = {
    "g2.1": (AffineAlgebra(SimpleType("G", 2), 1), golden.G2_1_TABLE, (Q(1), Q(0))),
    "a2.3": (AffineAlgebra(SimpleType("A", 2), 3), golden.A2_3_TABLE, (Q(1), Q(0))),
    "a1.1": (AffineAlgebra(SimpleType("A", 1), 1), golden.A1_1_TABLE, None),
    "a5.3": (
        AffineAlgebra(SimpleType("A", 5), 3),
        golden.A5_3_TABLE,
        (Q(0), Q(0), Q(2, 3), Q(0), Q(0)),
    ),
    "d4.3": (AffineAlgebra(SimpleType("D", 4), 3), golden.D4_3_TABLE, None),
}
TABLE_FAMILIES = tuple(MODULE_TABLES) + ("modular", "lattice")


def verify_tables(which: str = "all", trunc: int = 12, seed: int = 0) -> Report:
    """Diff recomputed values against the embedded reference tables."""
    if which not in TABLE_FAMILIES + ("all",):
        raise ValueError(f"unknown table family {which!r}")
    rep = Report(f"verify {which}")
    selected = TABLE_FAMILIES if which == "all" else (which,)
    for fam in selected:
        if fam in MODULE_TABLES:
            rep.extend(_table_report(fam, *MODULE_TABLES[fam]))
        elif fam == "modular":
            rep.extend(verify_modular(trunc))
        else:
            rep.extend(verify_lattice(seed))
    # candidate checks ride along with the full run
    if which == "all":
        rep.extend(verify_candidates())
    return rep
