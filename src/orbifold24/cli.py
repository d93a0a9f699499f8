"""Command-line interface.

Subcommands: tables, twist-bound, dimension, candidates, lattice, verify-all.
Reports print as human-readable tables, or as byte-stable JSON with --json.
Exit code 0 means every expectation passed, 1 flags a mismatch (including an
exact invariant or identification check that fails), 2 a usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction as Q
from functools import lru_cache
from typing import List, Optional

from . import golden, latticevoa, qmodular, schellekens
from .cases import (
    BUILTIN_CASES,
    CaseFile,
    TABLE_FAMILIES,
    lattice_data,
    lattice_fixed_type,
    lattice_isometry,
    run_case,
    verify_tables,
)
from .exactmath import InvariantError
from .report import Report
from .rootdata import SemisimpleTypeWithLevels
from .twistbound import invariant_norm, min_twisted_weight, shift_ok, tuple_space_size


def _emit(rep: Report, as_json: bool) -> int:
    print(rep.to_json() if as_json else rep.to_text())
    return rep.exit_code


def _rational(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"dimension must not be negative: {value}")
    return value


def _load_case(token: str) -> CaseFile:
    if token in BUILTIN_CASES:
        return BUILTIN_CASES[token]
    return CaseFile.from_json(token)


def cmd_tables(args: argparse.Namespace) -> int:
    rep = verify_tables(args.which, trunc=args.trunc, seed=args.seed)
    return _emit(rep, args.json)


def cmd_twist_bound(args: argparse.Namespace) -> int:
    cf = _load_case(args.case)
    rep = Report(f"twist bound {cf.case_id}")
    spec = cf.case_spec()
    norm, in_2z, in_23z = invariant_norm(spec)
    expected_norm = Q(2) if cf.case_id in BUILTIN_CASES else None
    rep.check("twist norm <h|h>", norm, expected_norm)
    rep.note("twist norm in 2Z", in_2z)
    rep.note("twist norm in (2/3)Z", in_23z)
    ok = shift_ok(spec)
    rep.check("shift bound (h|alpha) >= -1", ok, True)
    if ok:
        rep.note("tuple space size", tuple_space_size(spec))
        m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(spec)
        expected_min = Q(1) if cf.case_id in BUILTIN_CASES else None
        rep.check("min twisted weight (+h)", m_pos, expected_min)
        rep.check("min twisted weight (-h)", m_neg, expected_min)
        rep.note("witness (+h)", [list(w) for w in wit_pos])
        rep.note("witness (-h)", [list(w) for w in wit_neg])
    return _emit(rep, args.json)


def cmd_dimension(args: argparse.Namespace) -> int:
    rep = Report("dimension formula")
    val = qmodular.dim_tilde_v1(args.dimv1, args.d0, args.d13, args.d23)
    rep.note("orbifold weight-one dim", val)
    coeffs = qmodular.derive_dimension_formula(args.trunc)
    rep.check(
        "dimension formula coefficients",
        coeffs,
        golden.DIMENSION_COEFFS,
        source="reference",
    )
    return _emit(rep, args.json)


def cmd_candidates(args: argparse.Namespace) -> int:
    rep = Report("candidate enumeration")
    cands = schellekens.enumerate_candidates(args.dim, args.ratio)
    rep.note("candidates", [str(c.value) for c in cands])
    if args.fixed:
        target = SemisimpleTypeWithLevels.parse(args.fixed)
        survivors = schellekens.filter_candidates(cands, target)
        rep.note("survivors of the order-3 filter", [str(c.value) for c in survivors])
        for c in survivors:
            ok, witness = schellekens.admits_order3_with_fixed(c, target)
            if not ok or witness is None:
                raise InvariantError(f"survivor {c.value} has no witness")
            rep.note(
                f"witness for {c.value}",
                [
                    {
                        "kind": kind,
                        "ideals": [f"{t},{k}" for t, k in ideals],
                        "contributes": str(res),
                    }
                    for kind, ideals, res in witness
                ],
            )
    return _emit(rep, args.json)


def cmd_lattice(args: argparse.Namespace) -> int:
    rep = Report(f"lattice {args.name} / {args.isometry}")
    lat, alg = lattice_data(args.name)
    exp = golden.LATTICE_EXPECTED[args.name]
    rep.check("glue index", lat.glue_index(), exp["glue_index"])
    rep.check("root count", alg.n_roots, exp["root_count"])
    rep.check("algebra dim", alg.dim, exp["algebra_dim"])
    iso = lattice_isometry(args.name, args.isometry)
    rep.check("isometry order", iso.order(), 3)
    rep.check("isometry preserves gram", iso.preserves_gram(), True)
    rep.note("fixed sublattice rank", len(iso.fixed_coords_basis()))
    rho, mults = latticevoa.twisted_ground_energy(iso)
    rep.note("twisted ground energy", rho)
    rep.note("eigenvalue multiplicities", mults)
    expected_type, expected_dim = golden.FIXED_EXPECTED[args.isometry]
    fixed_type, fixed_dim = lattice_fixed_type(args.name, args.isometry)
    rep.check(
        "fixed subalgebra",
        str(fixed_type),
        str(SemisimpleTypeWithLevels.parse(expected_type)),
        source="reference",
    )
    rep.check("fixed dim", fixed_dim, expected_dim, source="reference")
    return _emit(rep, args.json)


def cmd_verify_all(args: argparse.Namespace) -> int:
    rep = Report("verify all")
    for case_id in BUILTIN_CASES:
        rep.extend(run_case(BUILTIN_CASES[case_id]))
    rep.extend(verify_tables("all", trunc=args.trunc, seed=args.seed))
    return _emit(rep, args.json)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="orbifold24",
        description=(
            "Exact recomputation of the order-3 orbifold invariants of the "
            "three central-charge-24 uniqueness chains"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("tables", help="diff recomputed tables against references")
    common(p)
    p.add_argument(
        "--which", default="all", choices=TABLE_FAMILIES + ("all",)
    )
    p.add_argument("--trunc", type=int, default=12, help="series truncation")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("twist-bound", help="twisted-weight minima for a case")
    common(p)
    p.add_argument("--case", required=True, help="builtin id or JSON case file")
    p.set_defaults(func=cmd_twist_bound)

    p = sub.add_parser("dimension", help="orbifold weight-one dimension")
    common(p)
    p.add_argument("--dimv1", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d13", type=int, required=True)
    p.add_argument("--d23", type=int, required=True)
    p.add_argument("--trunc", type=int, default=12)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("candidates", help="enumerate and filter candidates")
    common(p)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument(
        "--ratio",
        required=True,
        type=_rational,
        help="h-dual/level ratio, e.g. 12 or 7/2",
    )
    p.add_argument("--fixed", help="target fixed type, e.g. 'E6,3 A2,1 A2,1 A2,1'")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("lattice", help="lattice-side battery for one isometry")
    common(p)
    p.add_argument("--name", required=True, choices=("e6_4", "d4_6"))
    p.add_argument(
        "--isometry", required=True, choices=("sigma6", "sigma2", "sigma4")
    )
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify-all", help="replay every case and table")
    common(p)
    p.add_argument("--trunc", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        parser.exit(2, f"error: {err}\n")
        return 2
    except (InvariantError, latticevoa.IdentificationError) as err:
        # an exact check failed on this input: a mismatch, not a usage error
        parser.exit(1, f"error: {type(err).__name__}: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
