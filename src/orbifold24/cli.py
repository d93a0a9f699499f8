"""Command-line interface.

Subcommands: tables, twist-bound, dimension, candidates, lattice, verify-all.
A known subcommand's arguments are parsed once, by its own parser; the
top-level parser answers only --help and a missing or unknown subcommand.
Reports print as human-readable tables, or as byte-stable JSON with --json.
Exit code 0 means every expectation passed, 1 flags a mismatch (including an
exact invariant or identification check that fails), 2 a usage error.  A
reader that closes stdout early leaves the exit code as the report's.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import latticevoa, qmodular, schellekens
from .cases import (
    BUILTIN_CASES,
    CaseFile,
    ISOMETRY_CASES,
    TABLE_FAMILIES,
    check_dimension_formula,
    check_ground_energy,
    check_isometry,
    check_lattice,
    check_twist,
    lattice_data,
    run_case,
    unique_survivor,
    verify_tables,
)
from .exactmath import InvariantError
from .report import Report
from .rootdata import SemisimpleTypeWithLevels, parse_rational


def _integer(text: str) -> int:
    """`[-]n` in ASCII digits; int() alone would also read other scripts'
    digits, `+` and `_`."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer [-]n in ASCII digits: {text!r}")
    return int(text)


def _dimension(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"dimension must not be negative: {value}")
    return value


def _truncation(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"truncation must be positive: {value}")
    return value


def cmd_tables(args: argparse.Namespace) -> Report:
    return verify_tables(args.which)


def cmd_twist_bound(args: argparse.Namespace) -> Report:
    cf = BUILTIN_CASES.get(args.case) or CaseFile.from_json(args.case)
    rep = Report(f"twist bound {cf.case_id}")
    witnesses = check_twist(rep, cf)
    if witnesses is not None:
        for sign, wit in zip(("+h", "-h"), witnesses):
            rep.note(f"witness ({sign})", [list(w) for w in wit])
    return rep


def cmd_dimension(args: argparse.Namespace) -> Report:
    rep = Report("dimension formula")
    val = qmodular.dim_tilde_v1(args.dimv1, args.d0, args.d13, args.d23)
    rep.note("orbifold weight-one dim", val)
    check_dimension_formula(rep, args.trunc)
    return rep


def cmd_candidates(args: argparse.Namespace) -> Report:
    rep = Report("candidate enumeration")
    cands = schellekens.enumerate_candidates(args.dim, args.ratio)
    rep.note("candidates", [str(c) for c in cands])
    if args.fixed is not None:
        target = SemisimpleTypeWithLevels.parse(args.fixed)
        survivors = schellekens.filter_candidates(cands, target)
        rep.note("survivors of the order-3 filter", [str(c) for c, _ in survivors])
        for c, witness in survivors:
            rep.note(
                f"witness for {c}",
                [
                    {
                        "kind": kind,
                        "ideals": [f"{t},{k}" for t, k in ideals],
                        "contributes": str(res),
                    }
                    for kind, ideals, res in witness
                ],
            )
    return rep


def cmd_lattice(args: argparse.Namespace) -> Report:
    lat, alg = lattice_data(unique_survivor(ISOMETRY_CASES[args.isometry])[0])
    rep = Report(f"lattice {lat.code.label()} / {args.isometry}")
    check_lattice(rep, lat, alg)
    iso = check_isometry(rep, args.isometry)
    rep.note(f"{args.isometry}: fixed sublattice rank", len(iso.fixed_basis))
    check_ground_energy(rep, args.isometry, iso)
    return rep


def cmd_verify_all(args: argparse.Namespace) -> Report:
    rep = Report("verify all")
    for case_id in BUILTIN_CASES:
        rep.extend(run_case(BUILTIN_CASES[case_id]))
    rep.extend(verify_tables("all"))
    return rep


@lru_cache(maxsize=None)
def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once
    per process; parsing keeps no state."""
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
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("twist-bound", help="twisted-weight minima for a case")
    common(p)
    p.add_argument("--case", required=True, help="builtin id or JSON case file")
    p.set_defaults(func=cmd_twist_bound)

    p = sub.add_parser("dimension", help="orbifold weight-one dimension")
    common(p)
    p.add_argument("--dimv1", type=_integer, required=True)
    p.add_argument("--d0", type=_integer, required=True)
    p.add_argument("--d13", type=_integer, required=True)
    p.add_argument("--d23", type=_integer, required=True)
    p.add_argument("--trunc", type=_truncation, default=qmodular.TRUNC)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("candidates", help="enumerate and filter candidates")
    common(p)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument(
        "--ratio",
        required=True,
        type=parse_rational,
        help="h-dual/level ratio, e.g. 12 or 7/2",
    )
    p.add_argument("--fixed", help="target fixed type, e.g. 'E6,3 A2,1 A2,1 A2,1'")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("lattice", help="lattice-side battery for one isometry")
    common(p)
    p.add_argument("--isometry", required=True, choices=tuple(ISOMETRY_CASES))
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify-all", help="replay every case and table")
    common(p)
    p.add_argument("--seed", type=_integer, default=0, help="ignored; no step draws at random")
    p.set_defaults(func=cmd_verify_all)
    return parser, sub.choices


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a known subcommand's arguments go straight to its own parser: one
    # argparse pass, not the subparsers action's two.  Unknown trailing
    # arguments then come under the subcommand's usage line
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        rep = args.func(args)
        print(rep.to_json() if args.json else rep.to_text(), flush=True)
    except BrokenPipeError:
        # the reader left early, which is no input error: the verdict stands,
        # and the flush at shutdown goes to the null device, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError) as err:
        parser.exit(2, f"error: {err}\n")
    except (InvariantError, latticevoa.IdentificationError) as err:
        # an exact check failed on this input: a mismatch, not a usage error
        parser.exit(1, f"error: {type(err).__name__}: {err}\n")
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
