"""Command-line interface.

Subcommands: tables, twist-bound, dimension, candidates, lattice, verify-all.
Their options are declared once, in COMMANDS, which reads a well-formed
query; argparse parsers built from it read or refuse any other argv.
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
from types import MappingProxyType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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


class Option(NamedTuple):
    """One option of a subcommand; a reader of None makes a flag storing True."""

    flag: str
    reader: Optional[Callable[[str], object]] = str
    required: bool = False
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None


JSON = Option("--json", None, default=False, help="machine-readable output")
# each subcommand's (function, help, options), in the order --help lists them
COMMANDS = MappingProxyType({
    "tables": (cmd_tables, "diff recomputed tables against references", (
        JSON, Option("--which", default="all", choices=TABLE_FAMILIES + ("all",)))),
    "twist-bound": (cmd_twist_bound, "twisted-weight minima for a case", (
        JSON, Option("--case", required=True, help="builtin id or JSON case file"))),
    "dimension": (cmd_dimension, "orbifold weight-one dimension", (
        JSON, *(Option(flag, _integer, True) for flag in ("--dimv1", "--d0", "--d13", "--d23")),
        Option("--trunc", _truncation, default=qmodular.TRUNC))),
    "candidates": (cmd_candidates, "enumerate and filter candidates", (
        JSON, Option("--dim", _dimension, True),
        Option("--ratio", parse_rational, True, help="h-dual/level ratio, e.g. 12 or 7/2"),
        Option("--fixed", help="target fixed type, e.g. 'E6,3 A2,1 A2,1 A2,1'"))),
    "lattice": (cmd_lattice, "lattice-side battery for one isometry", (
        JSON, Option("--isometry", required=True, choices=tuple(ISOMETRY_CASES)))),
    "verify-all": (cmd_verify_all, "replay every case and table", (
        JSON, Option("--seed", _integer, default=0, help="ignored; no step draws at random"))),
})


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="orbifold24",
        description=(
            "Exact recomputation of the order-3 orbifold invariants of the "
            "three central-charge-24 uniqueness chains"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, options) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for o in options:
            if o.reader is None:
                p.add_argument(o.flag, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, type=o.reader, required=o.required,
                               default=o.default, choices=o.choices, help=o.help)
        p.set_defaults(func=func)
    return parser, sub.choices


def read_options(command: str, args: List[str]) -> Optional[argparse.Namespace]:
    """The namespace the command's parser makes of `args` when each is a distinct
    declared option, `--flag`, `--opt=value` or `--opt value` (no leading `-`),
    read and within its choices, and every required option is given; else None,
    for argparse to read or refuse.  (An explicit value `--` goes to argparse.)"""
    func, _, options = COMMANDS[command]
    declared = {o.flag: o for o in options}
    values = {o.flag[2:]: o.default for o in options}
    given = iter(args)
    for arg in given:
        flag, eq, value = arg.partition("=")
        o = declared.pop(flag, None)
        if o is None or o.reader is None and eq:
            return None
        if o.reader is not None and not eq:
            value = next(given, "-")
        if value[:1] == "-" and (not eq or value == "--"):
            return None
        try:
            value = True if o.reader is None else o.reader(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[flag[2:]] = value
    missing = any(o.required for o in declared.values())
    return None if missing else argparse.Namespace(**values, func=func)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a well-formed query of a known command is read from COMMANDS; argparse
    # reads any other argv, a known command's by that command's parser alone
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = read_options(command, argv[1:]) if command else None
    if args is None:
        parser, commands = build_parser()
        args = commands[command].parse_args(argv[1:]) if command else parser.parse_args(argv)
        # before 3.13 argparse reads an explicit value `--` as an empty list
        for dropped in (k for k, v in vars(args).items() if v == []):
            commands[command].error(f"argument --{dropped}: expected one argument")
    try:
        rep = args.func(args)
        print(rep.to_json() if args.json else rep.to_text(), flush=True)
    except BrokenPipeError:
        # the reader left early, which is no input error: the verdict stands,
        # and the flush at shutdown goes to the null device, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        sys.exit(2)
    except (InvariantError, latticevoa.IdentificationError) as err:
        # an exact check failed on this input: a mismatch, not a usage error
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        sys.exit(1)
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
