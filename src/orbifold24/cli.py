"""Command-line interface.

Subcommands: tables, twist-bound, dimension, candidates, lattice, verify-all.
Their options are declared once, in COMMANDS, and `read_options` reads every
argv from that table: a query, a request for help, or a usage error, which
prints a `usage:` line and one `error:` line naming the option and the reason.
Reports print as human-readable tables, or as byte-stable JSON with --json.
Exit code 0 means every expectation passed, 1 flags a mismatch (including an
exact invariant or identification check that fails), 2 a usage error.  A
reader that closes stdout early leaves the exit code as the report's.
"""

from __future__ import annotations

import os
import re
import sys
from types import MappingProxyType, SimpleNamespace
from typing import Callable, List, NamedTuple, NoReturn, Optional, Tuple

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
        raise ValueError(f"not an integer [-]n in ASCII digits: {text!r}")
    return int(text)


def _at_least(low: int, refusal: str) -> Callable[[str], int]:
    """A reader of integers `[-]n` of at least `low`; `refusal` names the bound."""
    def read(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise ValueError(f"{refusal}: {value}")
        return value
    return read


def cmd_tables(args: SimpleNamespace) -> Report:
    return verify_tables(args.which)


def cmd_twist_bound(args: SimpleNamespace) -> Report:
    cf = BUILTIN_CASES.get(args.case) or CaseFile.from_json(args.case)
    rep = Report(f"twist bound {cf.case_id}")
    witnesses = check_twist(rep, cf)
    if witnesses is not None:
        for sign, wit in zip(("+h", "-h"), witnesses):
            rep.note(f"witness ({sign})", [list(w) for w in wit])
    return rep


def cmd_dimension(args: SimpleNamespace) -> Report:
    rep = Report("dimension formula")
    val = qmodular.dim_tilde_v1(args.dimv1, args.d0, args.d13, args.d23)
    rep.note("orbifold weight-one dim", val)
    check_dimension_formula(rep)
    return rep


def cmd_candidates(args: SimpleNamespace) -> Report:
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


def cmd_lattice(args: SimpleNamespace) -> Report:
    lat, alg = lattice_data(unique_survivor(ISOMETRY_CASES[args.isometry])[0])
    rep = Report(f"lattice {lat.code.label()} / {args.isometry}")
    check_lattice(rep, lat, alg)
    iso = check_isometry(rep, args.isometry)
    rep.note(f"{args.isometry}: fixed sublattice rank", len(iso.fixed_basis))
    check_ground_energy(rep, args.isometry, iso)
    return rep


def cmd_verify_all(args: SimpleNamespace) -> Report:
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
        Option("--trunc", _at_least(1, "truncation must be positive"),
               help="ignored; each series is expanded as far as a step reads it"))),
    "candidates": (cmd_candidates, "enumerate and filter candidates", (
        JSON, Option("--dim", _at_least(0, "dimension must not be negative"), True),
        Option("--ratio", parse_rational, True, help="h-dual/level ratio, e.g. 12 or 7/2"),
        Option("--fixed", help="target fixed type, e.g. 'E6,3 A2,1 A2,1 A2,1'"))),
    "lattice": (cmd_lattice, "lattice-side battery for one isometry", (
        JSON, Option("--isometry", required=True, choices=tuple(ISOMETRY_CASES)))),
    "verify-all": (cmd_verify_all, "replay every case and table", (
        JSON, Option("--seed", _integer, default=0, help="ignored; no step draws at random"))),
})


def _leave(command: Optional[str], reason: Optional[str] = None) -> NoReturn:
    """Exit 2 with the usage line of the program, or of one command, and an
    error line giving the reason; given no reason, exit 0 with its help."""
    prog = f"orbifold24 {command}" if command else "orbifold24"
    if command is None:
        usage, about = f"{prog} [-h] {{{','.join(COMMANDS)}}} ...", "commands"
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    else:
        _, about, options = COMMANDS[command]
        forms = [o.flag if o.reader is None else f"{o.flag} {o.flag[2:].upper()}" for o in options]
        words = [form if o.required else f"[{form}]" for o, form in zip(options, forms)]
        usage = " ".join([f"{prog} [-h]", *words])
        rows = [(f, o.help or " | ".join(o.choices or ())) for o, f in zip(options, forms)]
    if reason is not None:
        sys.stderr.write(f"usage: {usage}\n{prog}: error: {reason}\n")
        sys.exit(2)
    sys.stdout.write(f"usage: {usage}\n\n{about}:\n")
    sys.stdout.writelines(f"  {form:<19}  {text}".rstrip() + "\n" for form, text in rows)
    sys.exit(0)


def read_options(argv: List[str]) -> SimpleNamespace:
    """The query `argv` makes: its command's function and option values.

    Words are read left to right: `-h`/`--help`, `--flag`, `--opt=value` or
    `--opt value`, where a value after a space starts with `-` only as `-` or
    a negative integer; the last value given wins.  A missing or refused value
    exits 2 at once; unknown words, every word after a bare `--` and missing
    required options exit 2 once the last word is read."""
    if not argv or argv[0] not in COMMANDS:
        reason = f"{argv[0]!r} is not a command" if argv else "no command given"
        _leave(None, None if argv[:1] in (["-h"], ["--help"]) else reason)
    command, words = argv[0], iter(argv[1:])
    func, _, options = COMMANDS[command]
    declared = {o.flag: o for o in options}
    values = {o.flag[2:]: o.default for o in options if not o.required}
    unknown = []
    for word in words:
        flag, eq, value = word.partition("=")
        o = declared.get(flag)
        if word in ("-h", "--help"):
            _leave(command)
        elif word == "--" or o is None:
            unknown += [word, *words] if word == "--" else [word]
        elif o.reader is None and not eq:
            values[flag[2:]] = True
        else:
            value = value if eq else next(words, "--")
            spaced_dash = not eq and value[:1] == "-" and not re.fullmatch(r"-[0-9]*", value)
            if o.reader is None or value == "--" or spaced_dash:
                _leave(command, f"argument {flag}: takes {'one' if o.reader else 'no'} value")
            try:
                value = o.reader(value)
                if o.choices is not None and value not in o.choices:
                    raise ValueError(f"{value!r} is not one of {', '.join(o.choices)}")
            except ValueError as err:
                _leave(command, f"argument {flag}: {err}")
            values[flag[2:]] = value
    missing = [o.flag for o in options if o.flag[2:] not in values]
    if missing or unknown:
        _leave(command, f"the following arguments are required: {', '.join(missing)}"
               if missing else f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values, func=func)


def main(argv: Optional[List[str]] = None) -> int:
    args = read_options(sys.argv[1:] if argv is None else argv)
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
