"""Correctness gate: each operation's output is checked, and a failed check
counts the operation in `failed_ops`.

Every gate returns None when the output is correct and a one-line reason
otherwise.  Expected values are parameters so that the self-check can show
a wrong expectation being counted.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction as Q
from typing import List, Optional

from liedata import Ideal, dim, dual_coxeter, parse_token, parse_type

# verify-all: the step counts, not the bytes, so that a deliberate re-keying
# of the JSON report does not fail the gate.
VERIFY_ALL_COUNTS = {"pass": 334, "info": 13, "discrepancy-documented": 2}
DIMENSION_COEFFS = (4, -36, -12, 24)


def _q(v) -> Q:
    return Q(str(v))


def _steps(out: str) -> List[dict]:
    return json.loads(out)["steps"]


def _step(steps: List[dict], name: str) -> dict:
    matches = [s for s in steps if s["name"] == name]
    if len(matches) != 1:
        raise KeyError(f"expected one step {name!r}, found {len(matches)}")
    return matches[0]


def check_verify_all(rc: int, out: str, counts=VERIFY_ALL_COUNTS) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(out)
    if report["verdict"] != "pass":
        return f"verdict {report['verdict']}"
    seen = Counter(s["verdict"] for s in report["steps"])
    if seen != Counter(counts):
        return f"step verdicts {dict(seen)} != {counts}"
    return None


def _twist_sign(ideals, hs, witness, norm: Q, sign: int) -> Q:
    """The shifted lowest-weight bound of one witness tuple, re-derived."""
    if len(witness) != len(ideals):
        raise ValueError("witness length differs from the ideal count")
    lams = [tuple(_q(c) for c in w) for w in witness]
    for ideal, lam in zip(ideals, lams):
        if not ideal.admissible(lam):
            raise ValueError(f"{lam} is not admissible for {ideal.token}")
    cw = sum((I.conformal_weight(lam) for I, lam in zip(ideals, lams)), Q(0))
    if cw.denominator != 1:
        raise ValueError(f"witness conformal-weight sum {cw} is not integral")
    nonzero = any(any(lam) for lam in lams)
    ell = max(Q(2) if nonzero else Q(0), cw)
    shift = sum(
        (I.min_pairing(h, lam, sign) for I, h, lam in zip(ideals, hs, lams)), Q(0)
    )
    return ell + shift + norm / 2


def check_twist(rc: int, out: str, case: dict) -> Optional[str]:
    """Reported minima equal the bound re-derived for the reported witness."""
    if rc != 0:
        return f"exit code {rc}"
    steps = _steps(out)
    ideals = [Ideal(f, r, int(k)) for f, r, k in map(parse_token, case["ambient"].split())]
    hs = [tuple(_q(c) for c in h) for h in case["h"]]
    norm = sum((I.level * I.ip(h, h) for I, h in zip(ideals, hs)), Q(0))
    if _q(_step(steps, "twist norm <h|h>")["computed"]) != norm:
        return "twist norm differs from sum k (h|h)"
    if _step(steps, "shift bound (h|alpha) >= -1")["computed"] is not True:
        return "shift bound reported false for a dominant h with (h|theta) <= 1"
    size = math.prod(I.table_size() for I in ideals)
    if _step(steps, "tuple space size")["computed"] != size:
        return f"tuple space size differs from {size}"
    for sign, tag in ((1, "+h"), (-1, "-h")):
        reported = _q(_step(steps, f"min twisted weight ({tag})")["computed"])
        witness = _step(steps, f"witness ({tag})")["computed"]
        try:
            bound = _twist_sign(ideals, hs, witness, norm, sign)
        except ValueError as err:
            return f"{tag}: {err}"
        if reported != bound:
            return f"{tag}: minimum {reported} != witness bound {bound}"
        if reported > norm / 2:
            return f"{tag}: minimum {reported} exceeds the vacuum bound {norm / 2}"
    return None


def check_candidates(rc: int, out: str, argv: List[str]) -> Optional[str]:
    """Every candidate meets the ratio and dimension; every survivor's
    witness covers its ideals and assembles to the fixed target."""
    if rc != 0:
        return f"exit code {rc}"
    args = dict(a[2:].split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    total, ratio = int(args["dim"]), Q(args["ratio"])
    steps = _steps(out)
    for cand in _step(steps, "candidates")["computed"]:
        ideals, abelian = parse_type(cand)
        if abelian or sum(dim(f, r) for f, r, _ in ideals) != total:
            return f"candidate {cand} does not have dimension {total}"
        if any(Q(dual_coxeter(f, r)) / k != ratio for f, r, k in ideals):
            return f"candidate {cand} breaks the ratio {ratio}"
    target = parse_type(args["fixed"])
    for surv in _step(steps, "survivors of the order-3 filter")["computed"]:
        witness = _step(steps, f"witness for {surv}")["computed"]
        used, fixed, abelian, nontrivial = [], [], 0, False
        for part in witness:
            used.extend(parse_token(t) for t in part["ideals"])
            f, a = parse_type(part["contributes"])
            fixed.extend(f)
            abelian += a
            nontrivial = nontrivial or part["kind"] != "trivial"
            if part["kind"] == "cycle":
                fam, rank, level = parse_token(part["ideals"][0])
                if len(set(part["ideals"])) != 1 or f != [(fam, rank, 3 * level)]:
                    return f"{surv}: 3-cycle {part} is not a diagonal at triple level"
        if sorted(used) != parse_type(surv)[0]:
            return f"{surv}: witness does not use each ideal once"
        if (sorted(fixed), abelian) != target or not nontrivial:
            return f"{surv}: witness assembles to {fixed} + U(1)^{abelian}, not the target"
    return None


def check_dimension(rc: int, out: str, argv: List[str], coeffs=DIMENSION_COEFFS) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    args = {k: int(v) for k, v in (a[2:].split("=", 1) for a in argv if "=" in a)}
    steps = _steps(out)
    got = [_q(c) for c in _step(steps, "dimension formula coefficients")["computed"]]
    if got != [Q(c) for c in coeffs]:
        return f"coefficients {got} at trunc {args['trunc']} != {list(coeffs)}"
    a, b, c, d = coeffs
    want = a * args["d0"] + b * args["d13"] + c * args["d23"] + d - args["dimv1"]
    if _step(steps, "orbifold weight-one dim")["computed"] != want:
        return f"orbifold weight-one dim != {want}"
    return None


def check_op(argv: List[str], rc: int, out: str) -> Optional[str]:
    """Dispatch on the subcommand; a malformed output is a failure too."""
    try:
        if argv[0] == "verify-all":
            return check_verify_all(rc, out)
        if argv[0] == "twist-bound":
            path = next(a.split("=", 1)[1] for a in argv if a.startswith("--case="))
            with open(path, encoding="utf-8") as fh:
                return check_twist(rc, out, json.load(fh))
        if argv[0] == "candidates":
            return check_candidates(rc, out, argv)
        if argv[0] == "dimension":
            return check_dimension(rc, out, argv)
    except (KeyError, ValueError, TypeError, IndexError, StopIteration) as err:
        return f"malformed output: {err!r}"
    return f"no gate for {argv[0]}"
