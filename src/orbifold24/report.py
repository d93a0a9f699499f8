"""Deterministic verification reports.

A report is an ordered list of steps, each carrying the computed value, the
expected value when one exists, and a verdict.  Verdicts are "pass", "fail",
"discrepancy-documented" (a known defect of the transcribed reference value,
reported with both numbers), or "info" for steps without expectations.
JSON output is byte-stable: keys sorted, rationals rendered as "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from typing import Any, List, NamedTuple, Sequence

from .affinerep import AffineAlgebra
from .rootdata import SemisimpleTypeWithLevels, SimpleType

PASS = "pass"
FAIL = "fail"
INFO = "info"
DISCREPANCY = "discrepancy-documented"


def render_value(v: Any) -> Any:
    """Canonical JSON form: non-integral rationals as 'p/q' strings."""
    # the plain values first: Fraction's isinstance check goes through ABCMeta
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Q):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        raise TypeError("floating-point values do not belong in reports")
    # the type keys are tuples, but render by name
    if isinstance(v, (SimpleType, AffineAlgebra, SemisimpleTypeWithLevels)):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [render_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): render_value(x) for k, x in v.items()}
    return str(v)


_string = json.encoder.encode_basestring_ascii


def _encode(v: Any, pad: str) -> str:
    """Sorted, indent-2 JSON of a rendered value in one recursive pass.

    json.dumps takes its C encoder only without indent; this writes the same
    bytes, with pad the newline and indent that precede a closing bracket.
    """
    if isinstance(v, str):
        return _string(v)
    if isinstance(v, int):
        return "true" if v is True else "false" if v is False else int.__repr__(v)
    if v is None:
        return "null"
    inner = pad + "  "
    if isinstance(v, list):
        if not v:
            return "[]"
        items = ("," + inner).join([_encode(x, inner) for x in v])
        return f"[{inner}{items}{pad}]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ("," + inner).join(
            [f"{_string(k)}: {_encode(x, inner)}" for k, x in sorted(v.items())]
        )
        return f"{{{inner}{items}{pad}}}"
    raise TypeError(f"{type(v).__name__} does not belong in a rendered report")


# the fixed keys of a report and of a step, at the depths json.dumps indents
# them; a step's value fields open at _VALUE_PAD
_REPORT = '{\n  "assumptions": %s,\n  "steps": %s,\n  "title": %s,\n  "verdict": %s\n}'
_STEP = (
    '{\n      "computed": %s,\n      "expected": %s,\n      "name": %s,'
    '\n      "source": %s,\n      "verdict": %s\n    }'
)
_VALUE_PAD = "\n      "


def _members(items: List[str]) -> str:
    """A rendered list at the report's first depth, as json.dumps indents it."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


class Step(NamedTuple):
    """One step, its values rendered once, when it is checked: the verdict
    compares the values that print, and a later change to the object
    handed in changes neither."""

    name: str
    computed: Any
    expected: Any
    verdict: str
    source: str


class Report:
    def __init__(self, title: str, assumptions: Sequence[str] = ()) -> None:
        self.title = title
        self.steps: List[Step] = []
        self.assumptions: List[str] = list(assumptions)

    def check(
        self,
        name: str,
        computed: Any,
        expected: Any = None,
        source: str = "",
        documented: bool = False,
    ) -> Step:
        """Append a step; the verdict compares computed against expected.

        The source names where the expected value comes from, so a step
        without one, an info step, has none.
        """
        computed, expected = render_value(computed), render_value(expected)
        if expected is None:
            verdict, source = INFO, ""
        elif computed == expected:
            verdict = PASS
        elif documented:
            verdict = DISCREPANCY
        else:
            verdict = FAIL
        step = Step(name, computed, expected, verdict, source)
        self.steps.append(step)
        return step

    def note(self, name: str, computed: Any) -> Step:
        return self.check(name, computed)

    def extend(self, other: "Report") -> None:
        self.steps.extend(other.steps)
        for a in other.assumptions:
            if a not in self.assumptions:
                self.assumptions.append(a)

    @property
    def verdict(self) -> str:
        if any(s.verdict == FAIL for s in self.steps):
            return FAIL
        return PASS

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == PASS else 1

    def to_json(self) -> str:
        """The bytes of json.dumps of the report as a dict, sort_keys=True,
        indent=2: the report's keys (assumptions, steps, title, verdict) and
        each step's keys (computed, expected, name, source, verdict) are
        fixed, so they are written through one template, in sorted order;
        `_encode` renders the two value fields."""
        steps = [
            _STEP % (
                _encode(s.computed, _VALUE_PAD),
                _encode(s.expected, _VALUE_PAD),
                _string(s.name),
                _string(s.source),
                _string(s.verdict),
            )
            for s in self.steps
        ]
        return _REPORT % (
            _members([_string(a) for a in self.assumptions]),
            _members(steps),
            _string(self.title),
            _string(self.verdict),
        )

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        width = max((len(s.name) for s in self.steps), default=0)
        for s in self.steps:
            comp = json.dumps(s.computed, sort_keys=True)
            if s.verdict == INFO:
                lines.append(f"  {s.name:<{width}}  {comp}")
            elif s.verdict == PASS:
                lines.append(f"  {s.name:<{width}}  {comp}  [ok]")
            else:
                exp = json.dumps(s.expected, sort_keys=True)
                mark = "FAIL" if s.verdict == FAIL else "documented-discrepancy"
                lines.append(
                    f"  {s.name:<{width}}  computed {comp} vs reference {exp}  [{mark}]"
                )
        if self.assumptions:
            lines.append("  assumptions:")
            lines.extend(f"    - {a}" for a in self.assumptions)
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)
