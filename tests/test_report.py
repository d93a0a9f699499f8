import json
from fractions import Fraction as Q

import pytest

from orbifold24.cli import read_options
from orbifold24.report import DISCREPANCY, FAIL, INFO, PASS, Report, _encode

from helpers import PINNED_OUTPUTS, report_dict


def encoded(v):
    """v as a step stores it: the JSON text that `Report.to_json` prints."""
    return json.loads(_encode(v, "\n"))


def test_render_values():
    assert encoded(Q(3)) == 3
    assert encoded(Q(-2, 3)) == "-2/3"
    assert encoded([Q(1, 2), 4, "x"]) == ["1/2", 4, "x"]
    assert encoded((Q(1, 2), (4,))) == ["1/2", [4]]
    assert encoded({"a": Q(7, 12)}) == {"a": "7/12"}
    # keys render as str(k), and a later equal key wins
    assert encoded({1: Q(1, 2), "1": 2, 3: None}) == {"1": 2, "3": None}
    step = Report("t").check("v", [Q(1, 2), {"a": Q(7, 12)}], ["1/2", {"a": "7/12"}])
    assert step.verdict == PASS
    for bad in (0.5, [1, 0.5], {"a": 0.5}, object(), {1, 2}):
        with pytest.raises(TypeError):
            _encode(bad, "\n")
        with pytest.raises(TypeError):
            Report("t").note("bad", bad)


@pytest.mark.parametrize("computed, expected", [(True, 1), (1, True), (False, 0), (0, False),
                                                ([True], [1]), ({"a": 1}, {"a": True})])
def test_a_bool_never_equals_an_int(computed, expected):
    # a step compares the JSON text that prints: true is not 1
    rep = Report("t")
    rep.check("flag", computed, expected)
    assert rep.steps[-1].verdict == FAIL and rep.exit_code == 1


def test_step_holds_the_text_that_prints():
    rep = Report("t")
    step = rep.check("a", [Q(1, 3), 2], ("1/3", Q(2)))
    assert step.verdict == PASS and step.computed == step.expected
    assert step.computed in rep.to_json()
    assert rep.note("b", 5).expected == "null"
    # an expected value that encodes to null makes an info step
    assert rep.check("c", 1, None, source="reference").verdict == INFO


def test_verdicts_and_exit_codes():
    rep = Report("t")
    rep.check("a", Q(2), Q(2))
    assert rep.steps[-1].verdict == PASS
    rep.note("b", 5)
    assert rep.steps[-1].verdict == INFO
    assert rep.verdict == PASS and rep.exit_code == 0
    rep.check("c", 1, 2)
    assert rep.steps[-1].verdict == FAIL
    assert rep.verdict == FAIL and rep.exit_code == 1


def test_documented_discrepancy_does_not_fail():
    rep = Report("t")
    rep.check("known", 54, 66, documented=True)
    assert rep.steps[-1].verdict == DISCREPANCY
    assert rep.verdict == PASS
    # an honest pass is never downgraded to a discrepancy
    rep.check("exact", 54, 54, documented=True)
    assert rep.steps[-1].verdict == PASS


def test_rational_vs_int_equality():
    rep = Report("t")
    rep.check("mixed", Q(312), 312)
    assert rep.steps[-1].verdict == PASS


def test_json_round_trip_stable():
    rep = Report("t", assumptions=["x"])
    rep.check("a", Q(1, 3), Q(1, 3))
    first = rep.to_json()
    assert json.loads(first)["verdict"] == "pass"
    assert rep.to_json() == first


def test_step_keeps_the_value_it_was_checked_with():
    # the verdict and both outputs read the value as it was at check time
    rep = Report("t")
    vals = [1]
    rep.check("c", vals, [1])
    vals.append(2)
    assert json.loads(rep.to_json())["steps"][0]["computed"] == [1]
    assert rep.to_text().splitlines()[1] == "  c  [1]  [ok]"
    # a failing step prints both values as checked
    got, want = [1], [2]
    rep.check("d", got, want)
    got.append(3)
    want.append(4)
    step = json.loads(rep.to_json())["steps"][1]
    assert (step["computed"], step["expected"], step["verdict"]) == ([1], [2], FAIL)
    assert rep.to_text().splitlines()[2] == "  d  computed [1] vs reference [2]  [FAIL]"


def test_extend_merges_assumptions():
    a = Report("a", assumptions=["one"])
    b = Report("b", assumptions=["one", "two"])
    a.extend(b)
    assert a.assumptions == ["one", "two"]


def dumps(rep):
    """The bytes `Report.to_json` must write: json.dumps of the report as a dict."""
    return json.dumps(report_dict(rep), sort_keys=True, indent=2)


def test_to_json_is_the_bytes_of_json_dumps_on_edge_values():
    rep = Report("t\u00e9 \u2028 \x00\x1f \"q\" \\", assumptions=[])
    rep.note("empty list", [])
    rep.note("empty dict", {})
    rep.note("witness", [[0, -1, 2], [], [[Q(-7, 3)]], [True, False, None]])
    rep.note("ints", [-5, 0, 2**63, -(2**63) - 1, 10**40])
    rep.note("flags", {"z": True, "a": False, "m": None, "\u00fc\n": "\ud83d\ude00"})
    rep.check("nested", {"b": {"y": [], "x": {}}, "a": [{"k": 1}]}, {"b": 1})
    rep.check("rational", Q(1, 3), Q(1, 3), source="tab\there")
    # escapes and non-ASCII text in every fixed string field of a step
    rep.check("na\u00efve \"step\"\t\\ \u03b8", True, True, source="Kac \u00a78.\r\n\x7f")
    rep.check("\u00e9\u00e8 \ud83d\ude00", None, False, documented=True)
    rep.note("deep", {"l": [{"m": [[], [None, {"n": [True]}]]}], "e": {"f": {}}})
    rep.check("scalar flags", [True, False, None], [True, False, None])
    assert rep.to_json() == dumps(rep)
    assert Report("empty").to_json() == dumps(Report("empty"))
    # assumptions but no steps; the assumptions need escapes too
    bare = Report("\u00c5ngstr\u00f6m", assumptions=["one", "t\u00e9 \"two\"\n", ""])
    assert bare.to_json() == dumps(bare)


@pytest.mark.parametrize(
    "argv", [argv for _, argv, _ in PINNED_OUTPUTS], ids=[name for name, _, _ in PINNED_OUTPUTS]
)
def test_to_json_is_the_bytes_of_json_dumps_on_the_pinned_reports(argv):
    # the report of every command whose output bytes are pinned
    args = read_options(argv)
    rep = args.func(args)
    assert rep.steps and rep.to_json() == dumps(rep)
