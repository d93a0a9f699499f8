import hashlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from orbifold24 import (
    affinerep, cases, cli, latticevoa, qmodular, rootdata, schellekens, twistbound,
)
from orbifold24.cli import main
from orbifold24.exactmath import InvariantError
from orbifold24.report import Report

from helpers import (
    OFFCHAMBER_CASE,
    PINNED_OUTPUTS,
    argparse_oracle,
    changed_algebra,
    dense_table,
    from_dense_table,
    named_witness,
    package_caches,
    patch_series_coefficient,
    random_argvs,
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tables_family(capsys):
    code, out = run_cli(capsys, ["tables", "--which", "g2.1"])
    assert code == 0
    assert "verdict: pass" in out


def test_tables_json_deterministic(capsys):
    code1, out1 = run_cli(capsys, ["tables", "--which", "a2.3", "--json"])
    code2, out2 = run_cli(capsys, ["tables", "--which", "a2.3", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["verdict"] == "pass"


def _shift_n_min(a, h):
    den, pos, neg = affinerep.n_min_column(a, h)
    return den, [pos[0], pos[1] - 1, *pos[2:]], neg


def _shift_cw(a):
    table = affinerep.enumerate_level_weights(a)
    den, cws = table.cw_column
    return table._replace(cw_column=(den, (cws[0], cws[1] + 1, *cws[2:])))


@pytest.mark.parametrize(
    ("target", "perturbed", "step"),
    [
        ("n_min_column", _shift_n_min, "min pairing (0, 1)"),
        ("enumerate_level_weights", _shift_cw, "conformal weight (0, 1)"),
    ],
    ids=["n_min", "cw"],
)
def test_golden_table_steps_read_the_dp_columns(capsys, monkeypatch, target, perturbed, step):
    # the golden steps diff the very columns the twist DP adds: one entry of
    # the +h n_min column or of the cw column, moved, fails its own step only
    monkeypatch.setattr(cases, target, perturbed)
    code, out = run_cli(capsys, ["tables", "--which", "a2.3", "--json"])
    assert code == 1
    failed = [s["name"] for s in json.loads(out)["steps"] if s["verdict"] == "fail"]
    assert failed == [step]


def test_twist_bound_builtin(capsys):
    code, out = run_cli(capsys, ["twist-bound", "--case", "e6g2", "--json"])
    assert code == 0
    data = json.loads(out)
    names = {s["name"]: s for s in data["steps"]}
    assert names["min twisted weight (+h)"]["computed"] == 1
    assert names["min twisted weight (-h)"]["verdict"] == "pass"


def test_twist_bound_custom_case(tmp_path, capsys):
    case = {
        "id": "tiny",
        "ambient": "A1,1 A1,1",
        "h": [["1/2"], ["0"]],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    code, out = run_cli(capsys, ["twist-bound", "--case", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    names = {s["name"]: s for s in data["steps"]}
    # no expectations for custom cases: informational verdicts only
    assert names["min twisted weight (+h)"]["verdict"] == "info"


def test_dimension_command(capsys):
    code, out = run_cli(
        capsys,
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"],
    )
    assert code == 0
    assert "312" in out


def test_candidates_command(capsys):
    code, out = run_cli(
        capsys,
        [
            "candidates",
            "--dim",
            "312",
            "--ratio",
            "12",
            "--fixed",
            "E6,3 A2,1 A2,1 A2,1",
            "--json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    names = {s["name"]: s for s in data["steps"]}
    assert names["survivors of the order-3 filter"]["computed"] == [
        "E6,1 E6,1 E6,1 E6,1"
    ]


def test_lattice_command(capsys):
    code, out = run_cli(
        capsys, ["lattice", "--isometry", "sigma6", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    names = {s["name"]: s for s in data["steps"]}
    assert names["sigma6: fixed dim"]["computed"] == 102
    # the same per-lattice and per-isometry checks as the verify-all battery,
    # the ground energy among them
    battery = {s.name for s in cases.verify_tables("lattice").steps}
    checks = [s["name"] for s in data["steps"] if s["verdict"] != "info"]
    assert len(checks) == 10 and set(checks) <= battery
    assert names["sigma6: twisted ground energy"]["verdict"] == "pass"
    assert data["verdict"] == "pass"


def test_twist_steps_match_the_verify_all_case_sections(capsys):
    # twist-bound and run_case write the twist steps through one function:
    # each step of a built-in's twist-bound output that its verify-all
    # section also has is the same step there
    code, out = run_cli(capsys, ["verify-all", "--json"])
    steps = json.loads(out)["steps"]
    starts = [i for i, s in enumerate(steps) if s["name"] == "twist norm <h|h>"]
    assert code == 0 and len(starts) == len(cases.BUILTIN_CASES)
    for case_id, start, end in zip(cases.BUILTIN_CASES, starts, starts[1:] + [None]):
        section = {s["name"]: s for s in steps[start:end]}
        code, out = run_cli(capsys, ["twist-bound", "--case", case_id, "--json"])
        twist = json.loads(out)["steps"]
        shared = [s for s in twist if s["name"] in section]
        assert code == 0
        assert [s["name"] for s in shared] == [
            "twist norm <h|h>", "twist norm in 2Z", "twist norm in (2/3)Z",
            "shift bound (h|alpha) >= -1", "tuple space size",
            "min twisted weight (+h)", "min twisted weight (-h)",
        ]
        assert shared == [section[s["name"]] for s in shared]


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_calls_answer_alike_back_to_back_on_either_route(tmp_path, capsys):
    # calls of every outcome, made back to back, give the same answer each
    # time
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({"ambient": "G2,1", "h": [["0", "3"]]}))
    calls = [
        ["twist-bound", "--case", "e6g2", "--json"],
        ["no-such-command"],
        ["twist-bound", "--case", str(mismatch), "--json"],
        ["candidates", "--dim", "-12", "--ratio", "1"],
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"],
        ["twist-bound", "--case", "/nonexistent/case.json"],
        ["twist-bound", "--help"],
    ]
    answers = [run_main(capsys, argv) for argv in calls * 2]
    assert answers[:len(calls)] == answers[len(calls):]
    assert [code for code, _, _ in answers[:len(calls)]] == [0, 2, 1, 2, 0, 2, 0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


BAD_NUMERIC_ARGVS = [
    pytest.param(["candidates", "--dim", "48", "--ratio", "1/0"], id="ratio-1/0"),
    pytest.param(
        ["candidates", "--dim", "-12", "--ratio", "1", "--json"], id="dim-negative"
    ),
    pytest.param(
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0",
         "--d23", "0", "--trunc", "0"],
        id="trunc-0",
    ),
    pytest.param(
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0",
         "--d23", "0", "--trunc", "-3"],
        id="trunc-negative",
    ),
    pytest.param(
        ["candidates", "--dim", "48", "--ratio", "1", "--fixed", "A2,1/0"],
        id="fixed-level-1/0",
    ),
    pytest.param(
        ["candidates", "--dim", "48", "--ratio", "1", "--fixed", "A2,1 U(1)^-1"],
        id="fixed-U(1)^-1",
    ),
    pytest.param(
        ["candidates", "--dim", "48", "--ratio", "1", "--fixed", "A2,1 U(1)^0"],
        id="fixed-U(1)^0",
    ),
    pytest.param(
        ["candidates", "--dim", "48", "--ratio", "1", "--fixed", "U(1)x"],
        id="fixed-U(1)x",
    ),
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_ARGVS)
def test_bad_numeric_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


NON_ASCII_VALUES = ["\uff14\uff18", "\uff11", "0.5", "+1", "1_0"]
NUMERIC_OPTIONS = [
    (["candidates", "--dim", "48", "--ratio", "1"], "--dim"),
    (["candidates", "--dim", "48", "--ratio", "1"], "--ratio"),
    (["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"], "--dimv1"),
    (["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"], "--d0"),
    (["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"], "--d13"),
    (["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"], "--d23"),
    (["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"], "--trunc"),
    (["verify-all"], "--seed"),
]


@pytest.mark.parametrize("value", NON_ASCII_VALUES)
@pytest.mark.parametrize(
    ("argv", "option"),
    NUMERIC_OPTIONS,
    ids=["dim", "ratio", "dimv1", "d0", "d13", "d23", "trunc", "verify-all-seed"],
)
def test_numeric_option_outside_the_ascii_grammar_exits_2(capsys, argv, option, value):
    # other scripts' digits, decimals, signs and underscores: the reader
    # refuses the option before any section runs
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: " in err and "Traceback" not in err


def test_numeric_options_read_the_ascii_forms():
    parse = cli.read_options
    args = parse(["candidates", "--dim=48", "--ratio=7/2"])
    assert (args.dim, args.ratio) == (48, Q(7, 2))
    assert parse(["verify-all", "--seed=41"]).seed == 41
    args = parse(["dimension", "--dimv1", "0", "--d0", "-1", "--d13", "-0", "--d23", "007"])
    assert (args.dimv1, args.d0, args.d13, args.d23) == (0, -1, 0, 7)


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"]],
    ids=["dimension"],
)
def test_trunc_is_checked_at_parse_time(capsys, monkeypatch, argv, value):
    # the reader refuses the flag before any section runs
    def no_section(*args, **kwargs):
        raise AssertionError("a section ran")

    monkeypatch.setattr(qmodular, "derive_dimension_formula", no_section)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trunc", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --trunc: truncation must be positive: {value}" in err
    assert "Traceback" not in err


REMOVED_OPTION_ARGVS = [
    ["tables", "--which", "modular", "--seed", "1"],
    ["tables", "--which", "modular", "--trunc", "12"],
    ["verify-all", "--trunc", "12"],
]


@pytest.mark.parametrize(
    "argv",
    REMOVED_OPTION_ARGVS,
    ids=["tables-seed", "tables-trunc", "verify-all-trunc"],
)
def test_removed_options_are_usage_errors(capsys, monkeypatch, argv):
    # no step draws at random and every section expands each series as far
    # as a step reads it, so these options are gone: the reader refuses them
    # before any section runs
    def no_section(*args, **kwargs):
        raise AssertionError("a section ran")

    monkeypatch.setattr(cli, "run_case", no_section)
    monkeypatch.setattr(cli, "verify_tables", no_section)
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert err.startswith("usage: ") and "Traceback" not in err


def test_verify_all_seed_is_ignored(capsys):
    # the option stays accepted for existing command lines; nothing reads it
    code, plain = run_cli(capsys, ["verify-all", "--json"])
    code_seeded, seeded = run_cli(capsys, ["verify-all", "--json", "--seed=41"])
    assert code == code_seeded == 0
    assert seeded == plain


def test_too_deep_candidate_search_exits_2(capsys):
    # the search nests once per ideal taken or skipped; at this dim and
    # ratio it would nest past the interpreter's recursion limit
    code, out, err = run_main(
        capsys, ["candidates", "--dim", "100000", "--ratio", "1/1000", "--json"]
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: candidate search at dim 100000, ratio 1/1000 nests too deep to enumerate"
    ]


def test_missing_case_file_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", "/nonexistent/case.json"])
    assert exc.value.code == 2


def test_closed_stdout_keeps_the_exit_code():
    # the read end closes before the child writes: the write fails with
    # EPIPE, which is not an input error, and nothing reaches stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbifold24.cli", "candidates", "--dim", "48",
             "--ratio", "1", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "case",
    [
        pytest.param({"ambient": "A1,1"}, id="missing-h"),
        pytest.param({"h": [["0"]]}, id="missing-ambient"),
        pytest.param([{"ambient": "A1,1", "h": [["0"]]}], id="top-level-list"),
        pytest.param({"ambient": "A1,1", "h": [["1/2"], ["0"]]}, id="extra-h-component"),
        pytest.param({"ambient": "A1,1 A1,1", "h": [["1/2"]]}, id="missing-h-component"),
        pytest.param({"ambient": "A2,1", "h": [["1/3"]]}, id="short-h-component"),
        pytest.param({"ambient": "A2,1", "h": ["10"]}, id="string-h-component"),
        pytest.param({"ambient": "A1,1", "h": [["1/0"]]}, id="zero-denominator"),
        pytest.param({"ambient": "A1,1", "h": [["half"]]}, id="bad-rational"),
        pytest.param({"ambient": "A1,1", "h": [["1_0"]]}, id="underscore-rational"),
        pytest.param({"ambient": "A1,1", "h": [["\uff11"]]}, id="fullwidth-rational"),
        pytest.param({"ambient": "A1,1", "h": [["+1/2"]]}, id="signed-rational"),
        pytest.param({"ambient": "A\uff11,1", "h": [["0"]]}, id="fullwidth-rank"),
        pytest.param({"ambient": "A1,\uff11", "h": [["0"]]}, id="fullwidth-level"),
        pytest.param({"ambient": "A+1,1", "h": [["0"]]}, id="signed-rank"),
        pytest.param({"ambient": "A1,+1", "h": [["0"]]}, id="signed-level"),
        pytest.param({"ambient": "A1_0,1", "h": [["0"] * 10]}, id="underscore-rank"),
        pytest.param({"ambient": "A1,1_0", "h": [["0"]]}, id="underscore-level"),
        pytest.param({"ambient": "A1,1\u00a0A1,1", "h": [["0"], ["0"]]}, id="no-break-space"),
        pytest.param({"ambient": "A1", "h": [["0"]]}, id="ambient-without-level"),
        pytest.param({"ambient": "A1,3/2", "h": [["0"]]}, id="fractional-level"),
        pytest.param({"ambient": ",", "h": [["0"]]}, id="empty-type-token"),
        pytest.param({"ambient": ["A1,1"], "h": [["0"]]}, id="ambient-not-string"),
        pytest.param({"id": ["x"], "ambient": "A1,1", "h": [["0"]]}, id="id-not-string"),
        pytest.param({"ambient": "A1,1", "h": [["0"]], "expected_fixed": "A1,1"},
                     id="unknown-key"),
    ],
)
def test_malformed_case_file_exits_2(tmp_path, capsys, case):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", str(path), "--json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# each input is an argument vector, or a case object that twist-bound reads
# from a file
@pytest.mark.parametrize(
    ("given", "message"),
    [
        pytest.param(
            ["candidates", "--dim", "48", "--ratio", "1/0"],
            "orbifold24 candidates: error: argument --ratio: '1/0' is not a rational"
            " [-]p[/q] in ASCII digits, q > 0\n",
            id="ratio",
        ),
        pytest.param(
            {"ambient": "A1,1 A2,1", "h": [["1/2"], ["1/3", "x"]]},
            "error: malformed case file: 'x' is not a rational [-]p[/q] in ASCII digits,"
            " q > 0\n",
            id="case-coordinate",
        ),
        pytest.param(
            {"ambient": "A1,1 A2,1", "h": [["1/2"], ["1/3"]]},
            "error: 'h' must give one coordinate list per ideal, of lengths [1, 2]\n",
            id="case-h_i-length",
        ),
    ],
)
def test_usage_error_is_the_same_on_its_second_use(tmp_path, capsys, given, message):
    # the parsers are cached per string and the twist records per (ideal,
    # h_i), but an error is not cached: within one process, a bad input
    # exits 2 with the same message every time, after a good one has warmed
    # the caches it shares tokens with
    argv = given
    if isinstance(given, dict):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(given), encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"ambient": "A1,1 A2,1", "h": [["1/2"], ["1/3", "0"]]}))
        assert run_main(capsys, ["twist-bound", "--case", str(good)])[0] == 0
        argv = ["twist-bound", "--case", str(path), "--json"]
    first, second = (run_main(capsys, argv) for _ in range(2))
    assert first == second
    code, out, err = first
    assert (code, out) == (2, "") and err.endswith(message) and "Traceback" not in err


def test_twist_bound_bytes_cold_warm_and_after_clearing(capsys, probe_outputs, fresh_caches):
    # the first 50 probe case files give the same bytes three ways: as the
    # session's cold pass ran them, again after every cache is cleared, and
    # again with every per-ideal record and parsed token a cache hit
    cold = list(probe_outputs[:50])
    cached = (twistbound.ideal_twist, rootdata.parse_rational, rootdata.parse_ideal)

    def run_all():
        return [
            (path, *run_main(capsys, ["twist-bound", "--case", path, "--json"]))
            for path, *_ in cold
        ]

    cleared = run_all()
    misses = [fn.cache_info().misses for fn in cached]
    warm = run_all()
    assert [fn.cache_info().misses for fn in cached] == misses
    assert warm == cleared == cold
    assert {code for _, code, _, _ in cold} == {0}


def test_probe_traffic_bytes_are_pinned(probe_outputs, probe_cases):
    # every twist-bound output of the twist-probe workload at seed 1, in
    # its order, joined: the sha256 is pinned for the behavioural contract
    for (_, code, _, err), case in zip(probe_outputs, probe_cases, strict=True):
        assert (code, err) == (0, ""), case["id"]
    assert len(probe_outputs) == 364
    joined = "".join(out for _, _, out, _ in probe_outputs)
    assert hashlib.sha256(joined.encode()).hexdigest() == (
        "8cdee1c09cd58c0dbd792b46bfc3e16ef485bb5a4903df184bb0f7a275053a1f"
    )


def test_empty_fixed_type_runs_the_filter(capsys):
    # '' and ' ' both name the zero algebra, so both run the order-3 filter
    argv = ["candidates", "--dim", "312", "--ratio", "12", "--json", "--fixed"]
    empty, blank = (run_main(capsys, argv + [fixed]) for fixed in ("", " "))
    assert empty == blank
    assert empty[0] == 0 and "survivors of the order-3 filter" in empty[1]


OTHER_DIGIT_FIXED = [
    "A\uff11,1", "A1,\uff11", "A+1,1", "A1,+1", "A1_0,1", "A1,1_0", "A2,3 A2,\u0663",
    "A1,1\u3000A1,1",
]


@pytest.mark.parametrize("fixed", OTHER_DIGIT_FIXED)
def test_fixed_type_in_other_digits_exits_2(capsys, fixed):
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--dim", "48", "--ratio", "1", "--fixed", fixed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# one ideal grammar, X<rank>,<k> with k positive in ASCII digits, for both
# --fixed and a case file's ambient
@pytest.mark.parametrize(
    "token, accepted",
    [pytest.param(tok, True, id=tok) for tok in ("A2,3", "A2,03")]
    + [pytest.param(tok, False, id=tok) for tok in (
        "A2", "A2,3/2", "A2,0", "A2,-1", "A2,+1", "A2,1_0", "A2,\uff11", "A2,", "A2,1.0")],
)
def test_fixed_and_ambient_share_one_grammar(tmp_path, capsys, token, accepted):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"ambient": token, "h": [["0", "0"]]}), encoding="utf-8")
    for argv in (["candidates", "--dim", "168", "--ratio", "6", "--fixed", token],
                 ["twist-bound", "--case", str(path)]):
        code, _, err = run_main(capsys, argv)
        if accepted:
            assert (code, err) == (0, "")
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


def test_deeply_nested_case_file_exits_2(tmp_path, capsys):
    # json.dumps cannot build this nesting, so the raw text is written
    path = tmp_path / "case.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed case file") and "Traceback" not in err


@pytest.mark.parametrize(
    "key", ["expected_fixed", "expected_fixed_dim", "expected_target", "lattice",
            "isometry", "H"],
)
def test_unknown_case_key_is_named(tmp_path, capsys, key):
    path = tmp_path / "case.json"
    case = {"id": "x", "ambient": "A1,1", "h": [["0"]], key: "A1,1"}
    path.write_text(json.dumps(case), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", str(path), "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: unknown case field {key!r}\n"


def test_case_file_keeps_b2_as_written(tmp_path):
    # h follows the written type's Dynkin labels, so B2 is not read as C2
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"ambient": "B2,1", "h": [["1/2", "0"]]}), encoding="utf-8")
    loaded = cases.CaseFile.from_json(str(path))
    assert str(loaded.ambient[0].type) == "B2" and loaded.h == ((2, (1, 0)),)


def test_candidate_filter_generates_no_roots(capsys):
    # the order-3 filter reads Kac's data off the affine diagram alone
    for fn in (schellekens.enumerate_candidates, schellekens._inner_options_at_level_one,
               schellekens._option_rows, schellekens._moves, rootdata._affine_diagram,
               rootdata.build_root_system):
        fn.cache_clear()
    code, _ = run_cli(capsys, ["candidates", "--dim", "312", "--ratio", "12", "--fixed",
                               "E6,3 A2,1 A2,1 A2,1"])
    assert code == 0
    assert rootdata.build_root_system.cache_info().misses == 0


def test_candidate_filter_work_counts(capsys, monkeypatch):
    # one Kac classification per orbit of label vectors under the affine
    # diagram's automorphisms, one move list per (target, ideal, cycle
    # open), shared by the candidates of a query, and one row build per
    # ideal, shared by its move lists
    for fn in (schellekens.enumerate_candidates, schellekens._inner_options_at_level_one,
               schellekens._option_rows, schellekens._moves, schellekens._positions):
        fn.cache_clear()
    classify = schellekens.kac_fixed_subalgebra
    options = schellekens.order3_fixed_options
    classified, built = Counter(), Counter()

    def count_classify(t, s):
        classified[str(t)] += 1
        return classify(t, s)

    def count_builds(t, level):
        # an ideal's option rows consult its option table once, when built
        built[f"{t},{level}"] += 1
        return options(t, level)

    monkeypatch.setattr(schellekens, "kac_fixed_subalgebra", count_classify)
    monkeypatch.setattr(schellekens, "order3_fixed_options", count_builds)
    code, _ = run_cli(capsys, ["candidates", "--dim", "312", "--ratio", "12", "--fixed",
                               "E6,3 A2,1 A2,1 A2,1"])
    assert code == 0
    # no move of A11 fits the target, so the first candidate, A11,1 D7,1 E6,1,
    # fails at its first ideal and D7 is never reached
    assert classified == {"A11": 18, "E6": 5}
    # A11 without a cycle; E6 with the cycle open and closed, two move
    # lists read off one row build: no list is built twice
    assert built == {"A11,1": 1, "E6,1": 1}
    assert schellekens._moves.cache_info().misses == 3
    # at D = 168 the candidates share A5,1 without a cycle; it is built
    # once, and D4,1's two lists read one row build
    built.clear()
    schellekens._moves.cache_clear()
    code, _ = run_cli(capsys, ["candidates", "--dim", "168", "--ratio", "6", "--fixed",
                               "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"])
    assert code == 0
    assert built == {"A5,1": 1, "D4,1": 1}
    assert schellekens._moves.cache_info().misses == 4


def test_type_bookkeeping_work_counts(capsys, monkeypatch, fresh_caches):
    # the five queries of one grid dimension, the three chains' fixed types
    # and two small ones, from cold caches: each type is named once, the one
    # type listing builds each type it returns once, and each target's
    # tally is built once for all of the dimension's candidates
    SimpleType = rootdata.SimpleType
    new, names = SimpleType.__new__, rootdata.SemisimpleTypeWithLevels.__str__
    listing, admits = schellekens.simple_types, schellekens.admits_order3_with_fixed
    built, listed, named, admitted = [], [], [], []

    def count_new(cls, family, rank):
        built.append((family, rank))
        return new(cls, family, rank)

    def count_listing(cap):
        before = len(built)
        types = listing(cap)
        listed.append((len(built) - before, len(types)))
        return types

    def count_names(self):
        named.append(self)
        return names(self)

    def count_admits(c, target):
        admitted.append(target)
        return admits(c, target)

    monkeypatch.setattr(SimpleType, "__new__", staticmethod(count_new))
    monkeypatch.setattr(schellekens, "simple_types", count_listing)
    monkeypatch.setattr(rootdata.SemisimpleTypeWithLevels, "__str__", count_names)
    monkeypatch.setattr(schellekens, "admits_order3_with_fixed", count_admits)
    targets = ["E6,3 A2,1 A2,1 A2,1", "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3",
               "A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1", "A2,1 A2,2", "D4,3 U(1)"]
    for fixed in targets:
        code, _ = run_cli(capsys, ["candidates", "--dim=168", "--ratio=6",
                                   f"--fixed={fixed}", "--json"])
        assert code == 0
    assert names.cache_info().misses == len(set(named)) < len(named)
    assert len(listed) == 1 and listed[0][0] == listed[0][1] > 0
    assert len(admitted) == 4 * len(targets)
    # one tally per target, read by every filter call and every move list
    tally = schellekens._tally.cache_info()
    assert tally.misses == len(targets)
    assert tally.hits + tally.misses == len(admitted) + schellekens._moves.cache_info().misses


def test_explore_pass_reads_cached_positions_and_rows(capsys, monkeypatch, tmp_path,
                                                     fresh_caches):
    # one cold seed-41 explore pass: a grid dimension's candidates meet its
    # five targets, so 780 filter calls read 156 position entries, one per
    # distinct candidate; the option rows are built once per distinct ideal,
    # each consulting its option table once, and the move lists once per
    # (target, ideal, cycle open)
    admits, searched = schellekens.admits_order3_with_fixed, []
    options, consulted = schellekens.order3_fixed_options, []

    def count_admits(c, target):
        searched.append(c)
        return admits(c, target)

    def count_options(t, level):
        consulted.append((t, level))
        return options(t, level)

    monkeypatch.setattr(schellekens, "admits_order3_with_fixed", count_admits)
    monkeypatch.setattr(schellekens, "order3_fixed_options", count_options)
    for argv in benchmark_ops(monkeypatch, tmp_path, "explore", 41):
        assert run_cli(capsys, argv)[0] == 0
    assert len(searched) == 780 and len(set(searched)) == 156
    assert schellekens._positions.cache_info().misses == 156
    assert schellekens._option_rows.cache_info().misses == 58
    assert len(consulted) == len(set(consulted)) == 58
    assert schellekens._moves.cache_info().misses == 289


def test_every_cache_is_hit_by_the_benchmark_traffic(capsys, monkeypatch, tmp_path,
                                                     fresh_caches):
    # one seed-1 pass of each benchmark workload in one process, from cold
    # caches: a cache that no call hits holds work that is done once anyway,
    # or shadows another cache on the same keys
    for workload in ("verify-all", "explore", "twist-probe"):
        for argv in benchmark_ops(monkeypatch, tmp_path / workload, workload):
            assert run_cli(capsys, argv)[0] == 0, argv
    unhit = [name for name, fn in package_caches().items() if not fn.cache_info().hits]
    assert unhit == []


def test_all_zero_kac_labels_exit_1(capsys, monkeypatch, fresh_caches):
    # the option tables come from the package's own label enumeration; a
    # vector with every label 0 is a fault there, not a usage error
    enumerate_labels = schellekens._order3_label_vectors
    monkeypatch.setattr(schellekens, "_order3_label_vectors",
                        lambda t: enumerate_labels(t) + [(0,) * (t.rank + 1)])
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--dim", "312", "--ratio", "12", "--fixed",
              "E6,3 A2,1 A2,1 A2,1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvariantError: (0, 0, 0, ")
    assert err[0].endswith(" is not a label vector of affine A11")


def test_builtin_case_round_trips_through_a_case_file(tmp_path):
    builtin = cases.BUILTIN_CASES["e6g2"]
    path = tmp_path / "e6g2.json"
    path.write_text(json.dumps({
        "id": "e6g2",
        "ambient": "E6,3 G2,1 G2,1 G2,1",
        "h": [[0] * 6, ["1", "0"], ["1", "0"], ["2/2", "0/3"]],
    }), encoding="utf-8")
    loaded = cases.CaseFile.from_json(str(path))
    assert (loaded.ambient, loaded.h) == (builtin.ambient, builtin.h)
    assert loaded.h == ((1, (0,) * 6),) + ((1, (1, 0)),) * 3
    assert all(type(x) is int for _, v in loaded.h for x in v)


def test_case_file_with_a_builtin_id_gets_no_reference_values(tmp_path, capsys):
    path = tmp_path / "case.json"
    case = {"id": "e6g2", "ambient": "A1,1", "h": [["1/2"]]}
    path.write_text(json.dumps(case), encoding="utf-8")
    code, out = run_cli(capsys, ["twist-bound", "--case", str(path), "--json"])
    steps = {s["name"]: s for s in json.loads(out)["steps"]}
    assert code == 0
    assert steps["twist norm <h|h>"]["computed"] == "1/8"
    for name in ("twist norm <h|h>", "min twisted weight (+h)"):
        assert steps[name]["expected"] is None and steps[name]["verdict"] == "info"
    code, out = run_cli(capsys, ["twist-bound", "--case", "e6g2", "--json"])
    steps = {s["name"]: s for s in json.loads(out)["steps"]}
    assert code == 0 and steps["twist norm <h|h>"]["verdict"] == "pass"


def test_case_file_h_follows_written_ideal_order(tmp_path, capsys):
    # the same twist on G2, written before and after the A2 ideal
    outputs = []
    for case in (
        {"ambient": "G2,1 A2,1", "h": [["0", "1"], ["0", "0"]]},
        {"ambient": "A2,1 G2,1", "h": [["0", "0"], ["0", "1"]]},
    ):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        code, out = run_cli(capsys, ["twist-bound", "--case", str(path), "--json"])
        steps = json.loads(out)["steps"]
        outputs.append((code, [(s["name"], s["computed"]) for s in steps]))
    assert outputs[0] == outputs[1]
    assert dict(outputs[0][1])["twist norm <h|h>"] == 2


# run in each child: every pinned command in process, from cold caches,
# and the (exit code, stdout) pairs written out as one JSON list
PINNED_CHILD = """
import contextlib, io, json, sys
from helpers import PINNED_OUTPUTS, package_caches
from orbifold24 import cli
runs = []
for _, argv, _ in PINNED_OUTPUTS:
    for fn in package_caches().values():
        fn.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append((code, out.getvalue()))
json.dump(runs, sys.stdout)
"""


@pytest.fixture(scope="session")
def pinned_children():
    """(exit code, stdout bytes) of every `PINNED_OUTPUTS` command, by id,
    from two children run side by side: `python` with PYTHONHASHSEED=1 and
    `python -O` with PYTHONHASHSEED=2.  Each child runs the commands in
    process and clears every cache of the package before each one, so each
    command starts as cold as in a fresh process."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    procs = [
        subprocess.Popen(
            [sys.executable, *flags, "-c", PINNED_CHILD],
            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for flags, seed in (([], "1"), (["-O"], "2"))
    ]
    outputs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    return [
        {name: (code, out.encode()) for (name, _, _), (code, out) in
         zip(PINNED_OUTPUTS, json.loads(raw), strict=True)}
        for raw in outputs
    ]


@pytest.mark.parametrize(
    ("name", "digest"),
    [(name, digest) for name, _, digest in PINNED_OUTPUTS],
    ids=[name for name, _, _ in PINNED_OUTPUTS],
)
def test_optimized_interpreter_gives_same_bytes(name, digest, pinned_children):
    # python -O strips assert statements; the invariant checks must not be
    # among them, and the output must not change.  Neither may it depend on
    # the hash seed, which differs between the two children
    plain, optimized = (runs[name] for runs in pinned_children)
    assert plain[0] == optimized[0] == 0
    assert plain[1] == optimized[1]
    if digest is not None:
        assert hashlib.sha256(plain[1]).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--which", "modular", "--json"],
        ["twist-bound", "--case", "a2x6", "--json"],
        ["twist-bound", "--case", OFFCHAMBER_CASE, "--json"],
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0",
         "--json"],
        ["candidates", "--dim", "72", "--ratio", "2", "--fixed",
         "A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1", "--json"],
        ["lattice", "--isometry", "sigma4", "--json"],
        ["verify-all", "--json"],
    ],
    ids=["tables", "twist-bound", "twist-bound-file", "dimension", "candidates",
         "lattice", "verify-all"],
)
def test_json_output_is_the_bytes_of_json_dumps(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "error",
    [
        latticevoa.IdentificationError("the D4 orbit block is singular: injected"),
        InvariantError("Cartan part is outside the fixed sublattice"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_failed_exact_check_exits_1_with_one_line(capsys, monkeypatch, fresh_caches, error):
    def failing_identify_type(sub):
        raise error

    monkeypatch.setattr(latticevoa, "identify_type", failing_identify_type)
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--isometry", "sigma2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in err


def test_singular_block_form_exits_1(capsys, monkeypatch, fresh_caches):
    # the block form is inverted exactly; its singularity is a failed exact
    # check (exit 1), not the ValueError of integer_inverse, which means bad input
    build = latticevoa.fixed_subalgebra

    def singular(lift):
        fx = build(lift)
        i = fx.orbits[0].indices[0]
        brackets, gram = dense_table(fx)
        gram = [[0 if i in (a, b) else g for b, g in enumerate(row)]
                for a, row in enumerate(gram)]
        return from_dense_table(fx, brackets, gram)

    monkeypatch.setattr(latticevoa, "fixed_subalgebra", singular)
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--isometry", "sigma2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == ("error: IdentificationError: the invariant form on the D4 orbit"
                   " block is singular\n")


def test_unsolvable_phase_system_exits_1(capsys, monkeypatch, fresh_caches):
    # an F2 system without a solution is a cocycle bookkeeping fault inside
    # the program, not a usage error
    monkeypatch.setattr(latticevoa, "_solve_f2", lambda rows, rhs, n: None)
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--isometry", "sigma6"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == "error: InvariantError: no order-3 standard phase function exists\n"


@pytest.mark.parametrize(
    "name, isometry, old, new",
    [
        ("e6_4", "sigma6", (1, 2, 0, 1), (1, 2, 0, 2)),
        ("d4_6", "sigma2", (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2)),
    ],
    ids=["e6_4", "d4_6"],
)
def test_broken_glue_code_exits_1(capsys, monkeypatch, fresh_caches, name, isometry, old, new):
    # one changed glue digit makes a built-in lattice non-integral: a fault
    # in the program's own data, not a usage error
    attr = {"e6_4": "NI_E6_4", "d4_6": "NI_D4_6"}[name]
    code = getattr(latticevoa, attr)
    gens = tuple(new if g == old else g for g in code.generators)
    assert gens != code.generators
    monkeypatch.setattr(latticevoa, attr, code._replace(generators=gens))
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--isometry", isometry])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: InvariantError: lattice is not integral\n"


E6, D4 = rootdata.SimpleType("E", 6), rootdata.SimpleType("D", 4)
D4_OUTER = (D4, "outer", "A2,3")
# the built-in isometry whose witness uses each catalogue entry
CATALOGUE_USERS = {
    (E6, "inner", "A2,1 A2,1 A2,1"): "sigma6",
    (E6, "cycle", "E6,3"): "sigma6",
    D4_OUTER: "sigma2",
    (D4, "inner", "A1,1 A1,1 A1,1 U(1)"): "sigma4",
    (D4, "cycle", "D4,3"): "sigma4",
}
CATALOGUE_MUTATIONS = [
    pytest.param(key, (sym, word[:-1], fpf), "matrix does not have order 3",
                 id=f"{key[0]}-{key[1]}-last-reflection-dropped")
    for key, (sym, word, fpf) in latticevoa._CATALOGUE.items()
] + [
    pytest.param(D4_OUTER, ((0, 1, 2, 3),) + latticevoa._CATALOGUE[D4_OUTER][1:],
                 "matrix does not have order 3", id="D4-outer-identity-symmetry"),
    pytest.param((E6, "inner", "A2,1 A2,1 A2,1"), ((0, 1, 2, 3, 4, 5), (3, 1), True),
                 "not fixed-point-free", id="E6-inner-single-A2-word"),
    pytest.param((D4, "inner", "A1,1 A1,1 A1,1 U(1)"), latticevoa._CATALOGUE[D4_OUTER],
                 "no placement of the sigma4 witness preserves the glue",
                 id="D4-inner-given-the-outer-entry"),
]


def test_infinite_order_isometry_exits_1(capsys, monkeypatch, fresh_caches):
    # a shear preserves the D4^6 lattice but has infinite order; the order
    # check is an internal invariant, so it exits 1, not with the usage code
    # the powers 0, 1, 2 of the shear a1 -> a1 + a2
    ident, shear, shear2 = (
        ((1, k, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)) for k in range(3)
    )
    powers = latticevoa._catalogue_powers
    monkeypatch.setattr(
        latticevoa, "_catalogue_powers",
        lambda key: (ident, shear, shear2) if key == D4_OUTER else powers(key),
    )
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--isometry", "sigma2"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: InvariantError: order exceeds 12\n"


@pytest.mark.parametrize("key, entry, message", CATALOGUE_MUTATIONS)
def test_mutated_catalogue_entry_exits_1(capsys, monkeypatch, fresh_caches, key, entry, message):
    # a wrong symmetry or word in the program's own catalogue is an internal
    # fault: exit 1 with the failed certificate, never 0, 2 or a traceback
    monkeypatch.setitem(latticevoa._CATALOGUE, key, entry)
    code, _, err = run_main(capsys, ["lattice", "--isometry", CATALOGUE_USERS[key]])
    assert (code, err) == (1, f"error: InvariantError: {message}\n")


def _flip_sign(alg, k):
    # one bracket [e^a, e^b] = +-e^(a+b) with a the k-th root, and its
    # antisymmetric partner [e^b, e^a]
    l, (s, sgn) = next((l, e) for l, e in alg.pairs[k].items() if e[0] >= 0)
    return changed_algebra(alg, pairs={
        k: {**alg.pairs[k], l: (s, -sgn)},
        l: {**alg.pairs[l], k: (s, -alg.pairs[l][k][1])},
    })


def _wrong_sum(alg, k):
    l, (s, sgn) = next((l, e) for l, e in alg.pairs[k].items() if e[0] >= 0)
    return changed_algebra(alg, pairs={k: {**alg.pairs[k], l: ((s + 1) % alg.n_roots, sgn)}})


def _drop_entry(alg, k):
    first = next(iter(alg.pairs[k]))
    return changed_algebra(alg, pairs={k: {l: e for l, e in alg.pairs[k].items() if l != first}})


def _shift_cr(alg, k):
    row = list(alg.cr[k])
    row[3] += 1
    return changed_algebra(alg, cr={k: row})


BRACKET_TABLE_MUTATIONS = [
    pytest.param("sigma2", _flip_sign, 70, id="eps-sign-d4_6"),
    pytest.param("sigma6", _flip_sign, 150, id="eps-sign-e6_4"),
    pytest.param("sigma4", _wrong_sum, 20, id="sum-index-d4_6"),
    pytest.param("sigma6", _drop_entry, 200, id="dropped-entry-e6_4"),
    pytest.param("sigma2", _shift_cr, 100, id="cr-entry-d4_6"),
]


@pytest.mark.parametrize("iso_name, mutate, root", BRACKET_TABLE_MUTATIONS)
def test_mutated_bracket_table_fails_the_certificate(iso_name, mutate, root):
    # one wrong entry in a changed copy of the weight-one algebra's tables,
    # passed to the lattice checks with the true lattice: the certificate
    # step fails, and it alone
    lat, alg = cases.lattice_data(cases.unique_survivor(cases.ISOMETRY_CASES[iso_name])[0])
    rep = Report(f"lattice {lat.code.label()} / {iso_name}")
    cases.check_lattice(rep, lat, mutate(alg, root))
    failed = [s.name for s in rep.steps if s.verdict == "fail"]
    assert rep.exit_code == 1
    assert failed == [f"{lat.code.label()}: bracket table is the Frenkel-Kac cocycle bracket"]


def test_mismatched_lattice_and_isometry_exit_2():
    # the CLI takes the lattice from the survivor of the isometry's case, so
    # only a library call can pair them wrongly: sigma2's witness needs six
    # D4 components
    lat, _ = cases.lattice_data(cases.BUILTIN_CASES["e6g2"].expected_target)
    with pytest.raises(ValueError) as exc:
        latticevoa.build_isometry(lat, named_witness("sigma2"), "sigma2")
    assert str(exc.value) == "the witness's ideals are not the lattice's E6,1 E6,1 E6,1 E6,1"


def test_lattice_takes_no_name(capsys):
    # the isometry fixes the lattice, so naming one is a usage error
    code, out, err = run_main(capsys, ["lattice", "--name", "e6_4", "--isometry", "sigma6"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --name e6_4" in err and "Traceback" not in err


def test_option_of_two_classes_exits_1(capsys, monkeypatch, fresh_caches):
    # a catalogued matrix names one class only when its option comes from
    # one class; a class table listing E6's A2,1^3 twice must stop the build
    table = schellekens._inner_options_at_level_one
    option = rootdata.SemisimpleTypeWithLevels.parse("A2,1 A2,1 A2,1")
    e6 = rootdata.SimpleType("E", 6)
    assert table(e6).count(option) == 1
    monkeypatch.setattr(
        schellekens, "_inner_options_at_level_one",
        lambda t: table(t) + ((option,) if t == e6 else ()),
    )
    code, out, err = run_main(capsys, ["lattice", "--isometry", "sigma6"])
    assert code == 1
    assert err == ("error: InvariantError: A2,1 A2,1 A2,1 is the fixed type of 2"
                   " order-3 classes of E6, not 1\n")


def test_no_glue_compatible_placement_exits_1(capsys, monkeypatch, fresh_caches):
    def reject(lat, slot_maps):
        return None

    monkeypatch.setattr(latticevoa, "_slot_maps_to_isometry", reject)
    code, _, err = run_main(capsys, ["lattice", "--isometry", "sigma4"])
    assert code == 1
    assert err == "error: InvariantError: no placement of the sigma4 witness preserves the glue\n"


def test_lift_that_breaks_the_bracket_exits_1(capsys, monkeypatch, fresh_caches):
    # a lift that passes every other check of standard_lift but not the lift
    # certificate stops the battery with one error line
    monkeypatch.setattr(latticevoa, "certify_lift", lambda lift: False)
    code, out, err = run_main(capsys, ["lattice", "--isometry", "sigma6"])
    assert code == 1 and out == ""
    assert err == "error: InvariantError: standard lift does not preserve the bracket\n"


def test_root_system_outside_the_table_is_named():
    # A2,1^12 is a Niemeier root system that the glue-code table lacks
    a2_12 = rootdata.SemisimpleTypeWithLevels.parse(" ".join(["A2,1"] * 12))
    with pytest.raises(InvariantError) as exc:
        latticevoa.niemeier_code(a2_12)
    assert str(exc.value) == f"no Niemeier glue code in the table has the root system {a2_12}"


@pytest.mark.parametrize(
    "argv", [["lattice", "--isometry", "sigma2"], ["verify-all"]], ids=["lattice", "verify-all"]
)
def test_survivor_without_a_glue_code_exits_1(capsys, monkeypatch, fresh_caches, argv):
    # with D4^6 gone from the table, the a2x6 survivor names no lattice: a
    # fault in the program's own data, reported on one line
    monkeypatch.setattr(latticevoa, "NI_D4_6", latticevoa.NI_E6_4)
    code, _, err = run_main(capsys, argv)
    assert (code, err) == (1, "error: InvariantError: no Niemeier glue code in the table has"
                              " the root system D4,1 D4,1 D4,1 D4,1 D4,1 D4,1\n")


def test_dropped_glue_generator_is_not_unimodular(capsys, monkeypatch, fresh_caches):
    # each D4^6 glue generator doubles the code, so the lattice without one
    # has index 2 in a unimodular lattice: Gram determinant 4, exit 1
    code = latticevoa.NI_D4_6
    for k in range(len(code.generators)):
        short = code._replace(generators=code.generators[:k] + code.generators[k + 1:])
        with pytest.raises(InvariantError, match="determinant 4, not 1$"):
            latticevoa.assemble_niemeier(short)
        fresh_caches()
        monkeypatch.setattr(latticevoa, "NI_D4_6", short)
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--isometry", "sigma2"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "error: InvariantError: assembled lattice has determinant 4, not 1\n"
        )


def test_pole_and_formula_steps_read_the_solved_table(capsys, monkeypatch):
    # twice the x^-3 coefficient of f^-3 at the other cusp halves the solved
    # c_-3 and moves c_-2, c_-1 and the formula with it; a typed table would
    # pass both steps, since the formula reads only constant terms
    patch_series_coefficient(monkeypatch, "f_power_at_S", (-3,), Q(-1), Q(2))
    code, out = run_cli(capsys, ["tables", "--which", "modular", "--json"])
    assert code == 1
    verdicts = {s["name"]: s["verdict"] for s in json.loads(out)["steps"]}
    assert verdicts["pole coefficient c_-3"] == "fail"
    assert verdicts["dimension formula coefficients"] == "fail"


def test_dimension_queries_and_verify_all_share_one_derivation(capsys, monkeypatch, tmp_path,
                                                               fresh_caches):
    # --trunc changes no work: the dimension queries of an explore pass, at
    # three truncations, and verify-all build the Laurent table and the
    # formula once, and each series is one cache entry
    ops = [argv for argv in benchmark_ops(monkeypatch, tmp_path, "explore")
           if argv[0] == "dimension"]
    assert [argv[-2] for argv in ops] == [f"--trunc={t}" for t in (12, 12, 14, 14, 16, 16)]
    for argv in ops + [["verify-all", "--json"]]:
        assert run_cli(capsys, argv)[0] == 0
    assert qmodular.laurent_table.cache_info().misses == 1
    assert qmodular.derive_dimension_formula.cache_info().misses == 1
    assert qmodular.hauptmodul_f.cache_info().currsize == 1
    assert qmodular.f_power_at_S.cache_info().currsize == 4


def test_steps_read_each_series_below_its_truncation(capsys, monkeypatch, fresh_caches):
    # the largest exponent that verify-all and a dimension query read of each
    # series: f to q^1 and the cusp series to q^(2/3), so the one truncation
    # 1 covers every read, and each read lies below the series' truncation
    reads = []
    coeff = qmodular.PuiseuxSeries.coeff

    def recorded(series, exp):
        reads.append((series, Q(exp)))
        return coeff(series, exp)

    monkeypatch.setattr(qmodular.PuiseuxSeries, "coeff", recorded)
    dimension = ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"]
    for argv in (["verify-all", "--json"], dimension):
        assert run_cli(capsys, argv)[0] == 0
    series = {"f": qmodular.hauptmodul_f(qmodular.TRUNC)}
    series.update((f"f^{n}", qmodular.f_power_at_S(n, qmodular.TRUNC)) for n in (1, -1, -2, -3))
    assert all(any(s is t for t in series.values()) for s, _ in reads)
    top = {name: max(e for s, e in reads if s is t) for name, t in series.items()}
    assert top == {"f": 1, "f^1": Q(2, 3), "f^-1": 0, "f^-2": 0, "f^-3": 0}
    assert {name: t.trunc for name, t in series.items()} == {
        "f": Q(3, 2), "f^1": 1, "f^-1": 1, "f^-2": 1, "f^-3": 1}


# --- the argv reader ----------------------------------------------------------

# every argv of a usage-error test above that names a command
USAGE_ERROR_ARGVS = (
    [param.values[0] for param in BAD_NUMERIC_ARGVS]
    + [argv + [option, value] for argv, option in NUMERIC_OPTIONS for value in NON_ASCII_VALUES]
    + REMOVED_OPTION_ARGVS
    + [["candidates", "--dim", "48", "--ratio", "1", "--fixed", f] for f in OTHER_DIGIT_FIXED]
    + [
        ["lattice", "--name", "e6_4", "--isometry", "sigma6"],
        ["candidates", "--dim", "100000", "--ratio", "1/1000", "--json"],
        ["twist-bound", "--case", "/nonexistent/case.json"],
        ["twist-bound", "--help"],
    ]
)


def benchmark_ops(monkeypatch, tmp_path, workload, seed=1):
    """The argvs of one pass of a benchmark workload at a seed, 1 unless given."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import gen

    return gen.make_ops(workload, seed, str(tmp_path))


@pytest.mark.parametrize("argv", [
    ["twist-bound", "--case=--"],
    ["dimension", "--dimv1=--", "--d0=1", "--d13=0", "--d23=0"],
    ["candidates", "--dim=48", "--ratio=1", "--fixed=--"],
    ["lattice", "--isometry=--"],
    ["tables", "--which=--"],
], ids=lambda argv: argv[0])
def test_explicit_value_dashdash_is_a_usage_error(capsys, argv):
    # `--opt=--` gives the option no value, on every interpreter
    code, out, err = run_main(capsys, argv)
    flag = next(word for word in argv if word.endswith("=--"))[:-3]
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"orbifold24 {argv[0]}: error: argument {flag}: takes one value"


# the usage line of the program and of each command
USAGE = {
    None: "usage: orbifold24 [-h] {tables,twist-bound,dimension,candidates,lattice,verify-all} ...",
    "tables": "usage: orbifold24 tables [-h] [--json] [--which WHICH]",
    "twist-bound": "usage: orbifold24 twist-bound [-h] [--json] --case CASE",
    "dimension": "usage: orbifold24 dimension [-h] [--json] --dimv1 DIMV1 --d0 D0 --d13 D13"
                 " --d23 D23 [--trunc TRUNC]",
    "candidates": "usage: orbifold24 candidates [-h] [--json] --dim DIM --ratio RATIO"
                  " [--fixed FIXED]",
    "lattice": "usage: orbifold24 lattice [-h] [--json] --isometry ISOMETRY",
    "verify-all": "usage: orbifold24 verify-all [-h] [--json] [--seed SEED]",
}
# each command's required options, each given once
REQUIRED = {"tables": [], "verify-all": [], "twist-bound": ["--case", "e6g2"],
            "dimension": ["--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"],
            "candidates": ["--dim", "48", "--ratio", "1"], "lattice": ["--isometry", "sigma6"]}
NOT_AN_INTEGER = "not an integer [-]n in ASCII digits: "
# every declared option: (command, flag, a good value word, the value it
# reads to, a bad value word, the reason the reader refuses it); a flag's
# good word is None, as it takes none
OPTION_WORDS = [
    ("tables", "--which", "a5.3", "a5.3", "x",
     "'x' is not one of g2.1, a2.3, a1.1, a5.3, d4.3, modular, lattice, all"),
    ("twist-bound", "--case", "-", "-", "--", "takes one value"),
    ("dimension", "--dimv1", "48", 48, "4.8", NOT_AN_INTEGER + "'4.8'"),
    ("dimension", "--d0", "-1", -1, "x", NOT_AN_INTEGER + "'x'"),
    ("dimension", "--d13", "-0", 0, "+1", NOT_AN_INTEGER + "'+1'"),
    ("dimension", "--d23", "007", 7, "\uff17", NOT_AN_INTEGER + "'\uff17'"),
    ("dimension", "--trunc", "16", 16, "0", "truncation must be positive: 0"),
    ("candidates", "--dim", "0", 0, "-12", "dimension must not be negative: -12"),
    ("candidates", "--ratio", "7/2", Q(7, 2), "1/0",
     "'1/0' is not a rational [-]p[/q] in ASCII digits, q > 0"),
    ("candidates", "--fixed", "E6,3 A2,1", "E6,3 A2,1", "--", "takes one value"),
    ("lattice", "--isometry", "sigma2", "sigma2", "sigma9",
     "'sigma9' is not one of sigma6, sigma2, sigma4"),
    ("verify-all", "--seed", "41", 41, "1_0", NOT_AN_INTEGER + "'1_0'"),
] + [(name, "--json", None, True, "1", "takes no value") for name in REQUIRED]


def test_option_words_cover_every_declared_option():
    declared = {(name, o.flag) for name, (_, _, options) in cli.COMMANDS.items() for o in options}
    assert {(name, flag) for name, flag, *_ in OPTION_WORDS} == declared


@pytest.mark.parametrize("form", ["=", " "], ids=["equals", "space"])
@pytest.mark.parametrize(("command", "flag", "good", "value", "bad", "reason"), OPTION_WORDS,
                         ids=[f"{name}{flag}" for name, flag, *_ in OPTION_WORDS])
def test_each_option_reads_and_refuses_in_either_form(
    capsys, form, command, flag, good, value, bad, reason
):
    # after the required options, so a required one is given twice and the
    # last one wins; a flag takes no value in either form
    def words(word):
        return [f"{flag}={word}"] if form == "=" or good is None else [flag, word]

    given = [command, *REQUIRED[command]]
    args = cli.read_options(given + (words(good) if good is not None else [flag]))
    assert getattr(args, flag[2:]) == value
    assert run_main(capsys, given + words(bad)) == (
        2, "", f"{USAGE[command]}\norbifold24 {command}: error: argument {flag}: {reason}\n"
    )


@pytest.mark.parametrize(("argv", "reason"), [
    pytest.param(["candidates", "--dim", "48", "--ratio", "1", "--fix=A2,1"],
                 "unrecognized arguments: --fix=A2,1", id="abbreviation"),
    pytest.param(["verify-all", "--nope", "x", "--json", "-1"],
                 "unrecognized arguments: --nope x -1", id="unknown-flag"),
    pytest.param(["verify-all", "--json", "--", "--json", "-h"],
                 "unrecognized arguments: -- --json -h", id="dashdash"),
    pytest.param(["dimension", "--d0", "1", "--nope"],
                 "the following arguments are required: --dimv1, --d13, --d23", id="missing"),
    pytest.param(["twist-bound", "--case"], "argument --case: takes one value", id="no-value"),
    pytest.param(["twist-bound", "--case", "-x"], "argument --case: takes one value",
                 id="dashed-value"),
    pytest.param(["verify-all", "--seed", "x", "-h"], f"argument --seed: {NOT_AN_INTEGER}'x'",
                 id="refused-before-help"),
    pytest.param([], "no command given", id="empty"),
    pytest.param(["nope", "-h"], "'nope' is not a command", id="unknown-command"),
    pytest.param(["--json", "verify-all"], "'--json' is not a command", id="option-first"),
])
def test_refused_argv_prints_usage_and_one_reason(capsys, argv, reason):
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    prog = f"orbifold24 {command}" if command else "orbifold24"
    assert run_main(capsys, argv) == (2, "", f"{USAGE[command]}\n{prog}: error: {reason}\n")


HELP = {
    None: f"""{USAGE[None]}

commands:
  tables               diff recomputed tables against references
  twist-bound          twisted-weight minima for a case
  dimension            orbifold weight-one dimension
  candidates           enumerate and filter candidates
  lattice              lattice-side battery for one isometry
  verify-all           replay every case and table
""",
    "candidates": f"""{USAGE["candidates"]}

enumerate and filter candidates:
  --json               machine-readable output
  --dim DIM
  --ratio RATIO        h-dual/level ratio, e.g. 12 or 7/2
  --fixed FIXED        target fixed type, e.g. 'E6,3 A2,1 A2,1 A2,1'
""",
    "dimension": f"""{USAGE["dimension"]}

orbifold weight-one dimension:
  --json               machine-readable output
  --dimv1 DIMV1
  --d0 D0
  --d13 D13
  --d23 D23
  --trunc TRUNC        ignored; each series is expanded as far as a step reads it
""",
}


@pytest.mark.parametrize("argv", [
    ["--help", "nope"], ["candidates", "-h"], ["candidates", "--nope", "--help", "--dim", "x"],
    ["dimension", "--help"],
], ids=["top", "command", "after-unknown", "dimension"])
def test_help_comes_from_the_table(capsys, argv):
    # help is printed when it is read: unknown words and missing options
    # before it, and any word after it, do not matter
    assert run_main(capsys, argv) == (0, HELP[argv[0] if argv[0] in cli.COMMANDS else None], "")


ARGV_SOURCES = {
    "pinned": lambda monkeypatch, tmp_path: [argv for _, argv, _ in PINNED_OUTPUTS],
    "explore": lambda monkeypatch, tmp_path: benchmark_ops(monkeypatch, tmp_path, "explore"),
    "twist-probe":
        lambda monkeypatch, tmp_path: benchmark_ops(monkeypatch, tmp_path, "twist-probe"),
    "usage-errors": lambda monkeypatch, tmp_path: USAGE_ERROR_ARGVS,
    "random": lambda monkeypatch, tmp_path: random_argvs(2000),
}


def read_outcome(capsys, read, argv):
    """(exit code, namespace as a dict, or None where `read` exits)."""
    try:
        args = vars(read(argv))
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code, None
    return 0, args


def oracle_reader():
    """`read_options` by the argparse oracle.  Argparse before 3.13 reads
    `--opt=--` as an empty list, which a later `--opt` replaces; the reader
    refuses the word at once, as 3.13 does, so the oracle reads the words
    before it: help there exits 0, and all else exits 2."""
    oracles = {name: argparse_oracle(name) for name in cli.COMMANDS}

    def read(argv):
        flags = {o.flag for o in cli.COMMANDS[argv[0]][2] if o.reader is not None}
        cut = next((i for i, w in enumerate(argv) if w[-3:] == "=--" and w[:-3] in flags), 0)
        args = oracles[argv[0]].parse_args(argv[1:cut or None])
        if cut:
            raise SystemExit(2)
        return args

    return read


@pytest.mark.parametrize("source", ARGV_SOURCES)
def test_table_reads_what_it_accepts_as_argparse_does(capsys, monkeypatch, tmp_path, source):
    # the reader and an argparse parser of the same table that takes no
    # abbreviations exit alike on every argv, and read the same namespace
    # wherever they read one; every pinned and benchmark argv is read
    argvs, oracle = ARGV_SOURCES[source](monkeypatch, tmp_path), oracle_reader()
    read = 0
    for argv in argvs:
        given = read_outcome(capsys, cli.read_options, argv)
        assert given == read_outcome(capsys, oracle, argv), argv
        read += given[1] is not None
    if source in ("pinned", "explore", "twist-probe"):
        assert read == len(argvs)
    else:
        assert 0 < read < len(argvs)


def read_both_ways(capsys, monkeypatch, argv):
    """(exit code, namespace as a dict or None, stdout, stderr) of `argv`
    read with the whole command table, then with a table of its command
    alone."""
    outcomes = []
    for table in (cli.COMMANDS, types.MappingProxyType({argv[0]: cli.COMMANDS[argv[0]]})):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "COMMANDS", table)
            try:
                code, args = 0, vars(cli.read_options(argv))
            except SystemExit as exc:
                code, args = exc.code, None
        outcomes.append((code, args, *capsys.readouterr()))
    return outcomes


def test_command_parser_alone_reads_the_pinned_argvs_alike(capsys, monkeypatch):
    for _, argv, _ in PINNED_OUTPUTS:
        whole, alone = read_both_ways(capsys, monkeypatch, argv)
        assert whole == alone and whole[0] == 0, argv


@pytest.mark.parametrize("workload", ["explore", "twist-probe"])
def test_command_parser_alone_reads_the_benchmark_traffic_alike(
    capsys, monkeypatch, tmp_path, workload
):
    ops = benchmark_ops(monkeypatch, tmp_path, workload)
    assert ops
    for argv in ops:
        whole, alone = read_both_ways(capsys, monkeypatch, argv)
        assert whole == alone and whole[0] == 0, argv


def test_command_parser_alone_refuses_the_usage_errors_alike(capsys, monkeypatch):
    # a refusal comes under the usage line of the command read, with one
    # error line in the command's name, whatever other commands there are
    refused = 0
    for argv in USAGE_ERROR_ARGVS:
        whole, alone = read_both_ways(capsys, monkeypatch, argv)
        assert whole == alone and whole[0] in (0, 2), argv
        if whole[0] == 2:
            refused += 1
            lines = whole[3].splitlines()
            assert whole[2] == "" and lines[0] == USAGE[argv[0]], argv
            assert lines[-1].startswith(f"orbifold24 {argv[0]}: error: "), argv
    assert refused


# every argv on which the reader and the oracle exit apart: (argv, the
# reader's exit code, the oracle's).  Argparse refuses `--help=1` and `-hx`
# at once, where the reader finds unknown words that a later -h outranks.
# After a space, argparse also reads as a value a word that starts with `-`
# and holds a space or a negative decimal in any digits; the reader reads
# only `-` and negative integers in ASCII digits.
DEPARTURES = {
    "help-with-value": (["verify-all", "--help=1", "-h"], 0, 2),
    "help-joined": (["verify-all", "-hx", "-h"], 0, 2),
    "negative-decimal": (["twist-bound", "--case", "-1.5"], 2, 0),
    "other-digits": (["twist-bound", "--case", "-\u0661"], 2, 0),
    "dash-and-space": (["candidates", "--dim=48", "--ratio=1", "--fixed", "-x A2,1"], 2, 0),
}


@pytest.mark.parametrize("name", DEPARTURES)
def test_reader_departs_from_argparse_only_as_listed(capsys, name):
    argv, code, oracle_code = DEPARTURES[name]
    assert read_outcome(capsys, cli.read_options, argv)[0] == code
    assert read_outcome(capsys, oracle_reader(), argv)[0] == oracle_code


def test_command_table_is_read_only():
    with pytest.raises(TypeError):
        cli.COMMANDS["tables"] = cli.COMMANDS["verify-all"]


def test_entry_point_reads_sys_argv_by_the_same_route(capsys, monkeypatch):
    argv = ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"]
    given = run_main(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["orbifold24", *argv])
    assert run_main(capsys, None) == given and given[0] == 0


def test_unknown_trailing_arguments_come_under_the_command_usage(capsys):
    assert run_main(capsys, ["verify-all", "--trunc", "12"]) == (
        2,
        "",
        "usage: orbifold24 verify-all [-h] [--json] [--seed SEED]\n"
        "orbifold24 verify-all: error: unrecognized arguments: --trunc 12\n",
    )
