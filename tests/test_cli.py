import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbifold24 import cases, cli, latticevoa
from orbifold24.cli import main
from orbifold24.exactmath import InvariantError


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
        capsys, ["lattice", "--name", "e6_4", "--isometry", "sigma6", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    names = {s["name"]: s for s in data["steps"]}
    assert names["fixed dim"]["computed"] == 102
    assert data["verdict"] == "pass"


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    # main builds its parser once per process; calls of every outcome, made
    # back to back, must give what a freshly built parser gives
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
    cached = [run_main(capsys, argv) for argv in calls * 2]
    fresh = []
    for argv in calls * 2:
        cli.build_parser.cache_clear()
        fresh.append(run_main(capsys, argv))
    assert cached == fresh
    assert [code for code, _, _ in cached[:len(calls)]] == [0, 2, 1, 2, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
def test_bad_numeric_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_missing_case_file_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", "/nonexistent/case.json"])
    assert exc.value.code == 2


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
        pytest.param({"ambient": "A1", "h": [["0"]]}, id="ambient-without-level"),
        pytest.param({"ambient": "A1,3/2", "h": [["0"]]}, id="fractional-level"),
        pytest.param({"ambient": ",", "h": [["0"]]}, id="empty-type-token"),
        pytest.param({"ambient": ["A1,1"], "h": [["0"]]}, id="ambient-not-string"),
        pytest.param({"id": ["x"], "ambient": "A1,1", "h": [["0"]]}, id="id-not-string"),
    ],
)
def test_malformed_case_file_exits_2(tmp_path, capsys, case):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["twist-bound", "--case", str(path), "--json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["twist-bound", "--case", "a2x6", "--json"],
        ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0",
         "--json"],
        ["candidates", "--dim", "312", "--ratio", "12", "--fixed",
         "E6,3 A2,1 A2,1 A2,1", "--json"],
        ["lattice", "--name", "d4_6", "--isometry", "sigma4", "--json"],
        ["verify-all", "--json"],
    ],
    ids=["twist-bound", "dimension", "candidates", "lattice", "verify-all"],
)
def test_optimized_interpreter_gives_same_bytes(argv):
    # python -O strips assert statements; the invariant checks must not be
    # among them, and the output must not change.  The two interpreters run
    # side by side.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    procs = [
        subprocess.Popen(
            [sys.executable, *flags, "-m", "orbifold24.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for flags in ([], ["-O"])
    ]
    outputs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "error",
    [
        latticevoa.IdentificationError("float discovery failed: injected"),
        InvariantError("Cartan part is outside the fixed sublattice"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_failed_exact_check_exits_1_with_one_line(capsys, monkeypatch, error):
    def failing_identify_type(sub, seed=7):
        raise error

    monkeypatch.setattr(latticevoa, "identify_type", failing_identify_type)
    # bypass the per-process cache so that the patched identification runs
    monkeypatch.setattr(cli, "lattice_fixed_type", cases.lattice_fixed_type.__wrapped__)
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--name", "d4_6", "--isometry", "sigma2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in err
