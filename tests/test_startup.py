"""Start-up: the package never imports numpy, dataclasses, inspect,
argparse or gettext.

These checks run in a fresh interpreter, because this test process has
numpy loaded already.  The child sets `sys.modules["numpy"] = None` before
it imports the CLI, so any attempt to import numpy fails.  It then runs
every subcommand, `lattice` and `verify-all` included, and reports
`sys.modules` after the import and after the last subcommand.  Importing
dataclasses costs every process ~7 ms, as it pulls in inspect, ast, dis and
tokenize, so the package's record types are NamedTuples and plain classes.
`cli.read_options` reads every argv from the command table, so argparse,
and gettext, which argparse imports for its messages, stay unloaded; with
cached bytecode they take about 3 ms of a 27 ms `import orbifold24.cli`
(`python -X importtime`, CPython 3.11 on 2 cores).  The import names no
type, tallies no order-3 target and builds no option row or candidate
position: those caches fill as queries read them.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orbifold24
from orbifold24.cli import main

COMMANDS = [
    ["twist-bound", "--case", "e6g2", "--json"],
    ["candidates", "--dim", "312", "--ratio", "12", "--json"],
    ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0", "--json"],
    ["tables", "--which", "g2.1", "--json"],
    ["lattice", "--isometry", "sigma4", "--json"],
    ["verify-all", "--json"],
]

CHILD = """
import contextlib, io, json, sys

sys.modules["numpy"] = None

def loaded():
    return {
        "numpy": sys.modules["numpy"] is not None,
        "dataclasses": "dataclasses" in sys.modules,
        "inspect": "inspect" in sys.modules,
        "argparse": "argparse" in sys.modules,
        "gettext": "gettext" in sys.modules,
        "package": sorted(m for m in sys.modules if m.startswith("orbifold24.")),
    }

import orbifold24.cli as cli
from orbifold24 import rootdata, schellekens
stages = {"import": loaded(), "cached_at_import": {
    "names": rootdata.SemisimpleTypeWithLevels.__str__.cache_info().currsize,
    "tallies": schellekens._tally.cache_info().currsize,
    "option_rows": schellekens._option_rows.cache_info().currsize,
    "positions": schellekens._positions.cache_info().currsize,
}}

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"code": code, "out": buf.getvalue()}

stages["commands"] = [run(argv) for argv in json.loads(sys.argv[1])]
stages["after_commands"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_every_module_but_not_numpy(stages):
    # the benchmark tracer snapshots sys.modules before it wraps anything,
    # so every package module must be loaded by the CLI import itself
    package = sorted(
        f"orbifold24.{m.name}" for m in pkgutil.iter_modules(orbifold24.__path__)
    )
    assert stages["import"] == {
        "numpy": False, "dataclasses": False, "inspect": False, "argparse": False,
        "gettext": False, "package": package,
    }


def test_cli_import_names_and_tallies_no_type(stages):
    # the type names, the order-3 targets' tallies, the ideals' option rows
    # and the candidates' positions are built by the queries that read
    # them, not at start-up
    assert stages["cached_at_import"] == {"names": 0, "tallies": 0, "option_rows": 0,
                                          "positions": 0}


def test_every_subcommand_runs_without_numpy(stages):
    assert [r["code"] for r in stages["commands"]] == [0] * len(COMMANDS)
    assert all(r["out"] for r in stages["commands"])


def test_nothing_loads_numpy_and_gives_the_same_output(stages, capsys):
    assert stages["after_commands"]["numpy"] is False
    assert stages["after_commands"]["dataclasses"] is False
    assert stages["after_commands"]["inspect"] is False
    assert stages["after_commands"]["argparse"] is False
    assert stages["after_commands"]["gettext"] is False
    for argv, child in zip(COMMANDS, stages["commands"]):
        code = main(argv)
        assert child == {"code": code, "out": capsys.readouterr().out}, argv
