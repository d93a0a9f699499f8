"""Start-up cost: numpy is imported only by the lattice type identification.

These checks run in a fresh interpreter, because this test process has
numpy loaded already.  One child process imports the CLI, runs the
subcommands that never build a lattice algebra, then runs `lattice`, and
reports `sys.modules` after each stage.
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

NO_LATTICE = [
    ["twist-bound", "--case", "e6g2", "--json"],
    ["candidates", "--dim", "312", "--ratio", "12", "--json"],
    ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0", "--json"],
    ["tables", "--which", "g2.1", "--json"],
]
LATTICE = ["lattice", "--name", "d4_6", "--isometry", "sigma4", "--json"]

CHILD = """
import contextlib, io, json, sys

def loaded():
    return {
        "numpy": "numpy" in sys.modules,
        "package": sorted(m for m in sys.modules if m.startswith("orbifold24.")),
    }

import orbifold24.cli as cli
stages = {"import": loaded()}

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"code": code, "out": buf.getvalue()}

stages["no_lattice"] = [run(argv) for argv in json.loads(sys.argv[1])]
stages["after_no_lattice"] = loaded()
stages["lattice"] = run(json.loads(sys.argv[2]))
stages["after_lattice"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(NO_LATTICE), json.dumps(LATTICE)],
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
    assert stages["import"] == {"numpy": False, "package": package}


def test_subcommands_without_a_lattice_never_load_numpy(stages):
    assert [r["code"] for r in stages["no_lattice"]] == [0] * len(NO_LATTICE)
    assert all(r["out"] for r in stages["no_lattice"])
    assert stages["after_no_lattice"]["numpy"] is False


def test_lattice_loads_numpy_and_gives_the_same_output(stages, capsys):
    assert stages["after_lattice"]["numpy"] is True
    code = main(LATTICE)
    assert stages["lattice"] == {"code": code, "out": capsys.readouterr().out}
    assert code == 0
