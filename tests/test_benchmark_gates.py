"""The benchmark's correctness gates, run on the package's own output.

`benchmarks/gate.py` reads the verify-all step counts and the twist-bound
step names; a change to either fails here before it fails a benchmark run.
The benchmark modules are read as they are, from `benchmarks/`.
"""

import json
from pathlib import Path

import pytest

from orbifold24.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    """The gate and generator modules, imported from `benchmarks/`."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import gate
    import gen

    return gate, gen


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verify_all_passes_the_gate(bench, capsys):
    gate, _ = bench
    assert gate.check_verify_all(*run(capsys, ["verify-all", "--json"])) is None


def test_seeded_twist_cases_pass_the_gate(bench, capsys, tmp_path):
    gate, gen = bench
    for case in gen.twist_cases(1)[:8]:
        path = tmp_path / f"{case['id']}.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        code, out = run(capsys, ["twist-bound", "--case", str(path), "--json"])
        assert gate.check_twist(code, out, case) is None, case["id"]
