"""Fixtures shared by the test modules."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from orbifold24 import cli

from helpers import package_caches


@pytest.fixture
def fresh_caches():
    """Clear every `lru_cache` of the package before and after the test.

    A test that patches the input of a cached table must not see a table
    cached from the true input, nor leave one built from the patched input
    to later tests.  The caches are collected before the test patches
    anything, so a cached function that the test replaces is cleared all
    the same.  The fixture's value clears them again, for a test that
    patches several inputs in turn."""
    caches = list(package_caches().values())

    def clear():
        for fn in caches:
            fn.cache_clear()

    clear()
    yield clear
    clear()


@pytest.fixture(scope="session")
def probe_cases():
    """The case objects of the twist-probe benchmark workload at seed 1, as
    `benchmarks/gen.py` draws them, generated once per session."""
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    return tuple(gen.twist_cases(1))


@pytest.fixture(scope="session")
def probe_outputs(probe_cases, tmp_path_factory):
    """(case path, exit code, stdout, stderr) of `twist-bound --case PATH
    --json` on each probe case, in order, run in process once per session
    after every cache of the package is cleared: the first use of each
    (ideal, h_i) pair and of each token is a cache miss."""
    root = tmp_path_factory.mktemp("probe")
    for fn in package_caches().values():
        fn.cache_clear()
    runs = []
    for i, case in enumerate(probe_cases):
        path = root / f"case-{i:04d}.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["twist-bound", "--case", str(path), "--json"])
            except SystemExit as exc:
                code = exc.code
        runs.append((str(path), code, out.getvalue(), err.getvalue()))
    return tuple(runs)
