"""Replays recorded CLI invocations and requires byte-identical results.

cli_golden.json holds, for each invocation below, its exit code, stdout and
stderr.  A refactor of the constructors or the matrix builders must leave
every one unchanged.  To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from shapovalov.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

INVOCATIONS = [
    # theta in every ordering, with --borel, in text, JSON and LaTeX
    ["theta", "--algebra", "3,2", "--root", "e1-d2"],
    ["theta", "--algebra", "3,2", "--root", "e1-d2", "--order", "middle", "--format", "latex"],
    ["theta", "--algebra", "3,2", "--root", "e1-d2", "--order", "odd-last"],
    ["theta", "--algebra", "3,2", "--root", "e1-d2", "--order", "odd-first"],
    ["theta", "--algebra", "3,2", "--root", "e1-d2", "--order", "bform"],
    ["theta", "--algebra", "2,2", "--root", "e1-d2", "--order", "odd-last", "--format", "json"],
    ["theta", "--algebra", "2,3", "--root", "e2-d3", "--order", "odd-first", "--format", "latex"],
    ["theta", "--algebra", "2,2", "--root", "e2-d1", "--order", "bform", "--format", "json"],
    ["theta", "--algebra", "3,3", "--root", "e1-d3", "--order", "odd-last"],
    ["theta", "--algebra", "3,3", "--root", "e2-d3", "--order", "odd-first", "--format", "json"],
    ["theta", "--algebra", "4", "--root", "e1-e4", "--format", "latex"],
    ["theta", "--algebra", "4", "--root", "e2-e4", "--order", "bform", "--format", "json"],
    ["theta", "--algebra", "2,3", "--root", "d1-d3"],
    ["theta", "--algebra", "2,3", "--root", "d1-d3", "--order", "bform", "--format", "latex"],
    ["theta", "--algebra", "2,2", "--borel", "1 1' 2 2'", "--format", "json"],
    ["theta", "--algebra", "3,2", "--borel", "1 2 1' 3 2'"],
    ["theta", "--algebra", "2,2", "--borel", "distinguished", "--root", "e1-d2", "--format", "latex"],
    # det for every matrix, with --expand and --weight
    ["det", "--algebra", "4", "--matrix", "D"],
    ["det", "--algebra", "3", "--matrix", "E", "--expand"],
    ["det", "--algebra", "4", "--matrix", "D", "--expand", "--weight", "3,1,0,-2", "--format", "json"],
    ["det", "--algebra", "2,2", "--matrix", "A", "--expand", "--format", "json"],
    ["det", "--algebra", "3,2", "--matrix", "Ars", "-r", "2", "-s", "2", "--expand",
     "--weight", "1,2,3,4,5"],
    ["det", "--algebra", "3,2", "--matrix", "Brs", "-r", "1", "-s", "2", "--format", "json"],
    ["det", "--algebra", "3,2", "--matrix", "Brs", "-r", "1", "-s", "2", "--expand", "--format", "latex"],
    ["det", "--algebra", "3,2", "--matrix", "Fj", "-r", "1", "-s", "2", "-j", "1", "--expand",
     "--format", "latex"],
    ["det", "--algebra", "3,2", "--matrix", "Gj", "-r", "1", "-s", "2", "-j", "2", "--expand",
     "--weight", "2,0,-1,1,3"],
    ["det", "--algebra", "3,2", "--matrix", "Gj", "-r", "2", "-s", "2", "-j", "1"],
    # verify, compare, kac-coeff and minimal
    ["verify", "--algebra", "2,2", "--root", "e1-d2", "--order", "odd-first", "--symbolic",
     "--samples", "2", "--format", "json"],
    ["verify", "--algebra", "3", "--root", "e1-e3", "--order", "bform", "--symbolic",
     "--samples", "2", "--format", "json"],
    ["verify", "--algebra", "2,2", "--borel", "1 2 1' 2'", "--symbolic", "--samples", "1",
     "--format", "json"],
    ["compare", "--algebra", "2,2", "--root", "e1-d2", "--samples", "2"],
    ["compare", "--algebra", "3,1", "--root", "e1-d1", "--samples", "2", "--format", "json"],
    ["kac-coeff", "--algebra", "2,2", "--root", "e2-d2", "--weight", "4,2,-1,5", "--format", "json"],
    ["minimal", "--algebra", "2,2", "--weight=-3,1,2,0"],
    # refusals
    ["theta", "--algebra", "3", "--root", "e1-e3", "--order", "middle"],
    ["theta", "--algebra", "3", "--borel", "1,2,3"],
    ["det", "--algebra", "3,2", "--matrix", "Ars", "-r", "4", "-s", "1"],
]


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_covers_every_invocation():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == INVOCATIONS


@pytest.mark.parametrize("index", range(len(INVOCATIONS)))
def test_replay_is_byte_identical(index):
    expected = json.loads(GOLDEN.read_text())[index]
    assert replay(INVOCATIONS[index]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in INVOCATIONS], indent=1) + "\n")
