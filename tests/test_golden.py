"""Golden outputs: every row of ``golden.txt`` run in process through ``cli.main``.

A row is ``<expect> <argv...>``: the sha256 of stdout with exit 0, or
``exit:N``.  CI runs the same rows through the installed ``oscext`` entry
point, so the table is the one place an output is pinned; the guards below
keep it parseable and keep digests out of the CI workflow.
"""

import hashlib
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from oscext.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.txt"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DIGEST = re.compile(r"[0-9a-f]{64}")
EXIT = re.compile(r"exit:(\d+)")


def golden_rows():
    """(line number, expect, argv) per row of the table; ``#`` lines and blank lines are not rows."""
    rows = []
    for lineno, line in enumerate(GOLDEN.read_text().splitlines(), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            expect, *argv = line.split()
            rows.append((lineno, expect, argv))
    return rows


@pytest.mark.parametrize("expect, argv", [pytest.param(e, a, id="_".join(a)) for _, e, a in golden_rows()])
def test_golden_output(capsys, monkeypatch, expect, argv):
    monkeypatch.chdir(ROOT)  # fixture paths are relative to the repository root
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        code = exc.code
    out = capsys.readouterr().out
    status = EXIT.fullmatch(expect)
    if status:
        assert code == int(status.group(1))
    else:
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expect


def test_table_parses():
    rows = golden_rows()
    assert rows
    for lineno, expect, argv in rows:
        assert DIGEST.fullmatch(expect) or EXIT.fullmatch(expect), f"line {lineno}: bad expect {expect!r}"
        assert argv, f"line {lineno}: no arguments"
        # Split on whitespace, the rows read the same in the CI shell loop.
        assert all(shlex.quote(a) == a for a in argv), f"line {lineno}: an argument needs quoting"
    repeated = [argv for argv, count in Counter(" ".join(a) for _, _, a in rows).items() if count > 1]
    assert not repeated, f"rows share an argv: {repeated}"


def test_ci_pins_nothing_itself():
    workflow = WORKFLOW.read_text()
    assert not re.search(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])", workflow)
    assert "tests/golden.txt" in workflow
