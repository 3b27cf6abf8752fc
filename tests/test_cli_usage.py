"""Byte pins of the parser's help texts and usage errors.

Each case records the exit code, stdout and stderr of main(argv) at 80
columns: the root parser and each of the 14 command parsers with --help,
bare and with an unknown option, plus invalid choices, rejected option
values and words left over after a command, which the root reports.

Two details of argparse's own formatting differ between releases, so they
are not pinned. Python 3.13.0 wraps the usage line of omega member before
--kind, where 3.10-3.12 wrap inside its choices; the three cases that print
it hold both results, labelled by the interpreters that printed them, and
must match one. The list after "choose from" in an invalid-choice error
quotes each choice up to 3.12.1 and 3.13.0 and may not in later patch
releases, so quotes inside that list are dropped on both sides.

To regenerate the golden file after an intended change of these texts:
    PYTHONPATH=src python tests/test_cli_usage.py --write
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from nilmat import cli

GOLDEN = Path(__file__).with_name("cli_usage_golden.json")

PARSERS = [
    [],
    ["nilcheck"],
    ["omega"],
    ["omega", "count"],
    ["omega", "enumerate"],
    ["omega", "pattern"],
    ["omega", "member"],
    ["q"],
    ["q", "iso"],
    ["q", "member"],
    ["q", "nilclass"],
    ["q", "make-nilpotent"],
    ["polytope"],
    ["polytope", "build"],
    ["verify"],
]
CASES = [parser + extra for parser in PARSERS for extra in (["--help"], [], ["--bogus"])] + [
    ["bogus"],
    ["omega", "bogus"],
    ["verify", "nope"],
    ["omega", "pattern", "--order", "1,1"],
    ["q", "make-nilpotent", "--alpha", "1/0"],
    ["nilcheck", "--matrix", "m.json", "--ambient", "x"],
    ["omega", "count", "--n", "3", "--k", "2", "extra"],
    ["verify", "example1", "--bogus"],
    ["--bogus", "verify", "example1"],
]
# the labels of a case's results from the two sides of the wrapping split
VERSION_KEYS = ("before 3.13", "3.13 and later")
VERSION_KEY = VERSION_KEYS[sys.version_info >= (3, 13)]


def key(argv):
    return " ".join(argv) or "(no arguments)"


def observe(argv):
    """Exit code, stdout and stderr of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def comparable(result):
    """result with the quotes dropped inside each "choose from" list."""
    unquote = lambda match: match[0].replace("'", "")
    return {
        name: text if name == "exit" else re.sub(r"\(choose from [^)]*\)", unquote, text)
        for name, text in result.items()
    }


def allowed(argv, golden):
    """The comparable results a case may give: its one result, or one from
    each side of the wrapping split."""
    result = golden[key(argv)]
    return [comparable(r) for r in (result.values() if VERSION_KEYS[0] in result else [result])]


def check(argv, golden):
    """Compare one case on a parser built for it, then on the same parser
    reused, as later main calls in one process reuse it."""
    cli._parser.cache_clear()
    want = allowed(argv, golden)
    return comparable(observe(argv)) in want and comparable(observe(argv)) in want


def test_usage_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(map(key, CASES))
    mismatched = [key(argv) for argv in CASES if not check(argv, golden)]
    assert mismatched == []


def _write():
    os.environ["COLUMNS"] = "80"
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for argv in CASES:
        old = golden.get(key(argv), {})
        result = observe(argv)
        split = VERSION_KEYS[0] in old
        golden[key(argv)] = {**old, VERSION_KEY: result} if split else result
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (compare with pytest)")
    _write()
