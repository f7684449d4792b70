"""The README's command-line examples, run in-process against their comments."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from kqlab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, comment) of every ``kq`` line in the README."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("kq "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


EXAMPLES = _examples()


def test_readme_has_one_example_per_subcommand():
    assert len(EXAMPLES) == 8
    assert len({argv[0] for argv, _ in EXAMPLES}) == 8


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[a[0] for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, comment):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    stated_exit = re.search(r"exit (\d)", comment)
    assert code == (int(stated_exit.group(1)) if stated_exit else 0)
    stated = re.search(r"(?:value|constant) ([\d/.]+)", comment)
    if stated:
        value = float(Fraction(stated.group(1)))
        tol = build_parser().parse_args(argv).tol
        assert doc["rows"]
        for row in doc["rows"]:
            assert abs(row["value"] - value) <= tol
        assert doc["summary"]["target"] == pytest.approx(value, rel=1e-13)
