"""The README's command-line examples, run against their comments, and the
modules a fresh interpreter loads to run them."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kqlab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _examples():
    """(argv, comment) of every ``kq`` line in the README."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("kq "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


EXAMPLES = _examples()


def _stated_exit(comment):
    """The exit code a README comment states, 0 if it states none."""
    stated = re.search(r"exit (\d)", comment)
    return int(stated.group(1)) if stated else 0


def test_readme_has_one_example_per_subcommand():
    assert len(EXAMPLES) == 8
    assert len({argv[0] for argv, _ in EXAMPLES}) == 8


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[a[0] for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, comment):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == _stated_exit(comment)
    stated = re.search(r"(?:value|constant) ([\d/.]+)", comment)
    if stated:
        value = float(Fraction(stated.group(1)))
        tol = build_parser().parse_args(argv).tol
        assert doc["rows"]
        for row in doc["rows"]:
            assert abs(row["value"] - value) <= tol
        assert doc["summary"]["target"] == pytest.approx(value, rel=1e-13)


# A fresh interpreter imports kqlab and runs README examples through cli.main,
# then prints the exit codes and the scipy modules loaded before and after.
_FRESH_RUN = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import kqlab, kqlab.cli
after_import = scipy_modules()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(kqlab.cli.main(argv))
print(json.dumps([after_import, codes, scipy_modules()]))
"""


@pytest.mark.parametrize("commands", [
    ("coeffs", "classify", "bergman", "identity"),
    ("psi",),
    ("balanced", "oracle-cp1", "oracle-hartogs"),
], ids=["no-gauss-rule", "psi", "gauss-rules"])
def test_readme_examples_load_scipy_only_to_build_gauss_rules(commands):
    # Gauss rules are built with numpy: no README example loads scipy
    examples = [(argv, comment) for argv, comment in EXAMPLES if argv[0] in commands]
    assert len(examples) == len(commands)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN,
                          json.dumps([argv for argv, _ in examples])],
                         env=env, capture_output=True, text=True, check=True).stdout
    after_import, codes, after_run = json.loads(out)
    assert after_import == []
    assert codes == [_stated_exit(comment) for _, comment in examples]
    assert after_run == []
