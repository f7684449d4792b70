"""The benchmark's own tests: seeded inputs and the correctness gate.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json

import pytest

from workloads import WORKLOADS, build


def _bytes(workload, seed):
    return json.dumps(build(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    assert _bytes(workload, 7) != _bytes(workload, 8)


def _first(workload, seed, pred):
    return next(c for c in build(workload, seed) if pred(c))


def _perturbed_checks():
    """(check, perturbed copy) pairs, one per kind of expected outcome."""
    on_branch = _first("curvature-atlas", 3, lambda c: c["kind"] == "classify"
                       and c["expect"].get("branch"))
    detuned = _first("curvature-atlas", 3, lambda c: c["kind"] == "classify"
                     and not c["expect"]["constant"])
    custom = _first("curvature-atlas", 3,
                    lambda c: c.get("model", {}).get("family") == "custom-logball")
    hartogs = _first("oracle-crosscheck", 3,
                     lambda c: c["kind"] == "hartogs" and c["Q"] == 60)
    cp1 = _first("oracle-crosscheck", 3, lambda c: c["kind"] == "cp1")
    series = _first("oracle-crosscheck", 3, lambda c: c["kind"] == "series")
    cli = _first("curvature-atlas", 3, lambda c: c["kind"] == "cli"
                 and c["argv"][0] == "classify")
    pairs = []
    for check, edit in (
            (on_branch, lambda e: e.update(a1=e["a1"] + 1e-4 * (1 + abs(e["a1"])))),
            (on_branch, lambda e: e.update(branch="2.14")),
            (detuned, lambda e: e.update(constant=True, branch=None, a1=0.0, a2=0.0)),
            (custom, lambda e: e.update(branch="2.10")),
            (hartogs, lambda e: e.update(target=e["target"] * 1.01)),
            (cp1, lambda e: e.update(target=e["target"] + 1e-4)),
            (series, lambda e: e.update(target=e["target"] + 1.0)),
            (cli, lambda e: e.update(exit=1, verdict="fail"))):
        bad = copy.deepcopy(check)
        edit(bad["expect"])
        pairs.append((check, bad))
    return pairs


@pytest.mark.parametrize("check,bad", _perturbed_checks())
def test_perturbed_expectation_trips_the_gate(check, bad, tmp_path):
    from checks import run_check

    assert run_check(check, str(tmp_path)).ok
    outcome = run_check(bad, str(tmp_path))
    assert not outcome.ok, outcome.detail


def test_rejected_cli_arguments_fail_the_check(tmp_path):
    from checks import run_check

    check = _first("curvature-atlas", 3, lambda c: c["kind"] == "cli")
    bad = dict(check, argv=check["argv"] + ["--no-such-option"])
    outcome = run_check(bad, str(tmp_path))
    assert not outcome.ok and "argument parsing" in outcome.detail
