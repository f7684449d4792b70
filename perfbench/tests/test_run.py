"""The runner's normalisation of check times by the reference work."""

import math

import pytest

import run
from workloads import build


def test_reference_work_takes_positive_cpu_time():
    for seconds in run.reference():
        assert math.isfinite(seconds) and seconds > 0


def test_speed_factor_is_one_at_the_reference_speed():
    at_ref = (run.REF_PY_S, run.REF_NP_S)
    assert run.speed_factor(at_ref, at_ref, 0.75) == pytest.approx(1.0)
    slow = (2 * run.REF_PY_S, 1.5 * run.REF_NP_S)
    assert run.speed_factor(at_ref, slow, 1.0) == pytest.approx(1.5)
    assert run.speed_factor(slow, slow, 0.5) == pytest.approx(1.75)


def test_run_pass_normalises_every_check(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    checks = build("oracle-crosscheck", 1)[:4]
    gate, samples = run.Gate(), []
    totals = run.run_pass(checks, gate, samples, 0.25)
    assert gate.failed == 0 and gate.attempted == len(checks)
    assert len(samples) == len(checks)
    for wall, cpu, norm in samples:
        assert wall > 0 and cpu >= 0 and norm >= 0
    assert totals == pytest.approx(tuple(sum(column) for column in zip(*samples)))
