"""Per-layer counts from the tracer: the stated predictions and ROADMAP's figures.

These run whole traced passes and take about half a minute.
"""

import json

import kqlab
import kqlab.cli
from checks import run_check
from tracing import Tracer
from workloads import build


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def _traced_pass(workload, seed, tmp_path):
    checks = build(workload, seed)

    def run():
        for check in checks:
            outcome = run_check(check, str(tmp_path))
            assert outcome.ok, outcome.detail

    tracer = _traced(run)
    return tracer.metrics(sum(c.get("points", 0) for c in checks))


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_tracer_restores_every_entry_point():
    before = kqlab.profile_jet, kqlab.bergman.profile_jet, kqlab.TaylorJet.__mul__
    _traced(lambda: None)
    assert (kqlab.profile_jet, kqlab.bergman.profile_jet,
            kqlab.TaylorJet.__mul__) == before


def test_curvature_atlas_predictions(tmp_path):
    first = _traced_pass("curvature-atlas", 1, tmp_path)
    second = _traced_pass("curvature-atlas", 1, tmp_path)
    assert _counts(first) == _counts(second)
    assert all(v == 0 for k, v in first.items() if k.startswith("oracle."))
    assert first["bergman.quad_rules"] == 0
    assert first["curvature.reports_per_point"] > 1
    assert first["cli.main.calls"] == 2


def test_balanced_sweep_predictions(tmp_path):
    m = _traced_pass("balanced-sweep", 1, tmp_path)
    assert all(v == 0 for k, v in m.items() if k.startswith("oracle."))
    assert m["bergman.quad_rules"] == m["bergman.psi_moment.calls"] > 0


def test_roadmap_classify_computes_two_reports_per_point(tmp_path):
    out = str(tmp_path / "report.json")
    argv = ["classify", "--family", "logball", "--A", "0.5", "--d", "1",
            "--d0", "2", "--lambda", "1", "--grid=-4:-0.5:200", "--out", out]
    tracer = _traced(lambda: kqlab.cli.main(argv))
    assert json.load(open(out))["summary"]["verdict"] == "pass"
    assert tracer.counts["curvature.curvature_report.calls"] == 2 * 200


def test_roadmap_one_gauss_rule_per_moment():
    tracer = _traced(lambda: kqlab.balanced_certify(2, 2, 3))
    assert tracer.counts["bergman.psi_moment.calls"] == 419
    assert tracer.counts["bergman.quad_rules"] == 419


def test_roadmap_hartogs_error_at_q60():
    cfg = kqlab.GramOracleConfig(bundle_degree=2, power=2, q_cap=60)
    rep = kqlab.hartogs_gram_oracle(cfg, kqlab.balanced_setup(2, 1, 2, "ball"))
    assert f"{rep.max_abs_error:.1e}" == "2.6e-04"


def test_oracle_crosscheck_counts(tmp_path):
    m = _traced_pass("oracle-crosscheck", 1, tmp_path)
    assert m["oracle.calls"] == 32
    assert 0 < m["oracle.basis_fill"] < 1
    assert m["cli.main.calls"] == 0 and m["curvature.curvature_report.calls"] == 0
