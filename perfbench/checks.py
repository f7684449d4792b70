"""Run one generated check against kqlab and judge its outcome.

Every entry point is looked up on the ``kqlab`` package (or ``kqlab.cli``)
at call time, so the traced run's wrappers see each call.  A check passes
only if the program's verdict is the one the paper predicts and every value
it certifies is finite and within tolerance of the generated target.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import kqlab
import kqlab.cli
from kqlab import jets

# Tolerance on a classified constant (a1, a2) against its closed value; the
# classification checker itself matches branches at 1e-7.
CONST_TOL = 1e-7


@dataclass
class Outcome:
    ok: bool
    error: Optional[float]   # worst relative deviation from a target, if any
    detail: str = ""


def _rel(value: float, target: float) -> float:
    """Relative deviation; NaN stays NaN so that every ``<= tol`` test fails."""
    return abs(value - target) / (1.0 + abs(target))


def _worst(errors) -> float:
    errors = list(errors)
    if any(not math.isfinite(e) for e in errors):
        return math.nan
    return max(errors)


def _log_ball_rule(A: float):
    """Jet rule of the log-ball profile F(t) = -(1/A) log(1 - e^t), rebuilt by hand."""
    def rule(t, order):
        e = jets.exp(kqlab.TaylorJet.variable(t, order))
        return (-1.0 / A) * jets.log(1.0 - e)
    return rule


def _profile(model: dict):
    family, A, c = model["family"], model["A"], model["c"]
    if family == "logball":
        return kqlab.log_ball(A)
    if family == "linear":
        return kqlab.linear(c)
    if family == "logaffine":
        return kqlab.log_affine(A, c)
    if family == "custom-logball":
        return kqlab.custom(_log_ball_rule(A), "t")
    raise ValueError(f"unknown profile family {family!r}")


def _constants_outcome(expect: dict, constant: bool, branch, a1: float,
                       a2: float) -> Outcome:
    if not expect["constant"]:
        return Outcome(not constant, None, f"constant={constant}")
    err = _worst((_rel(a1, expect["a1"]), _rel(a2, expect["a2"])))
    ok = constant and branch == expect["branch"] and err <= CONST_TOL
    return Outcome(ok, err, f"constant={constant} branch={branch} err={err:.3g}")


def _classify(check: dict, workdir: str) -> Outcome:
    model = check["model"]
    base = kqlab.BaseGeometry.from_coefficients(model["d"], model["twist"],
                                                check["a1_base"], check["a2_base"])
    v = kqlab.classify_check(base, _profile(model), model["d0"], model["domain"],
                             check["grid"])
    return _constants_outcome(check["expect"], v.constant, v.matched_branch,
                              v.a1_value, v.a2_value)


def _cli(check: dict, workdir: str) -> Outcome:
    out = os.path.join(workdir, "cli-report.json")
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stderr(io.StringIO()):   # the CLI's wall-time line
        try:
            code = kqlab.cli.main(check["argv"] + ["--out", out])
        except SystemExit as exc:                     # argparse rejected the input
            return Outcome(False, None, f"exit={exc.code} from argument parsing")
    with open(out) as fh:
        report = json.load(fh)
    expect = check["expect"]
    summary = report.get("summary", {})
    ok = (code == expect["exit"] and summary.get("verdict") == expect["verdict"]
          and len(report.get("rows", ())) == expect["rows"])
    if not ok:
        return Outcome(False, None, f"exit={code} report={str(report)[:200]}")
    if "mean" in expect:
        # coeffs: every row holds the same constant
        err = _worst([_rel(summary["mean"], expect["mean"]),
                      summary["max_deviation"]])
        return Outcome(err <= CONST_TOL, err, f"err={err:.3g}")
    return _constants_outcome(dict(expect, constant=True), True, summary["branch"],
                              summary["a1"], summary["a2"])


def _balanced(check: dict, workdir: str) -> Outcome:
    cert = kqlab.balanced_certify(check["k"], check["r"], check["m"],
                                  part=check["part"], rho_grid=check["grid"])
    target = check["expect"]["target"]
    err = _worst(_rel(v, target) for v in cert.values)
    ok = cert.balanced and err <= 1e-8 and len(cert.values) == len(check["grid"])
    return Outcome(ok, err, f"balanced={cert.balanced} err={err:.3g}")


def _hartogs(check: dict, workdir: str) -> Outcome:
    cfg = kqlab.GramOracleConfig(bundle_degree=check["k"], power=check["m"],
                                 q_cap=check["Q"],
                                 sample_points=tuple(map(tuple, check["samples"])))
    setup = kqlab.balanced_setup(check["k"], 1, check["m"], check["part"])
    rep = kqlab.hartogs_gram_oracle(cfg, setup)
    expect = check["expect"]
    err = _worst(_rel(v, expect["target"]) for v in rep.values)
    ok = (err <= expect["tol"] and rep.max_abs_error is not None
          and rep.max_abs_error <= expect["tol"])
    return Outcome(ok, err, f"err={err:.3g} tail={rep.tail_fraction:.3g}")


def _cp1(check: dict, workdir: str) -> Outcome:
    rep = kqlab.cp1_bergman_oracle(check["k"], check["m"], check["grid"])
    expect = check["expect"]
    err = _worst(_rel(v, expect["target"]) for v in rep.values)
    return Outcome(err <= expect["tol"], err, f"err={err:.3g}")


def _probe(check: dict, workdir: str) -> Outcome:
    cfg = kqlab.GramOracleConfig(bundle_degree=check["k"], power=check["m"], q_cap=8)
    setup = kqlab.balanced_setup(check["k"], 1, check["m"], "ball")
    pairs = [tuple(map(tuple, p)) for p in check["pairs"]]
    entries = kqlab.gram_offdiagonal_probe(cfg, setup, pairs)
    err = _worst(e.magnitude for e in entries)
    return Outcome(err <= check["expect"]["tol"] and len(entries) == len(pairs),
                   err, f"max magnitude {err:.3g}")


def _psi_table(check: dict, workdir: str) -> Outcome:
    s = kqlab.cli.setup_from_dict(check["setup"])
    gaps = []
    for k in range(check["kmax"] + 1):
        closed = kqlab.psi_moment(s, k, "closed")
        quad = kqlab.psi_moment(s, k, "quadrature")
        gaps.append(abs(quad - closed) / closed)
    err = _worst(gaps)
    return Outcome(err <= check["expect"]["tol"], err, f"worst gap {err:.3g}")


def _series(check: dict, workdir: str) -> Outcome:
    s = kqlab.cli.setup_from_dict(check["setup"])
    values = [kqlab.bergman_series(s, rho, psi_method="quadrature")
              for rho in check["rho"]]
    expect = check["expect"]
    err = _worst(_rel(v, expect["target"]) for v in values)
    return Outcome(err <= expect["tol"], err, f"err={err:.3g}")


def _identity_rhs(setup: dict, rho: float) -> float:
    """Closed resummation of the generating series, by profile family."""
    p, alpha = setup["profile"], setup["alpha"]
    if p["family"] == "logball":
        return (1.0 - rho) ** (-alpha / p["A"])
    if p["family"] == "linear":
        return math.exp(p.get("c", 1.0) * alpha * rho)
    return (1.0 + p.get("c", 1.0) * rho) ** alpha


def _identity(check: dict, workdir: str) -> Outcome:
    s = kqlab.cli.setup_from_dict(check["setup"])
    rep = kqlab.generating_identity_check(s, check["grid"],
                                          psi_method=check["psi_method"])
    err = _worst(_rel(lhs, _identity_rhs(check["setup"], rho))
                 for rho, lhs, _ in rep.rows)
    ok = err <= check["expect"]["tol"] and len(rep.rows) == len(check["grid"])
    return Outcome(ok, err, f"err={err:.3g}")


RUNNERS = {"classify": _classify, "cli": _cli, "balanced": _balanced,
           "hartogs": _hartogs, "cp1": _cp1, "probe": _probe,
           "psi_table": _psi_table, "series": _series, "identity": _identity}


def run_check(check: dict, workdir: str) -> Outcome:
    """Run one check; any exception the program raises is a failed check."""
    try:
        return RUNNERS[check["kind"]](check, workdir)
    except Exception as exc:  # the program under test may raise anything
        return Outcome(False, None, f"{type(exc).__name__}: {exc}")
