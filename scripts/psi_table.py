#!/usr/bin/env python3
"""Tabulate fiber moments psi(alpha, k): quadrature vs Gamma closed forms.

One row per (setup, k) with both values and the relative gap; exits nonzero
if any gap exceeds the tolerance.
"""

import argparse
import sys

from kqlab import BaseGeometry, MomentTable, QuantizationSetup, psi_moment
from kqlab import linear, log_affine, log_ball
from kqlab.cli import render_report, report_file


def default_setups():
    flat1 = BaseGeometry.from_coefficients(1, 1.0, 0.0, 0.0)
    flat2 = BaseGeometry.from_coefficients(2, 1.0, 0.0, 0.0)
    flat2n = BaseGeometry.from_coefficients(2, -1.0, 0.0, 0.0)
    return [
        ("ball d=1", QuantizationSetup(2, "ball", log_ball(0.5), flat1, 4.0)),
        ("ball d=2", QuantizationSetup(2, "ball", log_ball(1.0), flat2, 9.0)),
        ("full linear", QuantizationSetup(1, "fullspace", linear(1.0), flat1, 2.0)),
        ("full projective", QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0),
                                              flat2n, 9.0)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=12)
    ap.add_argument("--nodes", type=int, default=64)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    worst = 0.0
    for label, s in default_setups():
        kmax = args.k_max if s.twist > 0 else min(args.k_max, int(s.alpha))
        table = MomentTable(s)
        for k in range(kmax + 1):
            closed = table(k)
            quad = psi_moment(s, k, "quadrature", nodes=args.nodes)
            gap = abs(quad - closed) / closed
            worst = max(worst, gap)
            rows.append({"setup": label, "k": k, "closed": closed,
                         "quadrature": quad, "relative_gap": gap})
    with report_file(args.out) as fh:
        fh.write(render_report({"rows": rows, "worst_relative_gap": worst}))
    print(f"worst relative gap {worst:.3e}", file=sys.stderr)
    return 0 if worst <= args.tol else 1


if __name__ == "__main__":
    raise SystemExit(main())
