#!/usr/bin/env python3
"""Sweep the balanced bundle metrics over (k, r, m) and report certification gaps.

Writes one JSON document with a row per tuple: exact product-law target,
worst constancy spread over the fiber-radius grid, and worst error against
the target, using quadrature moments throughout.
"""

import argparse
import json
import sys

import numpy as np

from kqlab import balanced_certify
from kqlab.cli import render_report, report_file
from kqlab.errors import KQLabError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=3)
    ap.add_argument("--r-max", type=int, default=3)
    ap.add_argument("--m-max", type=int, default=4)
    ap.add_argument("--grid-points", type=int, default=12)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    grid = np.linspace(0.0, 0.9, args.grid_points)
    rows = []
    for k in range(1, args.k_max + 1):
        for r in range(1, args.r_max + 1):
            if k * r <= 1:
                continue
            for m in range(r, args.m_max + 1):
                try:
                    cert = balanced_certify(k, r, m, rho_grid=grid)
                except KQLabError as exc:
                    rows.append({"k": k, "r": r, "m": m, "error": str(exc)})
                    continue
                rows.append({
                    "k": k, "r": r, "m": m,
                    "A": cert.A, "mu": cert.mu, "target": cert.target,
                    "max_spread": cert.max_spread, "max_error": cert.max_error,
                    "balanced": cert.balanced,
                })
    for m in range(1, args.m_max + 1):
        cert = balanced_certify(1, 1, m, part="total", rho_grid=grid)
        rows.append({"k": 1, "r": 1, "m": m, "part": "total",
                     "target": cert.target, "max_spread": cert.max_spread,
                     "max_error": cert.max_error, "balanced": cert.balanced})
    with report_file(args.out) as fh:
        fh.write(render_report({"rows": rows}))
    bad = [r for r in rows if not r.get("balanced", False)]
    print(f"{len(rows)} tuples, {len(bad)} not certified", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
