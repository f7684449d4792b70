#!/usr/bin/env python3
"""Map out the constant-coefficient classification over a parameter atlas.

For each (family, A, twist, d, d0, domain) cell the base is first given the
branch-required coefficients, then a detuned copy; the report records which
cells are constant and which branch they match.  A quick visual that only
the tabulated branches survive.
"""

import argparse
import sys

from kqlab import BaseGeometry, classify_check, required_base_coefficients
from kqlab import linear, log_affine, log_ball, t_from_x
from kqlab.cli import render_report, report_file
from kqlab.errors import KQLabError, OutOfDomain


def grid_for(p, lam, count=12):
    cap = 2.5
    if lam < 0:
        cap = min(cap, 0.9 / abs(lam))
    if p.family == "logaffine":
        cap = min(cap, 0.9 / abs(p.A))
    return [t_from_x(p, cap * (j + 1) / (count + 1)) for j in range(count)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--detune", type=float, default=0.1,
                    help="offset applied to the base a1 in the control run")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cells = []
    for lam in (0.5, 1.0, 2.0, -1.0):
        for d, d0 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for p, domain in ((log_ball(0.5), "ball"), (log_ball(abs(lam)), "ball"),
                              (linear(1.0), "fullspace"),
                              (log_affine(-0.5, 1.0), "fullspace"),
                              (log_affine(-abs(lam), 1.0), "fullspace")):
                cell = {"family": p.family, "A": getattr(p, "A", 0.0),
                        "twist": lam, "d": d, "d0": d0, "domain": domain}
                try:
                    a1, a2 = required_base_coefficients(p, d, d0, lam, domain)
                except OutOfDomain:
                    cell["branch"] = None
                    cells.append(cell)
                    continue
                base = BaseGeometry.from_coefficients(d, lam, a1, a2)
                detuned = BaseGeometry.from_coefficients(d, lam, a1 + args.detune, a2)
                try:
                    grid = grid_for(p, lam)
                    v = classify_check(base, p, d0, domain, grid)
                    vbad = classify_check(detuned, p, d0, domain, grid)
                except KQLabError as exc:
                    cell["error"] = str(exc)
                    cells.append(cell)
                    continue
                cell.update({
                    "branch": v.matched_branch, "constant": v.constant,
                    "a1": v.a1_value, "a2": v.a2_value,
                    "max_deviation": v.max_deviation,
                    "detuned_constant": vbad.constant,
                    "detuned_deviation": vbad.max_deviation,
                })
                cells.append(cell)
    with report_file(args.out) as fh:
        fh.write(render_report({"cells": cells}))
    matched = sum(1 for c in cells if c.get("branch"))
    leaks = sum(1 for c in cells if c.get("detuned_constant"))
    print(f"{len(cells)} cells, {matched} on-branch, {leaks} detuned leaks",
          file=sys.stderr)
    return 1 if leaks else 0


if __name__ == "__main__":
    raise SystemExit(main())
