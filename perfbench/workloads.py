"""Seeded input generators for the three benchmark workloads.

Each generator turns ``(workload, seed)`` into plain data: a list of checks,
each naming the kqlab entry point it drives, the inputs it passes and the
outcome the paper predicts.  Nothing here imports kqlab, so the program only
ever sees the generated numbers.  The expected values come from the paper's
closed forms, written out again below rather than taken from kqlab, so that
a check never certifies the code it runs.

Parameters are drawn only from the ranges that the README examples and the
scripts under ``scripts/`` use.  The seed moves values inside those ranges
(grid points, sample points, detuning, which tuple of a cost stratum runs)
but not the amount of work, so one run's timings compare with another's.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("curvature-atlas", "balanced-sweep", "oracle-crosscheck")

# Tail percentile of the per-check times, and the fewest timed checks a run
# collects so that at least ten samples lie beyond it.  Each percentile sits
# inside a group of checks of similar cost, not on the edge between groups.
TAIL = {
    "curvature-atlas": (95, 200),
    "balanced-sweep": (75, 40),
    "oracle-crosscheck": (90, 100),
}

# Weight of the interpreted part of the runner's reference work in each
# workload's speed factor (the numpy part has the rest).  A slow host slows
# interpreted code about 1.9x and numpy kernels about 1.45x, so the reference
# mirrors where each workload spends its time: jets and curvature reports in
# the interpreter for the first two, Gram matrices and quadrature in numpy
# for the oracle.  Of the weights 0, 0.25, 0.5, 0.75 and 1, these left the
# normalised pass time least dependent on the host's speed at the seed commit.
MIX = {
    "curvature-atlas": 0.75,
    "balanced-sweep": 0.75,
    "oracle-crosscheck": 0.25,
}

DENSE_POINTS = 2000


# ---------------------------------------------------------------------------
# paper tables


def branch(family: str, A: float, d: int, d0: int, lam: float, domain: str):
    """Constant-coefficient branch 2.10-2.14 as ``(name, A_eff, base_a1, base_a2)``.

    ``base_a1`` and ``base_a2`` are the coefficients the base must carry; the
    fibered metric then has the constant pair ``branch_constants(d + d0, A_eff)``.
    Returns None off the tables.
    """
    n = d + d0
    proj_a1 = -0.5 * d * (d + 1) * lam
    proj_a2 = (d - 1) * d * (d + 1) * (3 * d + 2) * lam ** 2 / 24.0
    if domain == "ball" and family == "logball":
        if d == 1 and lam > 0 and A > 0:
            return "2.10", A, d0 * lam - n * A, 0.0
        if d > 1 and lam > 0 and A == lam:
            return "2.11", lam, proj_a1, proj_a2
    if domain == "fullspace" and family == "linear" and d == 1 and lam > 0:
        return "2.12", 0.0, d0 * lam, 0.0
    if domain == "fullspace" and family == "logaffine":
        if d == 1 and A < 0 and lam >= A:
            return "2.13", A, d0 * lam - n * A, 0.0
        if d > 1 and lam < 0 and A == lam:
            return "2.14", lam, proj_a1, proj_a2
    return None


def branch_constants(n: int, A: float) -> tuple[float, float]:
    """The constant (a1, a2) of an on-branch fibered metric of dimension n."""
    return (-0.5 * n * (n + 1) * A,
            (n - 1) * n * (n + 1) * (3 * n + 2) * A ** 2 / 24.0)


def shifted_product(level: float, shift: float, count: int) -> float:
    out = 1.0
    for j in range(1, count + 1):
        out *= level - j * shift
    return out


def t_of_x(family: str, A: float, c: float, x: float) -> float:
    """Log fiber coordinate t at moment coordinate x = F'(t)."""
    if family == "logball":
        return math.log(A * x / (1.0 + A * x))
    if family == "linear":
        return math.log(x / c)
    v = -A * x
    return math.log(v / (c * (1.0 - v)))


# ---------------------------------------------------------------------------
# curvature-atlas


def _atlas_cells():
    """The cells of scripts/classification_atlas.py that lie on a branch."""
    cells = []
    for lam in (0.5, 1.0, 2.0, -1.0):
        for d, d0 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for family, A, c, domain in (("logball", 0.5, 1.0, "ball"),
                                         ("logball", abs(lam), 1.0, "ball"),
                                         ("linear", 0.0, 1.0, "fullspace"),
                                         ("logaffine", -0.5, 1.0, "fullspace"),
                                         ("logaffine", -abs(lam), 1.0, "fullspace")):
                row = branch(family, A, d, d0, lam, domain)
                if row is not None:
                    cells.append(dict(family=family, A=A, c=c, twist=lam, d=d,
                                      d0=d0, domain=domain, branch=row))
    return cells


def _x_cap(family: str, A: float, lam: float) -> float:
    cap = 2.5
    if lam < 0:
        cap = min(cap, 0.9 / abs(lam))
    if family == "logaffine":
        cap = min(cap, 0.9 / abs(A))
    return cap


def _t_grid(rng: random.Random, cell: dict, count: int) -> list[float]:
    cap = _x_cap(cell["family"], cell["A"], cell["twist"])
    lo, hi = cap / (count + 1), cap * count / (count + 1)
    xs = sorted(rng.uniform(lo, hi) for _ in range(count))
    return [t_of_x(cell["family"], cell["A"], cell["c"], x) for x in xs]


def _classify_check(cell: dict, grid: list[float], a1_base: float, a2_base: float,
                    expect: dict) -> dict:
    model = {k: cell[k] for k in ("family", "A", "c", "twist", "d", "d0", "domain")}
    return {"kind": "classify", "model": model, "a1_base": a1_base,
            "a2_base": a2_base, "grid": grid, "points": len(grid),
            "expect": expect}


def _cli_model_args(cell: dict, a1_base: float, a2_base: float) -> list[str]:
    args = ["--family", cell["family"], "--c", repr(cell["c"]),
            "--lambda", repr(cell["twist"]), "--d", str(cell["d"]),
            "--d0", str(cell["d0"]), "--domain", cell["domain"],
            "--base", "coeffs", "--a1-base", repr(a1_base),
            "--a2-base", repr(a2_base)]
    if cell["family"] != "linear":
        args += ["--A", repr(cell["A"])]
    return args


def _grid_sizes(cells: list[dict]) -> list[int]:
    """Grid sizes 12..24, fixed per cell and spread evenly within each (d, d0).

    The cost of a point depends mostly on (d, d0), so each class covers the
    whole size range and the check times form one continuum with no gap for
    the median to jump across.  The seed moves the grid points, not the work.
    """
    sizes = [0] * len(cells)
    for dims in sorted({(c["d"], c["d0"]) for c in cells}):
        members = [i for i, c in enumerate(cells) if (c["d"], c["d0"]) == dims]
        for j, i in enumerate(members):
            sizes[i] = 12 + round(12 * j / max(1, len(members) - 1))
    return sizes


def curvature_atlas(rng: random.Random) -> list[dict]:
    checks = []
    cells = _atlas_cells()
    for cell, count in zip(cells, _grid_sizes(cells)):
        name, a_eff, a1_base, a2_base = cell["branch"]
        a1, a2 = branch_constants(cell["d"] + cell["d0"], a_eff)
        grid = _t_grid(rng, cell, count)
        checks.append(_classify_check(cell, grid, a1_base, a2_base,
                                      {"constant": True, "branch": name,
                                       "a1": a1, "a2": a2}))
        detune = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2)
        checks.append(_classify_check(cell, grid, a1_base + detune, a2_base,
                                      {"constant": False}))

    # A custom jet rule that rebuilds log-ball: constant, but on no table,
    # since the branch tables list the built-in families only.
    lam = rng.choice((0.5, 1.0, 2.0))
    A = rng.choice((0.5, lam))
    d0 = rng.choice((1, 2))
    cell = dict(family="custom-logball", A=A, c=1.0, twist=lam, d=1, d0=d0,
                domain="ball")
    _, a_eff, a1_base, a2_base = branch("logball", A, 1, d0, lam, "ball")
    a1, a2 = branch_constants(1 + d0, a_eff)
    grid = _t_grid(rng, dict(cell, family="logball"), 18)
    checks.append(_classify_check(cell, grid, a1_base, a2_base,
                                  {"constant": True, "branch": None,
                                   "a1": a1, "a2": a2}))

    # Dense grids through the CLI on log-ball cells with d = 1, d0 = 2, as in
    # the README's first example, so the cost per point does not depend on
    # the seed.
    dense = [c for c in cells if c["family"] == "logball"
             and c["d"] == 1 and c["d0"] == 2]
    for command in ("coeffs", "classify"):
        cell = rng.choice(dense)
        name, a_eff, a1_base, a2_base = cell["branch"]
        a1, a2 = branch_constants(3, a_eff)
        start, stop = rng.uniform(-4.0, -3.0), rng.uniform(-1.0, -0.5)
        argv = ([command] + _cli_model_args(cell, a1_base, a2_base)
                + [f"--grid={start!r}:{stop!r}:{DENSE_POINTS}"])
        expect = {"exit": 0, "verdict": "pass", "rows": DENSE_POINTS}
        if command == "coeffs":
            quantity = rng.choice(("a1", "a2"))
            argv += ["--quantity", quantity]
            expect["mean"] = a1 if quantity == "a1" else a2
        else:
            expect.update(branch=name, a1=a1, a2=a2)
        checks.append({"kind": "cli", "argv": argv, "points": DENSE_POINTS,
                       "expect": expect})
    rng.shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# balanced-sweep

# The 23 ball tuples (k, r, m) of scripts/balanced_sweep.py (k, r <= 3,
# r <= m <= 4, kr > 1), grouped by the number of fiber degrees the moment
# series needs at rho = 0.9 (counted at the seed commit).  One tuple per
# stratum keeps the work per pass nearly fixed, and the p50 and p75 checks
# fall between strata of one series length each.
BALL_STRATA = (
    ((3, 1, 1), (3, 2, 2), (2, 1, 1), (2, 2, 2)),              # 348-374
    ((3, 3, 3), (2, 3, 3), (3, 2, 3)),                         # 386-406
    ((1, 2, 2), (1, 3, 3), (2, 2, 3), (3, 1, 2), (3, 3, 4)),   # 419
    ((2, 3, 4), (3, 2, 4)),                                    # 428-445
    ((1, 3, 4), (2, 1, 2), (2, 2, 4)),                         # 461
    ((1, 2, 3), (3, 1, 3)),                                    # 481
    ((1, 2, 4), (2, 1, 3), (3, 1, 4), (2, 1, 4)),              # 538-609
)


def _rho_grid(rng: random.Random, count: int, top: float) -> list[float]:
    """``count`` sorted points in [0, top], both ends included."""
    inner = sorted(rng.uniform(0.0, top) for _ in range(count - 2))
    return [0.0] + inner + [top]


def balanced_sweep(rng: random.Random) -> list[dict]:
    checks = []
    for stratum in BALL_STRATA:
        k, r, m = rng.choice(stratum)
        A = (k * r - 1) / (k * (r + 1))
        checks.append({"kind": "balanced", "k": k, "r": r, "m": m, "part": "ball",
                       "grid": _rho_grid(rng, 12, 0.9),
                       "expect": {"balanced": True,
                                  "target": shifted_product(m, A, 1 + r)}})
    m = rng.randint(1, 4)
    checks.append({"kind": "balanced", "k": 1, "r": 1, "m": m, "part": "total",
                   "grid": _rho_grid(rng, 12, 0.9),
                   "expect": {"balanced": True, "target": float(m) ** 2}})
    rng.shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# oracle-crosscheck


def _samples(rng: random.Random, count: int) -> list[list[float]]:
    """Oracle sample points (|z|^2, rho) in the README range s <= 3, rho <= 0.7."""
    return [[rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.7)] for _ in range(count)]


def _flat(a1: float = 0.0, a2: float = 0.0, eps=None) -> dict:
    base = {"a1": a1, "a2": a2}
    if eps is not None:
        base["eps"] = eps
    return base


# The four setups of scripts/psi_table.py, as CLI setup documents.
PSI_SETUPS = (
    {"d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 4.0,
     "profile": {"family": "logball", "A": 0.5}, "base": _flat()},
    {"d": 2, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 9.0,
     "profile": {"family": "logball", "A": 1.0}, "base": _flat()},
    {"d": 1, "d0": 1, "twist": 1.0, "domain": "fullspace", "alpha": 2.0,
     "profile": {"family": "linear", "c": 1.0}, "base": _flat()},
    {"d": 2, "d0": 1, "twist": -1.0, "domain": "fullspace", "alpha": 9.0,
     "profile": {"family": "logaffine", "A": -1.0, "c": 1.0}, "base": _flat()},
)


def _projective_setup(alpha: int) -> dict:
    """Branch 2.14 over the projective plane; base Bergman law (a+1)(a+2)."""
    return {"d": 2, "d0": 1, "twist": -1.0, "domain": "fullspace",
            "alpha": float(alpha),
            "profile": {"family": "logaffine", "A": -1.0, "c": 1.0},
            "base": _flat(3.0, 2.0, {"kind": "product", "shift": -1.0, "count": 2})}


def oracle_crosscheck(rng: random.Random) -> list[dict]:
    checks = []
    # Hartogs Gram oracle on the ball part (r = 1) over a fixed ladder of
    # fiber-degree caps Q from 60 to 120.  m <= 2: at m >= 3, Q = 60 leaves a
    # tail above the oracle's 1e-3 tolerance and the oracle rightly refuses.
    for k, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        A = (k - 1) / (2 * k)
        for Q in (60, 80, 100, 120):
            checks.append({"kind": "hartogs", "k": k, "m": m, "part": "ball",
                           "Q": Q, "samples": _samples(rng, 4),
                           "expect": {"target": shifted_product(m, A, 2),
                                      "tol": 1e-3}})
    # The total-space part stops at Q = 100: at this commit Q = 110-120 with
    # 200 nodes overflows the Laguerre weights to NaN (ROADMAP item 5).
    for m in (1, 2, 3, 4):
        for Q in (60, 80, 100):
            checks.append({"kind": "hartogs", "k": 1, "m": m, "part": "total",
                           "Q": Q, "samples": _samples(rng, 4),
                           "expect": {"target": float(m) ** 2, "tol": 1e-3}})
    for _ in range(3):
        k, m = rng.randint(1, 3), rng.randint(1, 5)
        grid = sorted(rng.uniform(0.0, 4.0) for _ in range(6))
        checks.append({"kind": "cp1", "k": k, "m": m, "grid": grid,
                       "expect": {"target": m + 1.0 / k, "tol": 1e-6}})
    pairs = []
    while len(pairs) < 4:
        a = [rng.randrange(5), rng.randrange(4)]
        b = [rng.randrange(5), rng.randrange(4)]
        if a != b:
            pairs.append([a, b])
    checks.append({"kind": "probe", "k": 2, "m": 2, "pairs": pairs,
                   "expect": {"tol": 1e-10}})
    for setup in PSI_SETUPS:
        kmax = 12 if setup["twist"] > 0 else min(12, int(setup["alpha"]))
        checks.append({"kind": "psi_table", "setup": setup, "kmax": kmax,
                       "expect": {"tol": 1e-10}})
    # Level alpha = 9 as in scripts/psi_table.py: the finite series has ten
    # fiber degrees, whatever the seed.
    alpha = 9
    checks.append({"kind": "series", "setup": _projective_setup(alpha),
                   "rho": sorted(rng.uniform(0.0, 0.9) for _ in range(4)),
                   "expect": {"target": shifted_product(alpha, -1.0, 3),
                              "tol": 1e-8}})
    # Generating identities: the README's log-ball example with closed
    # moments, the full-space linear model and the finite projective series
    # with quadrature moments.
    identities = (
        ({"d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 2.0,
          "profile": {"family": "logball", "A": 1.0 / 3.0},
          "base": _flat(1.0, 0.0, {"kind": "affine", "offset": 1.0})}, "closed"),
        ({"d": 1, "d0": 1, "twist": 1.0, "domain": "fullspace", "alpha": 3.0,
          "profile": {"family": "linear", "c": 1.0},
          "base": _flat(1.0, 0.0, {"kind": "affine", "offset": 1.0})}, "quadrature"),
        (_projective_setup(alpha), "quadrature"),
    )
    for setup, method in identities:
        checks.append({"kind": "identity", "setup": setup, "psi_method": method,
                       "grid": _rho_grid(rng, 8, 0.9),
                       "expect": {"tol": 1e-8}})
    rng.shuffle(checks)
    return checks


_GENERATORS = {"curvature-atlas": curvature_atlas, "balanced-sweep": balanced_sweep,
             "oracle-crosscheck": oracle_crosscheck}


def build(workload: str, seed: int) -> list[dict]:
    """The checks of one pass of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
