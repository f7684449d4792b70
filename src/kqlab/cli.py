"""Command-line frontend: setup parsing, experiment orchestration, reports.

Every subcommand writes one machine-readable report (JSON by default, CSV
rows on request) with deterministic serialization: keys sorted, floats at 15
significant digits, rows in input order.  Identical inputs therefore produce
byte-identical reports; wall time goes to stderr only.  A ``cmd_*`` function
computes its report's setup, points, values and the summary fields it computes;
``main`` builds the rows and every summary's ``target`` and ``branch`` (None
unless computed), writes the report by ``render_report``, as ``_write_error``
and the scripts do, times it and maps the summary's verdict to the exit code.

Exit codes: 0 pass, 1 fail verdict, 2 invalid input or branch, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from . import bergman, curvature, oracle, profiles
from .errors import (BranchInvalid, EmptyGrid, KQLabError, PreconditionFailed,
                     QuadratureNonConvergent, SeriesNonConvergent, TruncationInsufficient)

SCHEMA_VERSION = 1

_NONCONVERGENT = (QuadratureNonConvergent, SeriesNonConvergent,
                  TruncationInsufficient)
_ERRORS = (KQLabError, ValueError)    # every typed error, and bad values


# ---------------------------------------------------------------------------
# deterministic serialization


_encode = json.encoder.encode_basestring_ascii     # json.dumps(str) without its set-up


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".15g")
    return '"nan"' if math.isnan(x) else '"inf"' if x > 0 else '"-inf"'


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"cannot serialize the key {k!r}: JSON keys are strings")
    return _encode(k)


def _rows(obj) -> Optional[str]:
    """A list of dicts on one key set, every value a finite float, in one %
    format ('%.15g' % x is format(x, ".15g")); None for any other list."""
    if set(map(type, obj)) != {dict}:
        return None
    keys = sorted(obj[0])
    if set(map(len, obj)) != {len(keys)}:
        return None
    try:
        values = tuple([row[k] for row in obj for k in keys])
    except KeyError:        # a row on another key set of the same size
        return None
    if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
        return None
    row = "{" + ",".join(_key(k).replace("%", "%%") + ":%.15g" for k in keys) + "}"
    return "[" + ",".join([row] * len(obj)) % values + "]"


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 15 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return _encode(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([f"{_key(k)}:{render_json(obj[k])}" for k in sorted(obj)]) + "}"
    if isinstance(obj, (list, tuple)):
        return _rows(obj) or "[" + ",".join([render_json(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _point_str(point) -> str:
    if isinstance(point, (list, tuple)):
        return ";".join(format(float(p), ".15g") for p in point)
    return format(float(point), ".15g")


def render_csv(rows: Sequence[dict]) -> str:
    lines = ["point,value"]
    for row in rows:
        lines.append(f"{_point_str(row['point'])},{format(float(row['value']), '.15g')}")
    return "\n".join(lines) + "\n"


def parse_grid(spec: str) -> list[float]:
    """Grid syntax start:stop:count, with finite endpoints."""
    parts = spec.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise PreconditionFailed(f"grid must be start:stop:count, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise PreconditionFailed(f"grid endpoints must be finite, got {spec!r}")
    if count < 1:
        raise PreconditionFailed(f"grid count must be >= 1, got {spec!r}")
    return [float(x) for x in np.linspace(start, stop, count)]


def parse_samples(spec: str) -> list[tuple[float, float]]:
    """Oracle sample points s,rho;s,rho;... with finite coordinates."""
    samples = []
    for chunk in spec.split(";"):
        try:
            a, b = chunk.split(",")
            point = (float(a), float(b))
        except ValueError:
            raise PreconditionFailed(
                f"--samples must be s,rho pairs separated by ';', got {spec!r}") from None
        if not all(map(math.isfinite, point)):
            raise PreconditionFailed(f"--samples coordinates must be finite, got {spec!r}")
        samples.append(point)
    return samples


# ---------------------------------------------------------------------------
# setup (de)serialization

_REQUIRED = object()


def _field(d: dict, key: str, conv: Callable = float, default=_REQUIRED):
    """``conv(d[key])``, or ``default`` if the key is absent; typed errors name the key."""
    if key not in d:
        if default is _REQUIRED:
            raise PreconditionFailed(f"setup document needs the field {key!r}")
        return default
    try:
        return conv(d[key])
    except (TypeError, ValueError):
        raise PreconditionFailed(f"setup field {key!r} has the invalid value {d[key]!r}") from None


def _whole(value) -> int:
    """An integer field: int() would read 2.5 as 2 and true as 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError
    return value


def _known(d: dict, where: str, *keys: str) -> None:
    """Refuse a field of ``d`` that is not one of ``keys``: it would be echoed, not read."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise PreconditionFailed(f"{where} reads no field {', '.join(map(repr, unknown))}; "
                                 f"it reads {', '.join(keys)}")


def _one_of(*options: str) -> Callable:
    def conv(value):
        if value not in options:
            raise ValueError
        return value
    return conv


def profile_from_dict(d: dict) -> profiles.RadialProfile:
    _known(d, "the profile", "family", "A", "c")
    return profiles.from_params(_field(d, "family", _one_of(*profiles.FAMILIES)),
                                _field(d, "A", float, None), _field(d, "c", float, 1.0))


def profile_to_dict(p: profiles.RadialProfile) -> dict:
    return {"family": p.family, **p.params()}


_EPS_FIELDS = {"affine": ("offset",), "product": ("shift", "count"), "power": ("exponent",)}
# the fields of a base beside "preset" and "eps", by preset (None: explicit a1, a2)
_BASE_FIELDS = {None: ("a1", "a2"), "branch": ("a1", "a2"), "cp1": ("k",), "cpd": (), "flat": ()}


def _eps_from_dict(d: dict) -> curvature.BergmanLaw:
    kind = _field(d, "kind", _one_of("affine", "product", "power"))
    _known(d, f"eps {kind}", "kind", *_EPS_FIELDS[kind])
    if kind == "affine":    # alpha + offset, as a product of one factor
        return curvature.BergmanLaw(-_field(d, "offset"))
    if kind == "product":
        return curvature.BergmanLaw(_field(d, "shift"), _field(d, "count", _whole))
    return curvature.BergmanLaw(count=_field(d, "exponent", _whole), power=True)


def _base_from_dict(d: dict, p: profiles.RadialProfile, dim: int, d0: int, twist: float,
                    law: bool) -> tuple[curvature.BaseGeometry, dict]:
    """The base of a setup document, and its ``"base"`` with what was filled in.

    ``"branch"`` fills in ``curvature.required_base`` as ``"a1"`` and ``"a2"``.
    A base with no Bergman law of its own reads ``"eps"``; with ``law``, an
    absent one is the required base's: alpha + a1 for d = 1, else
    prod_j (alpha - j*twist).
    """
    preset = _field(d, "preset", _one_of("branch", "cp1", "cpd", "flat"), None)
    _known(d, f"base {preset}" if preset else "the base", "preset", "eps", *_BASE_FIELDS[preset])
    if preset == "cp1":
        base = curvature.BaseGeometry.fubini_study_cp1(_field(d, "k", _whole, 1), twist)
    elif preset == "cpd":
        base = curvature.BaseGeometry.fubini_study_cpd(dim, twist)
    elif preset == "flat":
        base = curvature.BaseGeometry.flat(dim, twist)
    else:
        a1, a2 = (curvature.required_base(p, dim, d0, twist) if preset == "branch"
                  else (_field(d, "a1"), _field(d, "a2")))
        base = curvature.BaseGeometry.from_coefficients(dim, twist, a1, a2)
        # a stated value echoes a report at 15 digits, maybe of a model given with
        # more; the rounding of a2 grows as a1^2
        for key, scale in (("a1", 1.0 + abs(base.a1)), ("a2", 1.0 + base.a1 ** 2)):
            if preset == "branch" and key in d and not (
                    abs(_field(d, key) - getattr(base, key)) <= 1e-13 * scale):
                raise PreconditionFailed(f"setup field {key!r} is {d[key]!r}, but the "
                                         f"branch base has {getattr(base, key)!r}")
        d = dict(d, a1=base.a1, a2=base.a2)
    if base.eps is not None and "eps" in d:
        raise PreconditionFailed(f"setup field 'eps' is refused: {preset!r} has its own law")
    if base.eps is None and law and "eps" not in d:
        d = dict(d, eps={"kind": "affine", "offset": base.a1} if dim == 1
                 else {"kind": "product", "shift": twist, "count": dim})
    if "eps" in d:
        base = base.with_eps(_eps_from_dict(_field(d, "eps", _object)))
    return base, d


def _read_model(d: dict, law: bool = False) -> tuple[profiles.RadialProfile,
                                                    curvature.BaseGeometry, dict]:
    """The profile and base of a setup document, and the document as read."""
    if not isinstance(d, dict):
        raise PreconditionFailed(f"a setup document must be a JSON object, got {d!r}")
    _known(d, "the setup", "d", "d0", "twist", "domain", "profile", "base", "alpha")
    dim = _field(d, "d", _whole)
    twist = _field(d, "twist", float, 1.0)
    d0 = _field(d, "d0", _whole)
    domain = _field(d, "domain", _one_of("ball", "fullspace"))
    p = profile_from_dict(_field(d, "profile", _object))
    base, bdoc = _base_from_dict(_field(d, "base", _object), p, dim, d0, twist, law)
    if base.d != dim:     # a preset of fixed dimension: "cp1"
        raise PreconditionFailed(f"setup field 'd' is {dim}, but the base {bdoc['preset']!r} "
                                 f"has dimension {base.d}")
    return p, base, {"d": dim, "d0": d0, "twist": twist, "domain": domain,
                     "profile": profile_to_dict(p), "base": bdoc}


def _read_setup(d: dict, law: bool = False) -> tuple[bergman.QuantizationSetup, dict]:
    """The setup of a document, and the document as read, with what was filled in."""
    p, base, echo = _read_model(d, law)
    echo["alpha"] = _field(d, "alpha")
    return bergman.QuantizationSetup(echo["d0"], echo["domain"], p, base, echo["alpha"]), echo


def setup_from_dict(d: dict) -> bergman.QuantizationSetup:
    """The setup of a JSON document; a missing or malformed field is PreconditionFailed."""
    return _read_setup(d)[0]


# ---------------------------------------------------------------------------
# report assembly


_EXIT = {"pass": 0, "fail": 1, "inconclusive": 0}


def render_report(doc: dict) -> str:
    """A report or error document as written: ``doc``'s fields and the schema
    version, as deterministic JSON with one trailing newline."""
    return render_json({"schema_version": SCHEMA_VERSION, **doc}) + "\n"


def report_file(path: Optional[str]):
    """The file a report is written to: ``path``, or stdout (left open) if None."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# shared argument plumbing


def _add_common(sp: argparse.ArgumentParser, tol: Optional[float] = None,
                max_k: bool = False, quad_nodes: Optional[int] = None) -> None:
    """The report options, and of --tol, --max-k and --quad-nodes those given here."""
    if tol is not None:
        sp.add_argument("--tol", type=float, default=tol, help="verdict tolerance")
    if max_k:
        sp.add_argument("--max-k", type=int, default=10000, help="series truncation cap")
    if quad_nodes is not None:
        sp.add_argument("--quad-nodes", type=int, default=quad_nodes,
                        help="quadrature nodes per Gauss rule (per axis for the oracles)")
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the report to PATH")


class _ModelFlag(argparse.Action):
    """Store a model option and note that it was given, even at its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.model_flags = (*namespace.model_flags, self.option_strings[0])


def _add_model(sp: argparse.ArgumentParser, alpha: Optional[float] = None) -> None:
    """The model flags; with a default ``alpha`` also --alpha and --setup, which refuses them."""
    families = tuple(profiles.FAMILIES)
    sp.set_defaults(model_flags=())
    add = functools.partial(sp.add_argument, action=_ModelFlag)
    add("--family", choices=families, default=families[0])
    add("--A", type=float, default=None, help="momentum-profile curvature parameter")
    add("--c", type=float, default=1.0, help="profile scale parameter")
    add("--lambda", dest="twist", type=float, default=1.0, help="twist of the fibration")
    add("--d", type=int, default=1, help="base dimension")
    add("--d0", type=int, default=1, help="fiber dimension")
    add("--domain", choices=("ball", "fullspace"), default="ball")
    add("--base", choices=("branch", "cp1", "cpd", "flat", "coeffs"),
        default="branch", help="base geometry preset")
    add("--base-k", type=int, default=1, help="degree for the cp1 preset")
    add("--a1-base", type=float, default=0.0)
    add("--a2-base", type=float, default=0.0)
    if alpha is not None:
        add("--alpha", type=float, default=alpha)
        sp.add_argument("--setup", default=None, help="JSON setup document")


def _document(args) -> dict:
    """The ``--setup`` document, or the one the model flags write."""
    if getattr(args, "setup", None):
        if args.model_flags:
            raise PreconditionFailed("--setup reads the model from its document; refused "
                                     "model flags: " + ", ".join(dict.fromkeys(args.model_flags)))
        try:
            with open(args.setup) as fh:
                return json.load(fh)
        except OSError as exc:
            raise PreconditionFailed(f"cannot read --setup {args.setup!r}: {exc.strerror}") from None
    reads = {"cp1": {"--base-k"}, "coeffs": {"--a1-base", "--a2-base"}}
    unread = set(args.model_flags) & (set().union(*reads.values()) - reads.get(args.base, set()))
    if unread:
        raise PreconditionFailed(f"--base {args.base} does not read {', '.join(sorted(unread))}")
    base = ({"a1": args.a1_base, "a2": args.a2_base} if args.base == "coeffs" else
            {"preset": args.base, **({"k": args.base_k} if args.base == "cp1" else {})})
    doc = {"d": args.d, "d0": args.d0, "twist": args.twist, "domain": args.domain,
           "profile": {"family": args.family, "c": args.c,
                       **({} if args.A is None else {"A": args.A})},
           "base": base}
    if "alpha" in vars(args):
        doc["alpha"] = args.alpha
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _curvature_model(args):
    """Profile, base, t-grid and report setup of ``coeffs`` and ``classify``."""
    p, base, setup = _read_model(_document(args))
    return p, base, parse_grid(args.grid), dict(setup, grid=args.grid)


def cmd_coeffs(args) -> tuple[dict, Sequence, Sequence, dict]:
    p, base, grid, setup = _curvature_model(args)
    fields = curvature._evaluate(base, p, args.d0, grid, [args.quantity])
    values = fields[args.quantity].tolist()
    mean, dev = curvature._spread(values)
    summary = {"verdict": "pass", "max_deviation": dev, "quantity": args.quantity,
               "mean": mean, "jet_order": curvature.REPORT_ORDER, "points": len(grid)}
    return setup, grid, values, summary


def cmd_classify(args) -> tuple[dict, Sequence, Sequence, dict]:
    p, base, grid, setup = _curvature_model(args)
    fields, verdict = curvature._classify(base, p, args.d0, args.domain, grid, args.tol)
    summary = {
        "verdict": "pass" if verdict.constant else "fail",
        "max_deviation": verdict.max_deviation,
        "branch": verdict.matched_branch,
        "a1": verdict.a1_value,
        "a2": verdict.a2_value,
        "ricci_constant": verdict.ricci_constant,
        "jet_order": curvature.REPORT_ORDER,
        "points": len(grid),
    }
    return setup, grid, fields["a1"].tolist(), summary


def cmd_psi(args) -> tuple[dict, Sequence, Sequence, dict]:
    s, echo = _read_setup(_document(args))
    if args.table_k < 0:
        raise EmptyGrid(f"psi table up to k = {args.table_k} has no rows")
    degrees, values = range(args.table_k + 1), []
    worst = 0.0
    table = bergman.MomentTable(s) if args.method != "quadrature" else None
    quad_table = bergman._per_degree(s, "quadrature", args.quad_nodes)    # as psi_moment's
    for k in degrees:
        closed = table(k) if table else None
        quad = quad_table(k) if args.method != "closed" else None
        if args.method == "both":
            worst = max(worst, abs(quad - closed) / abs(closed))
        values.append(quad if closed is None else closed)
    verdict = "pass" if (args.method != "both" or worst <= args.tol) else "fail"
    summary = {"verdict": verdict, "max_deviation": worst, "method": args.method,
               **{key: n for key, n in quad_table.counts().items() if key != "fiber_degrees"}}
    return echo, degrees, values, summary


def cmd_bergman(args) -> tuple[dict, Sequence, Sequence, dict]:
    s, echo = _read_setup(_document(args), law=True)
    grid = parse_grid(args.grid)
    table = bergman.MomentTable(s, args.psi_method, args.quad_nodes)
    values = bergman.bergman_series(s, grid, psi=table, k_max=args.max_k)
    branch = target = None
    with contextlib.suppress(BranchInvalid):   # no target off the branch or its base
        target = bergman.closed_target(s)
        branch = curvature._branch(s.profile, s.d, s.twist, s.domain)[0]
    if target is not None:
        dev = max(abs(v - target) for v in values) / (1.0 + abs(target))
        verdict = "pass" if dev <= args.tol else "fail"
    else:
        _, dev = curvature._spread(values)
        verdict = "inconclusive"
    summary = {"verdict": verdict, "max_deviation": dev, "target": target,
               "psi_method": args.psi_method, "branch": branch,
               **table.counts()}
    return echo, grid, values, summary


def cmd_identity(args) -> tuple[dict, Sequence, Sequence, dict]:
    s, echo = _read_setup(_document(args), law=True)
    grid = parse_grid(args.grid)
    rep = bergman.generating_identity_check(s, grid, psi_method=args.psi_method,
                                            nodes=args.quad_nodes, k_max=args.max_k)
    verdict = "pass" if rep.max_deviation <= args.tol else "fail"
    summary = {"verdict": verdict, "max_deviation": rep.max_deviation,
               "psi_method": args.psi_method}
    return echo, grid, [lhs for _, lhs, _ in rep.rows], summary


def cmd_balanced(args) -> tuple[dict, Sequence, Sequence, dict]:
    grid = parse_grid(args.grid)
    cert = bergman.balanced_certify(args.k, args.r, args.m, part=args.part,
                                    rho_grid=grid, c=args.c,
                                    psi_method=args.psi_method,
                                    nodes=args.quad_nodes, tol=args.tol)
    verdict = "pass" if cert.balanced else "fail"
    summary = {"verdict": verdict,
               "max_deviation": max(cert.max_spread, cert.max_error),
               "target": cert.target, "value": sum(cert.values) / len(cert.values),
               "A": cert.A, "mu": cert.mu,
               "base_identity_gap": cert.base_identity_gap,
               "gauss_rules": cert.gauss_rules, "nodes_per_rule": cert.nodes_per_rule,
               "fiber_degrees": cert.fiber_degrees}
    setup = {"part": args.part, "k": args.k, "r": args.r, "m": args.m, "c": args.c,
             "grid": args.grid, "psi_method": args.psi_method}
    return setup, cert.grid, cert.values, summary


def cmd_oracle_cp1(args) -> tuple[dict, Sequence, Sequence, dict]:
    grid = parse_grid(args.grid)
    rep = oracle.cp1_bergman_oracle(args.k, args.m, grid, nodes=args.quad_nodes)
    verdict = "pass" if rep.max_abs_error <= args.tol else "fail"
    summary = {"verdict": verdict, "max_deviation": rep.max_abs_error,
               "target": rep.target, "nodes_per_rule": args.quad_nodes}
    setup = {"k": args.k, "m": args.m, "grid": args.grid}
    return setup, rep.grid, rep.values, summary


def cmd_oracle_hartogs(args) -> tuple[dict, Sequence, Sequence, dict]:
    samples = parse_samples(args.samples)
    cfg = oracle.GramOracleConfig(bundle_degree=args.k, power=args.m,
                                  q_cap=args.Q, s_nodes=args.quad_nodes,
                                  sample_points=tuple(samples))
    # the Gram oracle covers rank r = 1 only
    model = bergman.balanced_setup(args.k, 1, args.m, part=args.part, c=args.c)
    rep = oracle.hartogs_gram_oracle(cfg, model)
    verdict = "pass" if (rep.max_abs_error is not None
                         and rep.max_abs_error <= args.tol) else "fail"
    summary = {"verdict": verdict, "max_deviation": rep.max_abs_error,
               "target": rep.target, "tail_fraction": rep.tail_fraction,
               "basis_size": rep.basis_size, "nodes_per_rule": args.quad_nodes}   # per axis
    setup = {"part": args.part, "k": args.k, "r": 1, "m": args.m,
             "c": args.c, "Q": rep.q_cap, "P": rep.p_cap}
    return setup, rep.samples, rep.values, summary


# ---------------------------------------------------------------------------


@functools.cache     # one parser per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kq",
        description="Bergman functions and balanced metrics of radial fibrations")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="expansion coefficients over a t-grid")
    _add_model(sp)
    sp.add_argument("--grid", default="-4:-0.5:16", help="t-grid start:stop:count")
    sp.add_argument("--quantity", default="a1",
                    choices=("a1", "a2", "scalar", "ric2", "lapk", "riem2"))
    _add_common(sp)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("classify", help="constant-coefficient classification check")
    _add_model(sp)
    sp.add_argument("--grid", default="-4:-0.5:16")
    _add_common(sp, tol=1e-8)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("psi", help="fiber moments by closed form and quadrature")
    _add_model(sp, alpha=4.0)
    sp.add_argument("--table-k", type=int, default=12)
    sp.add_argument("--method", choices=("closed", "quadrature", "both"),
                    default="both")
    _add_common(sp, tol=1e-10, quad_nodes=64)
    sp.set_defaults(fn=cmd_psi)

    for name, fn, help_ in (
            ("bergman", cmd_bergman, "Bergman function over a fiber-radius grid"),
            ("identity", cmd_identity, "generating-function identity check")):
        sp = sub.add_parser(name, help=help_)
        _add_model(sp, alpha=2.0)
        sp.add_argument("--grid", default="0:0.9:10")
        sp.add_argument("--psi-method", choices=("closed", "quadrature"),
                        default="closed")
        _add_common(sp, tol=1e-8, max_k=True, quad_nodes=64)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("balanced", help="certify the balanced bundle metrics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--part", choices=("ball", "total"), default="ball")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--grid", default="0:0.9:10")
    sp.add_argument("--psi-method", choices=("closed", "quadrature"),
                    default="quadrature")
    _add_common(sp, tol=1e-8, quad_nodes=64)
    sp.set_defaults(fn=cmd_balanced)

    sp = sub.add_parser("oracle-cp1", help="sphere-chart Gram oracle")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--grid", default="0:3:7", help="|z|^2 grid")
    _add_common(sp, tol=1e-6, quad_nodes=200)
    sp.set_defaults(fn=cmd_oracle_cp1)

    sp = sub.add_parser("oracle-hartogs", help="fibered-model Gram oracle")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--part", choices=("ball", "total"), default="ball")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--Q", type=int, default=40, help="fiber-degree cap")
    sp.add_argument("--samples", default="0,0;0.5,0.3;1,0.5;2,0.7",
                    help="semicolon-separated s,rho sample points")
    _add_common(sp, tol=1e-3, quad_nodes=200)
    sp.set_defaults(fn=cmd_oracle_hartogs)

    return ap


def _check_options(args: argparse.Namespace) -> None:
    """Refuse a --quad-nodes or --tol no command could use, before any work is done."""
    nodes = getattr(args, "quad_nodes", 1)
    if nodes < 1:
        raise PreconditionFailed(f"--quad-nodes must be >= 1, got {nodes}")
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise PreconditionFailed(f"--tol must be finite and >= 0, got {tol}")


def _attach_grid_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--grid -4:-0.5:16`` as ``--grid=-4:-0.5:16``.

    argparse reads a value with a leading minus sign as an option, so a
    negative grid given as a separate word would be rejected.
    """
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--grid" and re.match(r"-[\d.]", word):
            out[-1] = "--grid=" + word
        else:
            out.append(word)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand: write its report, time it, and exit by its verdict."""
    ap = build_parser()
    args = ap.parse_args(_attach_grid_values(sys.argv[1:] if argv is None else argv))
    t0 = time.perf_counter()
    try:    # before any work: an unwritable --out would discard it
        out = report_file(args.out)
    except OSError as exc:
        return _write_error(sys.stdout, 2, PreconditionFailed(
            f"cannot write the report to {args.out!r}: {exc.strerror}"))
    with out as fh:
        try:
            _check_options(args)
            setup, points, values, summary = args.fn(args)
        except _ERRORS as exc:
            return _write_error(fh, 3 if isinstance(exc, _NONCONVERGENT) else 2, exc)
        rows = [{"point": p, "value": v} for p, v in zip(points, values)]
        summary = {"target": None, "branch": None, **summary}
        fh.write(render_csv(rows) if args.output == "csv" else
                 render_report({"setup": setup, "rows": rows, "summary": summary}))
    print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return _EXIT[summary["verdict"]]


def _write_error(fh, code: int, exc: Exception) -> int:
    fh.write(render_report({"error": {"type": type(exc).__name__, "message": str(exc)}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
