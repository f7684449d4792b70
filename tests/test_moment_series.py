"""The moment series summed a block of fiber degrees at a time, against the degree loop.

``_loop_series`` is the series one degree at a time, each degree asking the
table for ``ratio(k)``: the form the block series must reproduce bit for bit,
in its terms, its sums, the table's counts and every refusal.
"""

import math
import warnings

import numpy as np
import pytest

from kqlab import bergman
from kqlab.bergman import (MomentTable, QuantizationSetup, balanced_setup, bergman_series,
                           generating_coefficients)
from kqlab.curvature import BaseGeometry, BergmanLaw
from kqlab.errors import (BranchInvalid, KQLabError, PreconditionFailed,
                          QuadratureNonConvergent, SeriesNonConvergent)
from kqlab.profiles import linear, log_affine, log_ball


def _loop_series(s, radii, psi, k_max=10000, count=None):
    """The referee: one Python step per fiber degree."""
    if k_max < 0:
        raise PreconditionFailed(f"series cap k_max must be >= 0, got {k_max}")
    if s.base.eps is None:
        raise PreconditionFailed("setup base carries no Bergman function eps")
    eps, alpha, lam = s.base.eps, s.alpha, s.twist
    top = float(np.abs(radii).max())
    bounded = count is None and lam > 0
    degrees = (range(1, count) if count is not None else
               range(1, k_max + 1) if bounded else s.fiber_degrees(k_max + 1)[1:])
    if count is None and k_max + 1 in degrees:
        raise SeriesNonConvergent(f"admissible fiber degrees run past k_max = {k_max}")
    moment, terms = 1.0, [eps(alpha)]
    total = terms[0]
    for k in degrees:
        moment *= top * psi.ratio(k)
        terms.append(eps(alpha + lam * k) * moment)
        total += terms[-1]
        if not math.isfinite(total):
            raise SeriesNonConvergent(f"series term {k} at rho={top} leaves the float range")
        r = abs(terms[-1] / terms[-2]) if bounded and terms[-2] else math.inf
        if r < 1 and abs(terms[-1]) * r / (1 - r) <= bergman._SERIES_REL_TOL * abs(total):
            break
    else:
        if bounded:
            raise SeriesNonConvergent(
                f"series tail not below {bergman._SERIES_REL_TOL} after {k_max} fiber degrees")
    x = radii / top if top else radii
    return terms, np.reshape([bergman._horner(terms, xi) for xi in x.ravel().tolist()],
                             radii.shape)


def _outcome(series, s, method, nodes, radii, k_max, count, warm):
    """Terms as float.hex, sums as bytes, or the refusal's type and message; and the counts."""
    table = MomentTable(s, method, nodes)
    for k in warm:
        table(k)
    try:
        terms, sums = series(s, np.asarray(radii, dtype=float), table, k_max, count)
        result = [float(t).hex() for t in terms], sums.tobytes()
    except KQLabError as exc:
        result = type(exc), str(exc)
    return result, table.counts()


def _projective(alpha=6.0, c=1.0):
    return QuantizationSetup(1, "fullspace", log_affine(-1.0, c),
                             BaseGeometry.fubini_study_cpd(2), alpha)


def _with_law(s, law):
    return QuantizationSetup(s.d0, s.domain, s.profile, s.base.with_eps(law), s.alpha)


_BALL, _TOTAL = balanced_setup(2, 2, 3, "ball"), balanced_setup(1, 1, 3, "total")
_LAWS = {"shift": BergmanLaw(-0.5), "product": BergmanLaw(-1.0, 3),
         "power": BergmanLaw(count=2, power=True), "callable": lambda a: (a + 1.0) ** 2}

# (setup, method, nodes, radii, k_max, count, warm): both routes, both twists,
# fixed counts, spans below 64, cutting caps and each refusal the series meets
CASES = {
    "ball-quadrature": (_BALL, "quadrature", 64, [0.0, 0.3, 0.9], 10000, None, ()),
    "ball-closed": (_BALL, "closed", 64, [0.0, 0.3, 0.9], 10000, None, ()),
    "ball-quadrature-20-nodes": (_BALL, "quadrature", 20, [0.0, 0.5, 0.8], 10000, None, ()),
    # a table of span 1 holds one moment per block; an odd span cuts blocks at 63, 126, ...
    "ball-quadrature-1-node": (_BALL, "quadrature", 1, [0.0, 0.5], 10000, None, ()),
    "ball-quadrature-63-nodes": (_BALL, "quadrature", 63, [0.0, 0.3, 0.9], 10000, None, ()),
    "ball-count-63-nodes": (_BALL, "quadrature", 63, [1.0], 10000, 130, ()),
    "ball-closed-20-nodes": (_BALL, "closed", 20, [0.8], 10000, None, ()),
    "ball-warm-table": (_BALL, "quadrature", 64, [0.2, 0.7], 10000, None, (5, 70)),
    "ball-k-max-cuts": (_BALL, "quadrature", 64, [0.0, 0.9], 100, None, ()),
    "ball-k-max-cuts-inside-a-block": (_BALL, "closed", 64, [0.9], 130, None, ()),
    "ball-count": (_BALL, "quadrature", 64, [1.0], 10000, 150, ()),
    "ball-count-20-nodes": (_BALL, "quadrature", 20, [1.0], 10000, 47, ()),
    "ball-radius-zero": (_BALL, "quadrature", 64, [0.0], 10000, None, ()),
    "ball-jacobi-weights-refused": (_BALL, "quadrature", 64, [0.0, 0.96], 10000, None, ()),
    "total-quadrature": (_TOTAL, "quadrature", 64, [0.0, 13.5, 27.0], 10000, None, ()),
    "total-quadrature-refused-past-170": (_TOTAL, "quadrature", 64, [0.0, 30.0], 10000, None, ()),
    "total-closed-to-rho-200": (_TOTAL, "closed", 64, [0.0, 100.0, 200.0], 10000, None, ()),
    "total-closed-leaves-the-float-range": (_TOTAL, "closed", 64, [0.0, 240.0], 1000000,
                                            None, ()),
    "total-count-20-nodes": (_TOTAL, "quadrature", 20, [1.0], 10000, 90, ()),
    "total-quadrature-63-nodes": (_TOTAL, "quadrature", 63, [0.0, 13.5, 27.0], 10000, None, ()),
    "projective-closed": (_projective(), "closed", 64, [0.0, 0.5, 0.9], 10000, None, ()),
    "projective-quadrature": (_projective(21.0, 1.5), "quadrature", 64, [0.2, 0.9], 10000,
                              None, ()),
    "projective-quadrature-1-node": (_projective(21.0, 1.5), "quadrature", 1, [0.2, 0.9], 10000,
                                     None, ()),
    "projective-k-max-refused": (_projective(), "quadrature", 64, [0.9], 3, None, ()),
    "projective-count-past-the-spectrum": (_projective(), "closed", 64, [1.0], 10000, 12, ()),
    "projective-count-past-the-spectrum-quadrature": (_projective(), "quadrature", 5, [1.0],
                                                      10000, 12, ()),
    "linear-negative-level": (QuantizationSetup(1, "fullspace", linear(1.0), _TOTAL.base, -1.0),
                              "quadrature", 64, [0.5], 10000, None, ()),
    "window-refused-on-the-closed-route": (
        QuantizationSetup(2, "ball", log_ball(0.5), _BALL.base, 1.0), "closed", 64, [0.5],
        10000, None, ()),
    **{f"law-{name}-{method}": (_with_law(_BALL, law), method, 64, [0.0, 0.6], 10000, None, ())
       for name, law in _LAWS.items() for method in ("closed", "quadrature")},
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_the_block_series_is_the_degree_loop_bit_for_bit(case):
    assert (_outcome(bergman._moment_series, *case) == _outcome(_loop_series, *case))


@pytest.mark.parametrize("case, refusal, counts", [
    ("total-closed-leaves-the-float-range",
     (SeriesNonConvergent, "series term 608 at rho=240.0 leaves the float range"),
     {"gauss_rules": 0, "nodes_per_rule": 0, "fiber_degrees": 608}),
    ("total-quadrature-refused-past-170",
     (QuadratureNonConvergent, "fiber moment psi(alpha, 170) = inf from a 64-node Gauss "
                               "rule is not finite and positive"),
     {"gauss_rules": 3, "nodes_per_rule": 64, "fiber_degrees": 170}),
    ("ball-jacobi-weights-refused",
     (QuadratureNonConvergent, "64-node Gauss rule with weight exponents (2.0, 1089) is "
                               "not finite"),
     {"gauss_rules": 17, "nodes_per_rule": 64, "fiber_degrees": 1088}),
])
def test_the_refusals_the_block_series_meets(case, refusal, counts):
    # the comparison above holds these too; this pins that the cases reach them, and
    # with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(bergman._moment_series, *CASES[case]) == (refusal, counts)


@pytest.mark.parametrize("nodes", [64, 63, 1])
@pytest.mark.parametrize("s", [_BALL, _TOTAL], ids=["ball", "total"])
def test_one_table_serves_two_series_of_different_top_radius(s, nodes):
    # the second series reads the blocks the first filled, and fills the rest
    tops = [0.4, 0.9] if s is _BALL else [9.0, 27.0]
    outcomes = []
    for series in (bergman._moment_series, _loop_series):
        table = MomentTable(s, "quadrature", nodes)
        sums = [series(s, np.linspace(0.0, top, 4), table) for top in tops]
        outcomes.append(([[float(t).hex() for t in terms] for terms, _ in sums],
                         [sum_.tobytes() for _, sum_ in sums], table.counts()))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0][0]) < len(outcomes[0][0][1])


@pytest.mark.parametrize("nodes", [64, 63, 20, 1])
@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_the_series_opens_each_aligned_block_once(method, nodes, monkeypatch):
    # ratio(k) opens k's block and _ratios hands out the rest of it: ratios cut short, or
    # read from another block, would sum alike, but a degree at a time
    opened, ratio = [], MomentTable.ratio
    monkeypatch.setattr(MomentTable, "ratio", lambda table, k: opened.append(k) or ratio(table, k))
    table = MomentTable(_BALL, method, nodes)
    terms, _ = bergman._moment_series(_BALL, np.array([0.0, 0.9]), table)
    span = min(64, nodes)
    assert opened == [k for k in range(1, len(terms)) if k == 1 or k % span == 0]


def _log_affine(twist, alpha):
    return QuantizationSetup(1, "fullspace", log_affine(-1.0, 1.0),
                             BaseGeometry.flat(1, twist=twist), alpha)


@pytest.mark.parametrize("nodes", [64, 63, 1])
@pytest.mark.parametrize("s", [_log_affine(-0.5, 30.0), _projective(21.0, 1.5)],
                         ids=["half-twist", "projective"])
def test_a_moment_is_the_same_whatever_was_asked_before(s, nodes):
    # at twist -1/2 only degree 0 is in the spectrum: a Gauss block clipped there ended at
    # the degree asked, and psi(3) = 0x1.f3e0984e6e681p-18 read ...683p-18 once psi(5) had
    # refilled its block
    table = MomentTable(s, "quadrature", nodes)
    before = table(3).hex()
    table(5)
    assert table(3).hex() == before == MomentTable(s, "quadrature", nodes)(3).hex()


def test_a_level_off_the_spectrum_is_refused_by_the_series_alone():
    # alpha = 9.5 at twist -1 is no natural number: the Gauss route refused psi(2) with
    # BranchInvalid, where psi_moment handed it out
    s = _log_affine(-1.0, 9.5)
    table = MomentTable(s, "quadrature")
    for k in range(4):
        assert table(k) == pytest.approx(bergman._psi_adaptive(s, k), rel=1e-11, abs=0.0)
        assert table(k) == pytest.approx(bergman.psi_moment(s, k, "quadrature"), rel=1e-13)
    with pytest.raises(BranchInvalid, match="^level alpha=9.5 not in the spectrum$"):
        bergman_series(_with_law(s, BergmanLaw(-1.0)), 0.5, psi_method="quadrature")


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_generating_coefficients_are_the_degree_loop(method):
    s = _projective(21.0, 1.5)
    for count in (1, 2, 22):
        loop, _ = _loop_series(s, np.ones(1), MomentTable(s, method), count=count)
        assert generating_coefficients(s, count, method) == [d / loop[0] for d in loop]


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_generating_coefficients_are_k_count_of_them(method):
    # count 0 gave [1.0], as a negative count did, where it asks for no coefficient
    s = _projective(21.0, 1.5)
    assert generating_coefficients(s, 0, method) == []
    assert [len(generating_coefficients(s, count, method)) for count in (1, 2, 22)] == [1, 2, 22]
    for count in (-1, -3, 2.5, 2.0, None):
        with pytest.raises(PreconditionFailed,
                           match=f"^coefficient count k_count must be an integer >= 0, "
                                 f"got {count!r}$"):
            generating_coefficients(s, count, method)


@pytest.mark.parametrize("d0, k0", [(1, 0), (3, 64), (8, 128), (20, 0)])
def test_block_gamma_factors_are_the_integer_products_bit_for_bit(d0, k0):
    # (k+1)...(k+d0-1) passes 2**53 within the last two blocks, and is rounded
    # once from its integer value there, as a float divided by an int is
    s = QuantizationSetup(d0, "ball", log_ball(0.5), _BALL.base, 2.0 * (d0 + 2))
    k1 = k0 + 63
    j = np.arange(64)[:, None]
    ws, u, log_weight, leftover, scales = bergman._MODELS["ball", "logball"].gauss(
        s, k0, k1, 64, j)
    log_g = bergman._log_density_H(s, u) - log_weight
    with np.errstate(over="ignore", invalid="ignore"):
        integrals = ((leftover * np.exp(log_g)) @ ws).tolist()
    want = [scales * integral / math.prod(range(k + 1, k + d0))
            for k, integral in zip(range(k0, k1 + 1), integrals)]
    assert bergman._psi_quadrature_block(s, k0, k1, 64).tolist() == want


@pytest.mark.parametrize("name", ["shift", "product", "power"])
def test_a_bergman_law_on_an_array_is_its_levels_one_at_a_time(name):
    law = _LAWS[name]
    levels = np.array([-3.0, -1.0, 0.0, 0.1, 1.0 / 3.0, 2.5, 7.0, 1e5, 1e100])
    assert law(levels).tobytes() == np.array([law(a) for a in levels.tolist()]).tobytes()


def test_a_power_law_term_past_the_float_range_is_refused():
    # 6^400 leaves the float range at degree 2, where the degree loop raised a
    # bare OverflowError (and `kq bergman` exited 1 with a traceback)
    base = BaseGeometry.from_coefficients(1, 1.0, 0.5, 0.0, eps=BergmanLaw(count=400, power=True))
    s = QuantizationSetup(2, "ball", log_ball(0.5), base, 4.0)
    with pytest.raises(SeriesNonConvergent, match="^series term 2 at rho=0.9 leaves the float"):
        bergman_series(s, [0.0, 0.9])


def test_a_power_law_past_the_float_range_is_inf_on_an_array():
    # a level alone is inf, as on an array, and a series sum past the float
    # range is refused as SeriesNonConvergent
    law = _LAWS["power"]
    assert law(1e160) == math.inf
    assert law(np.array([2.0, 1e160])).tolist() == [4.0, math.inf]


# at A = 1e-160 the smooth part g = H/weight of the density is about A^-2 at every
# node, so the block gives psi(alpha, 0) = inf
_DENSITY_PAST_FLOATS = QuantizationSetup(
    1, "ball", log_ball(1e-160),
    BaseGeometry.from_coefficients(1, 1.0, 0.5, 0.0, eps=BergmanLaw(-0.5)), 1e-158)


_SCALE_PAST_FLOATS = QuantizationSetup(
    1, "fullspace", linear(1e-3), BaseGeometry.from_coefficients(1, 1.0, 0.0, 0.0), 1.0)


def _table_to(s, k):
    table = MomentTable(s, "quadrature")
    return [table(j) for j in range(k + 1)]


# the block refusals met outside the series cases above: the call, and the moment refused
_BLOCK_REFUSALS = {
    "density-past-the-float-range": (
        lambda: bergman_series(_DENSITY_PAST_FLOATS, [0.0, 0.5], "quadrature"), 0),
    "scale-past-the-float-range": (lambda: _table_to(_SCALE_PAST_FLOATS, 70), 70),
}


@pytest.mark.parametrize("call, k", _BLOCK_REFUSALS.values(), ids=_BLOCK_REFUSALS.keys())
def test_a_block_refusal_raises_no_floating_point_warning(call, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNonConvergent, match=f"^fiber moment psi\\(alpha, {k}\\) = "
                           "inf from a 64-node Gauss rule is not finite and positive$"):
            call()
