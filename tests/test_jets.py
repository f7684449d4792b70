import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqlab import jets
from kqlab.errors import (DivisionByZeroJet, LogDomain, OrderExceeded,
                          OrderMismatch, PreconditionFailed)
from kqlab.jets import TaylorJet

from fd_oracle import fd_derivative, mp_profile


def test_exp_of_identity_jet():
    e = jets.exp(TaylorJet.variable(0.0))
    expected = [1 / math.factorial(n) for n in range(9)]
    assert e.coeffs == pytest.approx(expected, abs=1e-15)


def test_binomial_square():
    one_plus_t = 1.0 + TaylorJet.variable(0.0)
    sq = one_plus_t * one_plus_t
    assert sq.coeffs == pytest.approx([1.0, 2.0, 1.0] + [0.0] * 6, abs=0)


def test_logball_jet_value_and_slope():
    # F(t) = -log(1 - e^t) at t0 = log(1/2): F = log 2, F' = 1
    t0 = math.log(0.5)
    f = -jets.log(1.0 - jets.exp(TaylorJet.variable(t0)))
    assert f.derivative(0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert f.derivative(1) == pytest.approx(1.0, rel=1e-14)
    assert f.derivative(2) == pytest.approx(2.0, rel=1e-14)
    # cross-check against central finite differences
    g = mp_profile("logball", A=1.0)
    for n in (1, 2, 3):
        assert f.derivative(n) == pytest.approx(fd_derivative(g, t0, n), rel=1e-9)


def test_derivative_extraction():
    e = jets.exp(TaylorJet.variable(0.0))
    assert e.derivative(3) == pytest.approx(1.0, rel=1e-14)
    sq = (1.0 + TaylorJet.variable(0.0)) ** 2
    assert sq.derivative(2) == pytest.approx(2.0, abs=0)
    with pytest.raises(OrderExceeded):
        e.derivative(9)


def test_error_conditions():
    a = TaylorJet.variable(1.0, order=4)
    with pytest.raises(OrderMismatch):
        _ = a + TaylorJet.variable(1.0, order=6)
    with pytest.raises(DivisionByZeroJet):
        _ = a / TaylorJet.variable(0.0, order=4)
    with pytest.raises(LogDomain):
        jets.log(TaylorJet.variable(0.0, order=4))
    with pytest.raises(LogDomain):
        jets.log(TaylorJet.variable(-2.0, order=4))


# mild coefficients keep the composition recurrences well conditioned, so
# round-off stays near machine precision instead of being amplified
coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def small_jets(draw, positive=False, order=8):
    head = draw(st.floats(min_value=0.5, max_value=3.0)) if positive else \
        draw(st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 0.5))
    tail = draw(st.lists(coeff, min_size=order, max_size=order))
    return TaylorJet((head, *tail))


@given(small_jets(positive=True))
@settings(max_examples=80, deadline=None)
def test_exp_log_roundtrip(a):
    back = jets.exp(jets.log(a))
    assert back.coeffs == pytest.approx(a.coeffs, rel=1e-12, abs=1e-12)


@given(small_jets())
@settings(max_examples=80, deadline=None)
def test_log_exp_roundtrip(a):
    back = jets.log(jets.exp(a))
    assert back.coeffs == pytest.approx(a.coeffs, rel=1e-12, abs=1e-12)


@given(small_jets(), small_jets())
@settings(max_examples=80, deadline=None)
def test_mul_div_roundtrip(a, b):
    back = (a * b) / b
    assert len(back.coeffs) == len(a.coeffs)
    assert back.coeffs == pytest.approx(a.coeffs, rel=1e-9, abs=1e-9)


@given(small_jets(), small_jets())
@settings(max_examples=50, deadline=None)
def test_arithmetic_preserves_length_and_value(a, b):
    for out in (a + b, a - b, a * b, jets.exp(a), a ** 3):
        assert len(out.coeffs) == len(a.coeffs)
    assert (a + b).value == pytest.approx(a.value + b.value, rel=1e-14, abs=1e-14)
    assert (a * b).value == pytest.approx(a.value * b.value, rel=1e-14, abs=1e-14)


def test_integer_pow_matches_repeated_multiplication():
    a = 1.0 + TaylorJet.variable(0.5)
    assert (a ** 4).coeffs == pytest.approx((a * a * a * a).coeffs, rel=1e-14)
    assert (a ** -2).coeffs == pytest.approx((1.0 / (a * a)).coeffs, rel=1e-13)


def test_real_pow_via_exp_log():
    a = 2.0 + TaylorJet.variable(0.0)
    half = a ** 0.5
    assert half.value == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert (half * half).coeffs == pytest.approx(a.coeffs, rel=1e-12, abs=1e-12)


def test_compose_exp_then_log_is_identity():
    t0 = 0.7
    inner = jets.exp(TaylorJet.variable(t0))
    outer = jets.log(TaylorJet.variable(inner.value))
    back = jets.compose(outer, inner)
    assert back.coeffs == pytest.approx(TaylorJet.variable(t0).coeffs,
                                        rel=1e-12, abs=1e-12)


# -- jets over an array of points ---------------------------------------------


# coefficients that are often exactly zero exercise the per-point zero-skip
sparse_coeff = st.one_of(coeff, st.just(0.0))


@st.composite
def point_jets(draw, positive=False, order=8):
    """Between one and six scalar jets, one per point."""
    count = draw(st.integers(min_value=1, max_value=6))
    out = []
    for _ in range(count):
        head = draw(st.floats(min_value=0.5, max_value=3.0)) if positive else \
            draw(st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 0.5))
        tail = draw(st.lists(sparse_coeff, min_size=order, max_size=order))
        out.append(TaylorJet((head, *tail)))
    return out


def _stacked(points):
    return TaylorJet(np.stack([j.coeffs for j in points], axis=-1))


@given(point_jets(positive=True), st.data())
@settings(max_examples=60, deadline=None)
def test_array_jets_round_each_point_as_a_scalar_jet(a_points, data):
    b_points = data.draw(st.lists(small_jets(), min_size=len(a_points),
                                  max_size=len(a_points)))
    a, b = _stacked(a_points), _stacked(b_points)
    operations = (lambda x, y: x * y, lambda x, y: x / y, lambda x, y: y / x,
                  lambda x, y: x + y, lambda x, y: x - y, lambda x, y: 2.5 * x - 1.0,
                  lambda x, y: 3.0 / x + y, lambda x, y: x ** 3, lambda x, y: y ** -2,
                  lambda x, y: jets.exp(y), lambda x, y: jets.log(x),
                  lambda x, y: x ** 0.5, lambda x, y: jets.compose(x, y),
                  lambda x, y: x.deriv() * y.truncated(7))
    for op in operations:
        on_array = op(a, b).coeffs
        for j, (x, y) in enumerate(zip(a_points, b_points)):
            assert np.array_equal(on_array[..., j], op(x, y).coeffs)


def test_array_pivots_name_the_first_failing_point():
    points = _stacked([TaylorJet.variable(v, order=4) for v in (1.0, 2.0, 0.0, -1.0)])
    with pytest.raises(DivisionByZeroJet, match="at point 2"):
        _ = 1.0 / points
    with pytest.raises(LogDomain, match="got 0.0 at point 2"):
        jets.log(points)
    assert jets.exp(points).coeffs.shape == (5, 4)


# -- products and quotients against the term-by-term recurrences ---------------


def _reference_mul(a, b):
    """Cauchy product row by row, skipping a[i] at the points where it is zero."""
    n = len(a) - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    nonzero = a != 0.0
    points = tuple(range(1, a.ndim))
    for i, (every, some) in enumerate(zip(nonzero.all(axis=points).tolist(),
                                          nonzero.any(axis=points).tolist())):
        if every:
            out[i:] += a[i] * b[: n + 1 - i]
        elif some:
            out[i:] += np.where(nonzero[i], a[i] * b[: n + 1 - i], 0.0)
    return out


def _reference_div(a, b):
    """Quotient recurrence, one subtraction at a time."""
    b, out = list(b), []
    for k, acc in enumerate(a):
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]
        out.append(acc / b[0])
    return np.array(out)


non_finite = st.sampled_from((math.inf, -math.inf, math.nan))
signed_zero = st.sampled_from((0.0, -0.0))


@st.composite
def coeff_pairs(draw, elements):
    """Two coefficient arrays of one shape: a scalar jet, one point or five."""
    shape = (draw(st.integers(min_value=0, max_value=8)) + 1,
             *draw(st.sampled_from(((), (1,), (5,)))))
    size = math.prod(shape)
    a, b = (np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                     dtype=float).reshape(shape) for _ in range(2))
    b[0] = np.where(b[0] == 0.0, 1.5, b[0])    # a nonzero pivot at every point
    return a, b


def _same_bits(x, y):
    """Bit for bit, signed zeros and infinities included; a nan matches any
    nan (its sign bit is left to the processor and the numpy code path)."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


def _assert_same_bits_as_the_recurrences(a, b):
    assert _same_bits((TaylorJet(a) * TaylorJet(b)).coeffs, _reference_mul(a, b))
    assert _same_bits((TaylorJet(a) / TaylorJet(b)).coeffs, _reference_div(a, b))


@given(coeff_pairs(st.one_of(coeff, signed_zero)))
@settings(max_examples=60, deadline=None)
def test_products_and_quotients_are_bit_identical_to_the_recurrences(pair):
    with np.errstate(all="ignore"):     # a subnormal pivot may overflow
        _assert_same_bits_as_the_recurrences(*pair)


@given(coeff_pairs(st.one_of(coeff, signed_zero, non_finite)))
@settings(max_examples=60, deadline=None)
def test_non_finite_coefficients_keep_the_recurrences_pattern(pair):
    # a zero coefficient never meets an inf or a nan of the other factor
    with np.errstate(all="ignore"):
        _assert_same_bits_as_the_recurrences(*pair)


@given(coeff_pairs(st.one_of(coeff, signed_zero, non_finite)))
@settings(max_examples=60, deadline=None)
def test_a_truncated_product_or_quotient_is_that_of_the_truncated_jets(pair):
    # a coefficient depends only on those of its own and lower orders
    a, b = TaylorJet(pair[0]), TaylorJet(pair[1])
    with np.errstate(all="ignore"):
        for m in range(a.order + 1):
            for op in (operator.mul, operator.truediv):
                assert _same_bits(op(a, b).truncated(m).coeffs,
                                  op(a.truncated(m), b.truncated(m)).coeffs), (op, m)


def test_pow_1_is_the_jet_and_pow_2_is_one_product(monkeypatch):
    a = 1.0 + TaylorJet.variable(np.array([0.5, -0.0, 2.0]))
    assert a ** 1 is a
    products, mul = [], TaylorJet.__mul__

    def counted(self, other):
        if isinstance(other, TaylorJet):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(TaylorJet, "__mul__", counted)
    square = a ** 2
    assert len(products) == 1
    assert _same_bits(square.coeffs, mul(a, a).coeffs)


@pytest.mark.parametrize("value", [0.5, np.array([0.5, -0.0, 2.0])], ids=["scalar", "points"])
def test_scalar_products_and_derivatives_are_immutable_and_keep_their_bits(value):
    a = jets.exp(TaylorJet.variable(value, 6))
    for jet, want in ((2.5 * a, a.coeffs * 2.5 + 0.0), (a * -1.0, a.coeffs * -1.0 + 0.0),
                      (a.deriv(), np.arange(1.0, 7).reshape((-1,) + (1,) * (np.ndim(value)))
                       * a.coeffs[1:])):
        assert _same_bits(jet.coeffs, want)
        assert not jet.coeffs.flags.writeable
    # deriv's factors are formed once per (order, axes) and shared read-only
    assert jets._deriv_factors(6, a.coeffs.ndim) is jets._deriv_factors(6, a.coeffs.ndim)
    with pytest.raises(ValueError):
        jets._deriv_factors(6, a.coeffs.ndim)[0] = 2.0


def test_one_point_and_many_points_broadcast_as_the_recurrences_do():
    one = np.array([[2.0], [0.0], [-0.5], [0.0], [1.0]])
    many = np.array([[1.5, -2.0, 3.0], [0.0, 1.0, -0.0], [0.5, 0.0, 2.0],
                     [0.0, 0.0, 0.0], [-1.0, 4.0, 0.25]])
    for a, b in ((one, many), (many, one)):
        _assert_same_bits_as_the_recurrences(a, b)


@pytest.mark.parametrize("points", [1, 3, 5])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_scalar_jet_and_a_point_array_jet_are_refused(op, points):
    scalar = TaylorJet.variable(0.5, 4)
    grid = TaylorJet.variable(np.full(points, 0.5), 4)
    with pytest.raises(PreconditionFailed, match=rf"\(5,\) and \(5, {points}\)"):
        op(scalar, grid)
    with pytest.raises(PreconditionFailed, match=rf"\(5, {points}\) and \(5,\)"):
        op(grid, scalar)


def test_a_nan_pivot_divides_and_a_zero_pivot_is_named():
    points = TaylorJet(np.array([[1.0, math.nan, 2.0], [0.5, 0.5, 0.5]]))
    assert np.isnan((1.0 / points).coeffs[:, 1]).all()
    with pytest.raises(DivisionByZeroJet, match="at point 1"):
        _ = 1.0 / TaylorJet(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]]))


_UFUNCS = {"exp": np.exp, "log": np.log, "log1p": np.log1p, "square": lambda a: a ** 2,
           "cube": lambda a: a ** 3, "fourth": lambda a: a ** 4}


@given(st.sampled_from(sorted(_UFUNCS)),
       st.lists(st.one_of(st.floats(-750.0, 750.0), st.floats(0.0, 4.0), st.floats()),
                min_size=1, max_size=48),
       st.data())
@settings(max_examples=300, deadline=None)
def test_numpy_rounds_each_element_the_same_at_any_array_length(name, values, data):
    # jets, the moment map, the curvature fields and the fiber density apply these to
    # arrays of every length: an element's bits must not depend on the length (1 to 17
    # spans every SIMD tail), on its offset in the array, or on being a 0-d array alone
    fn, a = _UFUNCS[name], np.array(values)
    start = data.draw(st.integers(0, a.size - 1))
    stop = data.draw(st.integers(start + 1, min(a.size, start + 17)))
    with np.errstate(all="ignore"):
        whole, part = fn(a), fn(a[start:stop])
        alone = np.array([fn(np.array(v)) for v in values[start:stop]])
    assert _same_bits(part, whole[start:stop]) and _same_bits(alone, whole[start:stop])


