import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqlab import jets
from kqlab.errors import (DivisionByZeroJet, LogDomain, OrderExceeded,
                          OrderMismatch)
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


def test_one_point_and_many_points_broadcast_as_the_recurrences_do():
    one = np.array([[2.0], [0.0], [-0.5], [0.0], [1.0]])
    many = np.array([[1.5, -2.0, 3.0], [0.0, 1.0, -0.0], [0.5, 0.0, 2.0],
                     [0.0, 0.0, 0.0], [-1.0, 4.0, 0.25]])
    for a, b in ((one, many), (many, one)):
        _assert_same_bits_as_the_recurrences(a, b)


def test_a_nan_pivot_divides_and_a_zero_pivot_is_named():
    points = TaylorJet(np.array([[1.0, math.nan, 2.0], [0.5, 0.5, 0.5]]))
    assert np.isnan((1.0 / points).coeffs[:, 1]).all()
    with pytest.raises(DivisionByZeroJet, match="at point 1"):
        _ = 1.0 / TaylorJet(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]]))
