import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from kqlab.errors import NegativeInput, NonPositiveArgument, QuadratureNonConvergent
from kqlab.special import (beta, dim_h0_cpd, gamma_ratio, legendre, log_gamma,
                           product_shifted)


def test_gamma_values():
    assert math.exp(log_gamma(5.0)) == pytest.approx(24.0, rel=1e-13)
    assert gamma_ratio(8.0, 5.0) == pytest.approx(210.0, rel=1e-12)
    assert beta(3.0, 2.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_gamma_domain():
    for bad in (0.0, -1.5):
        with pytest.raises(NonPositiveArgument):
            log_gamma(bad)
        with pytest.raises(NonPositiveArgument):
            gamma_ratio(bad, 2.0)
        with pytest.raises(NonPositiveArgument):
            beta(1.0, bad)


@pytest.mark.parametrize("fn, args, source", [
    # math.lgamma overflows past about 2.5e305
    (log_gamma, (1e306,), "log_gamma"),
    (gamma_ratio, (1e306, 2.0), "log_gamma"),
    (beta, (1e306, 1.0), "log_gamma"),
    # finite log Gamma terms whose ratio leaves the float range
    (gamma_ratio, (200.0, 1.0), "gamma_ratio"),
    (beta, (1e-310, 1.0), "beta"),
], ids=["log_gamma", "gamma_ratio", "beta", "gamma_ratio-ratio", "beta-ratio"])
def test_gamma_overflow_is_a_typed_error(fn, args, source):
    with pytest.raises(QuadratureNonConvergent, match=source + r"\(.*float range"):
        fn(*args)


def test_product_shifted_examples():
    assert product_shifted(2.0, 1.0 / 3.0, 3) == pytest.approx(20.0 / 9.0, rel=1e-14)
    for m in (2.0, 3.5, 7.0):
        assert product_shifted(m, 0.0, 2) == pytest.approx(m ** 2, rel=1e-15)
    assert product_shifted(3.0, -1.0, 3) == pytest.approx(120.0, rel=1e-15)
    with pytest.raises(NegativeInput):
        product_shifted(1.0, 1.0, 0)


@given(st.floats(min_value=0.05, max_value=2.0),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.5, max_value=30.0))
@settings(max_examples=120, deadline=None)
def test_product_matches_gamma_ratio_form(shift, n, excess):
    # level chosen so level/shift - n > 0, where the Gamma form is defined
    level = shift * (n + excess)
    gamma_form = shift ** n * gamma_ratio(level / shift, level / shift - n)
    assert product_shifted(level, shift, n) == pytest.approx(gamma_form, rel=1e-10)


def _count_monomials(d, m):
    exps = range(m + 1)
    return sum(1 for combo in itertools.product(exps, repeat=d) if sum(combo) <= m)


def test_dim_h0_examples():
    for d in (1, 2, 3, 5):
        assert dim_h0_cpd(d, 0) == 1
    assert dim_h0_cpd(1, 5) == 6
    assert dim_h0_cpd(2, 3) == 10
    with pytest.raises(NegativeInput):
        dim_h0_cpd(0, 3)
    with pytest.raises(NegativeInput):
        dim_h0_cpd(2, -1)


def test_dim_h0_against_enumeration():
    for d in range(1, 5):
        for m in range(13):
            assert dim_h0_cpd(d, m) == _count_monomials(d, m)


@pytest.mark.parametrize("nodes", [16, 32, 200])
def test_legendre_is_the_scipy_rule_mapped_to_the_unit_interval(nodes):
    xs, ws = roots_legendre(nodes)
    us, wu = legendre(nodes)
    assert np.array_equal(us, 0.5 * (xs + 1.0)) and np.array_equal(wu, 0.5 * ws)
