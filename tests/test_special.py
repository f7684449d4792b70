import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp
import scipy.special

from kqlab import special
from kqlab.errors import NegativeInput, PreconditionFailed, QuadratureNonConvergent
from kqlab.special import legendre, product_shifted


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
    with mp.workdps(40):
        x = mp.mpf(level) / shift
        gamma_form = float(mp.mpf(shift) ** n * mp.gamma(x) / mp.gamma(x - n))
    assert product_shifted(level, shift, n) == pytest.approx(gamma_form, rel=1e-13)


def _christoffel_weights(kind, nodes, a, b, xs):
    """40-digit Christoffel numbers mu0 / sum_j p_j(x)^2 at the nodes xs.

    The orthonormal recurrence of the Jacobi weight (1-x)^a (1+x)^b on (-1, 1)
    or of the Laguerre weight x^a e^-x, with mu0 from mpmath's Beta and Gamma.
    """
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        if kind == "jacobi":
            mu0 = 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)
            diag = [(b - a) / (a + b + 2)] + [
                (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
                for k in range(1, nodes)]
            off = [mp.sqrt(4 * k * (k + a) * (k + b) * (k + a + b)
                           / ((2 * k + a + b) ** 2 * (2 * k + a + b + 1)
                              * (2 * k + a + b - 1))) for k in range(1, nodes)]
        else:
            mu0 = mp.gamma(a + 1)
            diag = [2 * k + a + 1 for k in range(nodes)]
            off = [mp.sqrt(k * (k + a)) for k in range(1, nodes)]
        out = []
        for x in xs:
            x = mp.mpf(float(x))
            p0, p1, prev, total = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(1)
            for k in range(nodes - 1):
                p0, p1 = p1, ((x - diag[k]) * p1 - prev * p0) / off[k]
                prev = off[k]
                total += p1 * p1
            out.append(mu0 / total)
        return out


def _worst_weight_error(kind, nodes, a, b, xs, ws):
    """Largest relative weight error against the referee, over normal weights."""
    ref = _christoffel_weights(kind, nodes, a, b, xs)
    return max(float(abs(mp.mpf(float(w)) - r) / r)
               for w, r in zip(ws, ref) if r > np.finfo(float).tiny)


_RULES = [("jacobi", 64, 0.5, 3.0), ("jacobi", 64, 1.0, 300.0), ("jacobi", 64, 2.0, 600.0),
          ("laguerre", 64, 0.0, 0.0), ("laguerre", 200, 0.0, 0.0),
          ("legendre", 16, 0.0, 0.0), ("legendre", 32, 0.0, 0.0), ("legendre", 200, 0.0, 0.0)]


@pytest.mark.parametrize("kind, nodes, a, b", _RULES,
                         ids=[f"{kind}-{nodes}" + (f"-{a:g}-{b:g}" if kind == "jacobi" else "")
                              for kind, nodes, a, b in _RULES])
def test_gauss_rule_weights_match_the_mpmath_christoffel_referee(kind, nodes, a, b):
    # each rule's weights at its own nodes, against 40 digits, and at least as
    # accurate as scipy's rule against the same referee at scipy's nodes
    if kind == "laguerre":
        ours, theirs = (special.roots_genlaguerre(nodes, a),
                        scipy.special.roots_genlaguerre(nodes, a))
    else:
        ours, theirs = (special.roots_jacobi(nodes, a, b),
                        scipy.special.roots_jacobi(nodes, a, b))
    family = "laguerre" if kind == "laguerre" else "jacobi"
    err = _worst_weight_error(family, nodes, a, b, *ours)
    assert err <= nodes * 1e-15
    assert err <= _worst_weight_error(family, nodes, a, b, *theirs)
    # the same nodes as scipy's to a few ulps of the largest
    assert np.max(np.abs(ours[0] - theirs[0])) <= 8 * np.spacing(np.max(np.abs(theirs[0])))
    if kind == "legendre":
        us, wu = legendre(nodes)
        assert np.array_equal(us, 0.5 * (ours[0] + 1.0)) and np.array_equal(wu, 0.5 * ours[1])


@pytest.mark.parametrize("a, b", [(20.0, 1100.0), (300.0, 1100.0)])
def test_jacobi_rule_past_the_exact_beta_shifts_matches_the_referee(a, b):
    # b + 1 is past special._EXACT_SHIFTS: mu0 takes Stirling's series there
    xs, ws = special.gauss_rule(special.roots_jacobi, 64, a, b)
    assert _worst_weight_error("jacobi", 64, a, b, xs, ws) <= 64e-15


@pytest.mark.parametrize("p, q, rel", [(3.0, 1023.5, 1e-14), (3.0, 1025.25, 1e-14),
                                       (0.001, 5000.0, 1e-14), (0.5, 12345.678, 1e-14),
                                       (2.5, 1e9, 1e-14), (601.0, 1100.0, 1e-14),
                                       (2.5, 1e300, 1e-13), (1101.0, 1101.0, 1e-12)])
def test_beta_is_exact_past_the_shift_bound_and_the_float_range(p, q, rel):
    # as a mantissa and a binary exponent, in time independent of q; B(2.5, 1e300)
    # and B(1101, 1101) are below the float range, and their logs are large
    start = time.process_time()
    m, e = special._beta(p, q)
    assert time.process_time() - start < 0.1
    with mp.workdps(340):
        ref = mp.beta(p, q)
        assert abs(mp.mpf(m) * mp.mpf(2) ** e / ref - 1) <= rel


@pytest.mark.parametrize("a", [1e9, 1e100, 1e200, 1e306])
def test_jacobi_rule_with_a_huge_exponent_is_refused_at_once(a):
    start = time.process_time()
    with pytest.raises(QuadratureNonConvergent, match="not finite"):
        special.gauss_rule(special.roots_jacobi, 64, a, 1.0)
    assert time.process_time() - start < 1.0


def test_laguerre_rule_past_the_gamma_range_is_refused():
    # mu0 = Gamma(a + 1) overflows for a > 170
    with pytest.raises(QuadratureNonConvergent):
        special.gauss_rule(special.roots_genlaguerre, 64, 171.5)


@pytest.mark.parametrize("nodes", [0, -5])
def test_gauss_rule_needs_a_node(nodes):
    with pytest.raises(PreconditionFailed):
        special.gauss_rule(special.roots_jacobi, nodes, 0.0, 0.0)
