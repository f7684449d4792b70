"""Every structural precondition the library checks raises PreconditionFailed.

PreconditionFailed is a ValueError, so callers that catch ValueError keep
working; the CLI reports it by name with exit code 2.  The other typed
refusals of inputs outside a model or a branch are checked by type and message.
"""

import math

import numpy as np
import pytest

from kqlab.bergman import (MomentTable, QuantizationSetup, balanced_certify, balanced_setup,
                           bergman_series, fiber_moment, fiber_moment_direct,
                           generating_coefficients, generating_identity_check, psi_moment)
from kqlab.curvature import (BaseGeometry, curvature_report, polyquad_closed,
                             required_base_coefficients)
from kqlab.errors import BranchInvalid, OutOfDomain, PreconditionFailed, whole
from kqlab.jets import TaylorJet
from kqlab.oracle import GramOracleConfig, cp1_bergman_oracle, hartogs_gram_oracle
from kqlab.profiles import (RadialProfile, custom, from_params, linear, log_affine, log_ball,
                            profile_jet, t_from_x)


def _setup(**changes):
    fields = dict(d0=1, domain="ball", profile=log_ball(1.0),
                  base=BaseGeometry.flat(1), alpha=0.0)
    fields.update(changes)
    return QuantizationSetup(**fields)


def _vanishing_at_alpha():
    # eps(a) = a - 2 at alpha = 2: term 0 of the series is 0, and the identity divides by it
    base = BaseGeometry.from_coefficients(1, 1.0, a1=0.0, a2=0.0, eps=lambda a: a - 2.0)
    return _setup(profile=log_ball(0.5), base=base, alpha=2.0)


_SITES = {
    "setup-dimensions": (lambda: _setup(d0=0), "fiber dimension d0"),
    "setup-alpha-nan": (lambda: _setup(alpha=math.nan), "finite"),
    "setup-alpha-inf": (lambda: _setup(alpha=math.inf), "finite"),
    "setup-domain": (lambda: _setup(domain="disc"), "domain must be"),
    "psi-degree": (lambda: psi_moment(_setup(), -1), "fiber degree k"),
    "psi-method": (lambda: psi_moment(_setup(), 0, "simpson"), "method must be"),
    "fiber-moment-index": (lambda: fiber_moment(_setup(), [1, 2]), "multi-index length"),
    "fiber-moment-negative-index": (lambda: fiber_moment(_setup(d0=2), [-1, 2]),
                                    "multi-index entry must be an integer >= 0"),
    # math.factorial raised TypeError
    "fiber-moment-fractional-index": (lambda: fiber_moment(balanced_setup(2, 1, 2, "ball"), [1.5]),
                                      r"^multi-index entry must be an integer >= 0, got 1.5$"),
    # psi_moment built and memoised a 3-node rule, as np.arange(2.5) has three entries;
    # the table raised TypeError
    "psi-fractional-nodes": (lambda: psi_moment(balanced_setup(2, 1, 2, "ball"), 3, "quadrature",
                                                nodes=2.5),
                             r"^a Gauss rule's node count must be an integer >= 1, got 2.5$"),
    "table-fractional-nodes": (lambda: MomentTable(balanced_setup(2, 1, 2, "ball"), "quadrature",
                                                   2.5)(3),
                               r"^a Gauss rule's node count must be an integer >= 1, got 2.5$"),
    "series-eps": (lambda: bergman_series(_setup(), 0.5), "no Bergman function eps"),
    "balanced-ball-c": (lambda: balanced_setup(1, 2, 2, "ball", c=5.0), "reads no profile scale"),
    "balanced-total-c": (lambda: balanced_setup(1, 1, 2, "total", c=math.inf), "finite"),
    "coefficients-eps": (lambda: generating_coefficients(_setup(), 4),
                         "no Bergman function eps"),
    # a negative count gave [1.0], as count 0 did, and 2.5 raised TypeError from range
    "coefficients-count-negative": (lambda: generating_coefficients(balanced_setup(2, 1, 2, "ball"),
                                                                    -3),
                                    r"^coefficient count k_count must be an integer >= 0, "
                                    r"got -3$"),
    "coefficients-count-fractional": (lambda: generating_coefficients(
        balanced_setup(2, 1, 2, "ball"), 2.5),
                                      r"^coefficient count k_count must be an integer >= 0, "
                                      r"got 2.5$"),
    "coefficients-eps-zero": (lambda: generating_coefficients(_vanishing_at_alpha(), 4),
                              r"eps\(alpha\) = 0 at alpha = 2.0"),
    "identity-eps-zero": (lambda: generating_identity_check(_vanishing_at_alpha(), [0.0, 0.5]),
                          r"eps\(alpha\) = 0 at alpha = 2.0"),
    "base-twist": (lambda: BaseGeometry(1, 0.0, 0.0, 0.0, 0.0, 0.0),
                   "twist must be nonzero"),
    "base-invariants": (lambda: BaseGeometry.from_coefficients(1, 1.0, math.nan, 0.0), "finite"),
    "base-rescale": (lambda: BaseGeometry.flat(1, twist=-1.0).unit_twist_rescaled(),
                     "twist > 0"),
    "preset-cp1": (lambda: BaseGeometry.fubini_study_cp1(0), "bundle degree"),
    "preset-cpd": (lambda: BaseGeometry.fubini_study_cpd(0),
                   "base dimension d must be an integer >= 1"),
    "report-d0": (lambda: curvature_report(BaseGeometry.flat(1), log_ball(1.0), 0, -1.0),
                  "fiber dimension d0"),
    "profile-rule": (lambda: RadialProfile("custom"), "needs a jet rule"),
    "profile-family": (lambda: RadialProfile("parabolic"), "unknown profile family"),
    "profile-params": (lambda: RadialProfile("logball", A=-1.0), "logball needs A > 0"),
    # a parameter the family does not read keeps its fixed value
    "from-params-logball-c": (lambda: from_params("logball", 0.5, 5.0), "c = 1"),
    "from-params-linear-A": (lambda: from_params("linear", 0.7, 1.0), "A = 0"),
    "oracle-samples": (lambda: GramOracleConfig(2, 2, sample_points=()), "sample point"),
    "oracle-degree": (lambda: GramOracleConfig(0, 2), "bundle_degree must be an integer >= 1"),
    "oracle-power": (lambda: GramOracleConfig(2, 0), "power must be an integer >= 1"),
    "oracle-q-cap": (lambda: GramOracleConfig(2, 2, q_cap=1), "q_cap must be an integer >= 2"),
    "cp1-oracle-k": (lambda: cp1_bergman_oracle(0, 2, [0.5]),
                     "bundle degree k must be an integer >= 1"),
    "cp1-oracle-m": (lambda: cp1_bergman_oracle(2, 0, [0.5]), "power m must be an integer >= 1"),
    # a whole-number parameter given a fraction: balanced_certify certified k = 2.5 and m = 2.5
    # as balanced (targets 6.48 and 4.5); the others raised an untyped TypeError
    "balanced-fractional-k": (lambda: balanced_certify(2.5, 1, 3),
                              r"^bundle degree k must be an integer >= 1, got 2.5$"),
    "balanced-fractional-r": (lambda: balanced_certify(2, 1.5, 3),
                              r"^rank r must be an integer >= 1, got 1.5$"),
    "balanced-fractional-m": (lambda: balanced_certify(2, 1, 2.5),
                              r"^power m must be an integer >= 1, got 2.5$"),
    "setup-fractional-d0": (lambda: psi_moment(_setup(d0=1.5, alpha=2.0), 0),
                            r"^fiber dimension d0 must be an integer >= 1, got 1.5$"),
    "cp1-oracle-fractional-k": (lambda: cp1_bergman_oracle(1.5, 2, [0.5]),
                                r"^bundle degree k must be an integer >= 1, got 1.5$"),
    "hartogs-fractional-degree": (lambda: hartogs_gram_oracle(
        GramOracleConfig(1.5, 2), balanced_setup(2, 1, 2, "ball")),
                                  r"^bundle_degree must be an integer >= 1, got 1.5$"),
    "hartogs-fractional-q-cap": (lambda: hartogs_gram_oracle(
        GramOracleConfig(2, 2, q_cap=60.5), balanced_setup(2, 1, 2, "ball")),
                                 r"^q_cap must be an integer >= 2, got 60.5$"),
    "series-fractional-k-max": (lambda: bergman_series(balanced_setup(2, 1, 2, "ball"), 0.5,
                                                       k_max=2.5),
                                r"^series cap k_max must be an integer >= 0, got 2.5$"),
    # the direct route read these: 2.05 for [-1, 2] and 0.0025 for [1.5, 2]
    "direct-moment-negative-index": (lambda: fiber_moment_direct(balanced_setup(2, 2, 3, "ball"),
                                                                 [-1, 2]),
                                     r"^multi-index entry must be an integer >= 0, got -1$"),
    "direct-moment-fractional-index": (lambda: fiber_moment_direct(
        balanced_setup(2, 2, 3, "ball"), [1.5, 2]),
                                       r"^multi-index entry must be an integer >= 0, got 1.5$"),
    "direct-moment-index-length": (lambda: fiber_moment_direct(balanced_setup(2, 2, 3, "ball"),
                                                               [1]),
                                   r"^multi-index length 1 != d0 2$"),
    "hartogs-d0": (lambda: hartogs_gram_oracle(GramOracleConfig(2, 2),
                                               balanced_setup(2, 2, 2, "ball")), "d = d0 = 1"),
    "hartogs-d": (lambda: hartogs_gram_oracle(GramOracleConfig(1, 2), QuantizationSetup(
        1, "fullspace", linear(1.0), BaseGeometry.flat(2), 2.0)), "d = d0 = 1"),
    "hartogs-twist": (lambda: hartogs_gram_oracle(GramOracleConfig(2, 2), QuantizationSetup(
        1, "ball", log_ball(0.25), BaseGeometry.fubini_study_cp1(2, twist=2.0), 2.0)),
                      "unit twist"),
    "balanced-k": (lambda: balanced_setup(0, 1, 1, "ball"),
                   "bundle degree k must be an integer >= 1"),
    "balanced-r": (lambda: balanced_setup(1, 0, 1, "ball"), "rank r must be an integer >= 1"),
    "balanced-m": (lambda: balanced_setup(2, 1, 0, "ball"), "power m must be an integer >= 1"),
    "balanced-part": (lambda: balanced_setup(1, 1, 1, "fiber"), "unknown part 'fiber'"),
    "base-dimension": (lambda: BaseGeometry(0, 1.0, 0.0, 0.0, 0.0, 0.0), "dimension d must"),
    "scaled": (lambda: log_ball(1.0).scaled(0.0), "scaling factor"),
    "custom-form": (lambda: custom(lambda t, order: TaylorJet.variable(t, order), "x"),
                    "rule_form"),
    "profile-jet-form": (lambda: profile_jet(log_ball(1.0), -1.0, 2, "x"), "form must be"),
    # a boolean is no whole number: each of these read True as 1
    "psi-bool-degree": (lambda: psi_moment(_setup(), True),
                        r"^fiber degree k must be an integer >= 0, got True$"),
    "balanced-bool-k": (lambda: balanced_setup(True, 2, 3, "ball"),
                        r"^bundle degree k must be an integer >= 1, got True$"),
    "oracle-bool-power": (lambda: GramOracleConfig(2, True),
                          r"^power must be an integer >= 1, got True$"),
    "cp1-oracle-bool-k": (lambda: cp1_bergman_oracle(True, 2, [0.5]),
                          r"^bundle degree k must be an integer >= 1, got True$"),
    "table-bool-nodes": (lambda: MomentTable(balanced_setup(2, 1, 2, "ball"), "quadrature",
                                             True)(3),
                         r"^a Gauss rule's node count must be an integer >= 1, got True$"),
    "fiber-moment-bool-index": (lambda: fiber_moment(balanced_setup(2, 2, 3, "ball"), [True, 1]),
                                r"^multi-index entry must be an integer >= 0, got True$"),
    "direct-moment-bool-index": (lambda: fiber_moment_direct(balanced_setup(2, 2, 3, "ball"),
                                                             [True, 1]),
                                 r"^multi-index entry must be an integer >= 0, got True$"),
    "coefficients-bool-count": (lambda: generating_coefficients(balanced_setup(2, 1, 2, "ball"),
                                                                True),
                                r"^coefficient count k_count must be an integer >= 0, "
                                r"got True$"),
    "series-bool-k-max": (lambda: bergman_series(balanced_setup(2, 1, 2, "ball"), [0.1],
                                                 k_max=True),
                          r"^series cap k_max must be an integer >= 0, got True$"),
    # a fractional or boolean dimension: each built a base or computed a report
    "report-fractional-d0": (lambda: curvature_report(BaseGeometry.flat(1), log_ball(1.0), 1.5,
                                                      -1.0),
                             r"^fiber dimension d0 must be an integer >= 1, got 1.5$"),
    "report-bool-d0": (lambda: curvature_report(BaseGeometry.flat(1), log_ball(1.0), True, -1.0),
                       r"^fiber dimension d0 must be an integer >= 1, got True$"),
    "base-fractional-d": (lambda: BaseGeometry.flat(1.5),
                          r"^base dimension d must be an integer >= 1, got 1.5$"),
    "base-bool-d": (lambda: BaseGeometry.flat(True),
                    r"^base dimension d must be an integer >= 1, got True$"),
    "preset-cp1-fractional-k": (lambda: BaseGeometry.fubini_study_cp1(1.5),
                                r"^bundle degree k must be an integer >= 1, got 1.5$"),
    "preset-cpd-fractional-d": (lambda: BaseGeometry.fubini_study_cpd(1.5),
                                r"^base dimension d must be an integer >= 1, got 1.5$"),
    "base-coefficients-fractional-d": (lambda: BaseGeometry.from_coefficients(1.5, 1.0, 0.5, 0.0),
                                       r"^base dimension d must be an integer >= 1, got 1.5$"),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_library_preconditions_raise_preconditionfailed(site):
    call, message = _SITES[site]
    with pytest.raises(PreconditionFailed, match=message):
        call()


def test_numpy_integers_give_python_ints_bits():
    # each of these refused np.int64 as not an integer
    assert type(whole(np.int64(3), 0, "k")) is int
    s, pair = balanced_setup(2, 1, 2, "ball"), balanced_setup(2, 2, 3, "ball")
    i = np.int64
    for method in ("closed", "quadrature"):
        assert (psi_moment(s, i(3), method, i(16)).hex()
                == psi_moment(s, 3, method, 16).hex())
        assert (MomentTable(s, method).ratio(i(3)).hex()
                == MomentTable(s, method).ratio(3).hex())
        assert (fiber_moment(pair, [i(1), i(2)], method).hex()
                == fiber_moment(pair, [1, 2], method).hex())
        assert ([c.hex() for c in generating_coefficients(s, i(4), method)]
                == [c.hex() for c in generating_coefficients(s, 4, method)])
    certificate = balanced_certify(i(2), i(2), i(3))
    assert certificate == balanced_certify(2, 2, 3) and certificate.balanced
    assert all(type(v) is int for v in (certificate.k, certificate.r, certificate.m,
                                        certificate.gauss_rules, certificate.fiber_degrees))
    report = hartogs_gram_oracle(GramOracleConfig(2, 2, q_cap=i(60)), s)
    assert report == hartogs_gram_oracle(GramOracleConfig(2, 2, q_cap=60), s)
    assert type(report.q_cap) is int


_REFUSALS = {
    "cp1-oracle-empty-grid": (lambda: cp1_bergman_oracle(2, 2, []), OutOfDomain, "non-empty"),
    # a nan or inf value gave a nan row, which max_abs_error and max_spread skipped
    "cp1-oracle-grid-nan": (lambda: cp1_bergman_oracle(2, 3, [0.5, math.nan]), OutOfDomain,
                            r"^\|z\|\^2 grid value nan is not a finite non-negative number$"),
    "cp1-oracle-grid-inf": (lambda: cp1_bergman_oracle(2, 3, [0.5, math.inf]), OutOfDomain,
                            r"^\|z\|\^2 grid value inf is not a finite"),
    "cp1-oracle-grid-negative": (lambda: cp1_bergman_oracle(2, 3, [-0.5]), OutOfDomain,
                                 r"^\|z\|\^2 grid value -0.5 is not a finite"),
    "hartogs-sample-outside": (lambda: hartogs_gram_oracle(
        GramOracleConfig(2, 2, sample_points=((0.0, 1.0),)), balanced_setup(2, 1, 2, "ball")),
                               OutOfDomain, r"sample point \(0.0, 1.0\) outside the model"),
    "direct-moment-fullspace": (lambda: fiber_moment_direct(_setup(
        domain="fullspace", profile=linear(1.0), alpha=2.0), [1]), BranchInvalid, "ball fiber"),
    "direct-moment-d0": (lambda: fiber_moment_direct(_setup(d0=3, alpha=5.0), [1, 0, 0]),
                         BranchInvalid, r"d0 in \{1, 2\}"),
    "t-from-x-zero": (lambda: t_from_x(log_ball(1.0), 0.0), OutOfDomain, "must be positive"),
    "t-from-x-affine-range": (lambda: t_from_x(log_affine(-0.5, 1.0), 3.0), OutOfDomain,
                              "outside the log_affine range"),
    "polyquad-shift": (lambda: polyquad_closed(BaseGeometry.flat(1, twist=-1.0), 1, -1.0, 2.0),
                       OutOfDomain, r"1 \+ twist\*x = -1.0 not positive"),
    "required-base-off-branch": (lambda: required_base_coefficients(
        log_ball(0.5), 1, 1, 1.0, "fullspace"), OutOfDomain, "no constant-coefficient branch"),
}


@pytest.mark.parametrize("site", sorted(_REFUSALS))
def test_library_refusals_raise_their_type(site):
    call, error, message = _REFUSALS[site]
    with pytest.raises(error, match=message):
        call()
