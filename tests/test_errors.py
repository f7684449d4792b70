"""Every structural precondition the library checks raises PreconditionFailed.

PreconditionFailed is a ValueError, so callers that catch ValueError keep
working; the CLI reports it by name with exit code 2.
"""

import pytest

from kqlab.bergman import (QuantizationSetup, bergman_series, fiber_moment,
                           generating_coefficients, psi_moment,
                           sphere_monomial_integral)
from kqlab.curvature import BaseGeometry, curvature_report
from kqlab.errors import PreconditionFailed
from kqlab.jets import TaylorJet
from kqlab.profiles import (RadialProfile, admissibility, custom, log_ball,
                            profile_jet)


def _setup(**changes):
    fields = dict(d=1, d0=1, twist=1.0, domain="ball", profile=log_ball(1.0),
                  base=BaseGeometry.flat(1), alpha=0.0)
    fields.update(changes)
    return QuantizationSetup(**fields)


_SITES = {
    "setup-dimensions": (lambda: _setup(d0=0), "dimensions d, d0"),
    "setup-twist": (lambda: _setup(twist=0.0), "twist must be nonzero"),
    "setup-domain": (lambda: _setup(domain="disc"), "domain must be"),
    "setup-base-d": (lambda: _setup(base=BaseGeometry.flat(2)), "base dimension 2"),
    "setup-base-twist": (lambda: _setup(base=BaseGeometry.flat(1, twist=2.0)),
                         "twist disagree"),
    "psi-degree": (lambda: psi_moment(_setup(), -1), "fiber degree k"),
    "psi-method": (lambda: psi_moment(_setup(), 0, "simpson"), "method must be"),
    "sphere-index": (lambda: sphere_monomial_integral([1, -1]), "non-negative"),
    "fiber-moment-index": (lambda: fiber_moment(_setup(), [1, 2]), "multi-index length"),
    "series-eps": (lambda: bergman_series(_setup(), 0.5), "no Bergman function eps"),
    "coefficients-eps": (lambda: generating_coefficients(_setup(), 4),
                         "no Bergman function eps"),
    "base-twist": (lambda: BaseGeometry(1, 0.0, 0.0, 0.0, 0.0, 0.0),
                   "twist must be nonzero"),
    "base-rescale": (lambda: BaseGeometry.flat(1, twist=-1.0).unit_twist_rescaled(),
                     "twist > 0"),
    "preset-cp1": (lambda: BaseGeometry.fubini_study_cp1(0), "bundle degree"),
    "preset-cpd": (lambda: BaseGeometry.fubini_study_cpd(0), "d must be >= 1"),
    "report-d0": (lambda: curvature_report(BaseGeometry.flat(1), log_ball(1.0), 0, -1.0),
                  "fiber dimension d0"),
    "profile-rule": (lambda: RadialProfile("custom"), "needs a jet rule"),
    "profile-family": (lambda: RadialProfile("parabolic"), "unknown profile family"),
    "profile-params": (lambda: RadialProfile("logball", A=-1.0), "logball needs A > 0"),
    "scaled": (lambda: log_ball(1.0).scaled(0.0), "scaling factor"),
    "custom-form": (lambda: custom(lambda t, order: TaylorJet.variable(t, order), "x"),
                    "rule_form"),
    "profile-jet-form": (lambda: profile_jet(log_ball(1.0), -1.0, 2, "x"), "form must be"),
    "admissibility-domain": (lambda: admissibility(log_ball(1.0), 1.0, "disc", [-1.0]),
                             "domain must be"),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_library_preconditions_raise_preconditionfailed(site):
    call, message = _SITES[site]
    with pytest.raises(PreconditionFailed, match=message):
        call()
