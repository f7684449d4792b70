"""kqlab: Bergman functions and balanced metrics of radial Kähler fibrations.

A numerical verification laboratory: jet arithmetic for exact profile
derivatives, the curvature engine for expansion coefficients of fibered
metrics, the constant-coefficient classification checker, fiber-moment
quadrature against closed product forms, the Bergman kernel series with its
exact product-law targets, and brute-force Gram-matrix oracles.
"""

from .bergman import (BalancedCertificate, MomentTable, QuantizationSetup,
                      balanced_certify, balanced_setup, bergman_series,
                      closed_target, density_H, fiber_moment,
                      fiber_moment_direct, generating_coefficients,
                      generating_identity_check, psi_moment)
from .curvature import (BaseGeometry, ClassificationVerdict, ClosedCoefficients,
                        CurvatureReport, branch_coefficients, classify_check,
                        curvature_report, polyquad_closed,
                        required_base_coefficients)
from .jets import TaylorJet
from .oracle import (Cp1OracleReport, GramOracleConfig, HartogsOracleReport,
                     cp1_bergman_oracle, gram_offdiagonal_probe,
                     hartogs_gram_oracle)
from .profiles import (RadialProfile, custom, linear, log_affine, log_ball,
                       profile_jet, t_from_x, x_from_t)
from .special import product_shifted

__version__ = "0.1.0"

__all__ = [
    "BalancedCertificate",
    "BaseGeometry",
    "ClassificationVerdict",
    "ClosedCoefficients",
    "Cp1OracleReport",
    "CurvatureReport",
    "GramOracleConfig",
    "HartogsOracleReport",
    "MomentTable",
    "QuantizationSetup",
    "RadialProfile",
    "TaylorJet",
    "balanced_certify",
    "balanced_setup",
    "bergman_series",
    "branch_coefficients",
    "classify_check",
    "closed_target",
    "cp1_bergman_oracle",
    "curvature_report",
    "custom",
    "density_H",
    "fiber_moment",
    "fiber_moment_direct",
    "generating_coefficients",
    "generating_identity_check",
    "gram_offdiagonal_probe",
    "hartogs_gram_oracle",
    "linear",
    "log_affine",
    "log_ball",
    "polyquad_closed",
    "product_shifted",
    "profile_jet",
    "psi_moment",
    "required_base_coefficients",
    "t_from_x",
    "x_from_t",
]
