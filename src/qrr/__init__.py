"""qrr: exact verification of Rogers-Ramanujan-type sum-product identities.

Truncated q-series with exact Gaussian-integer coefficients and rational
exponents, a finite z-Laurent layer for constant-term arguments, a small
identity description language with a shipped corpus, machine-checked
derivation chains, and brute-force oracles for testing.
"""

from .errors import (
    DivergentEmbedding,
    DivergentProduct,
    NegativeExponent,
    NonUnitConstantTerm,
    NotPositiveDefinite,
    ParseError,
    QrrError,
    SemanticError,
)
from .gaussian import GaussianInt
from .identity import (
    IdentitySpec,
    VerifyReport,
    eval_product,
    eval_sum,
    verify,
)
from .parser import parse, parse_file, parse_poly
from .replay import REPLAYS, StepReport, chain_passes, replay
from .series import Monomial, QSeries, poch_finite, poch_infinite, qmono
from .special import (
    JtpReport,
    NahmData,
    gaussian_binomial,
    gaussian_binomial_row,
    jtp_check,
    nahm_series,
    rogers_szego_bw,
    rogers_szego_def,
    rs_at,
)
from .zseries import ZSeries, euler_z_inverse, euler_z_product, theta_z

__version__ = "1.0.0"

__all__ = [
    "QrrError",
    "NonUnitConstantTerm",
    "DivergentProduct",
    "DivergentEmbedding",
    "NegativeExponent",
    "NotPositiveDefinite",
    "ParseError",
    "SemanticError",
    "GaussianInt",
    "Monomial",
    "QSeries",
    "qmono",
    "poch_finite",
    "poch_infinite",
    "ZSeries",
    "theta_z",
    "euler_z_inverse",
    "euler_z_product",
    "gaussian_binomial",
    "gaussian_binomial_row",
    "rogers_szego_def",
    "rogers_szego_bw",
    "rs_at",
    "jtp_check",
    "JtpReport",
    "NahmData",
    "nahm_series",
    "IdentitySpec",
    "VerifyReport",
    "eval_sum",
    "eval_product",
    "verify",
    "parse",
    "parse_file",
    "parse_poly",
    "REPLAYS",
    "StepReport",
    "replay",
    "chain_passes",
]
