"""qrr: exact verification of Rogers-Ramanujan-type sum-product identities.

Truncated q-series with exact Gaussian-integer coefficients and rational
exponents, a finite z-Laurent layer for constant-term arguments, a small
identity description language with a shipped corpus, machine-checked
derivation chains, and brute-force oracles for testing.

`import qrr` loads only `qrr.errors`.  Every other public name loads the
module that defines it the first time it is read (PEP 562), so a job that
only verifies identities or expands Nahm sums never loads the z-Laurent
layer (`special`, `zseries`) or the derivation chains (`replay`).
"""

import sys
from importlib import import_module
from types import ModuleType

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

__version__ = "1.0.0"

#: each module's public names, loaded on first read
_LAZY = {
    "gaussian": ("GaussianInt",),
    "series": ("Monomial", "QSeries", "qmono", "poch_finite", "poch_infinite"),
    "zseries": ("ZSeries", "theta_z", "euler_z_inverse", "euler_z_product"),
    "special": (
        "gaussian_binomial",
        "gaussian_binomial_row",
        "rogers_szego_def",
        "rogers_szego_bw",
        "rs_at",
        "jtp_check",
        "JtpReport",
    ),
    "identity": ("NahmData", "nahm_series", "IdentitySpec", "VerifyReport", "eval_sum", "eval_product", "verify"),
    "parser": ("parse", "parse_file", "parse_poly"),
    "replay": ("REPLAYS", "StepReport", "chain_passes"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "QrrError",
    "NonUnitConstantTerm",
    "DivergentProduct",
    "DivergentEmbedding",
    "NegativeExponent",
    "NotPositiveDefinite",
    "ParseError",
    "SemanticError",
    *_HOME,
    "replay",
]


def replay(theorem: str, order):
    """Run one derivation chain by id ("1.5" through "1.8"): qrr.replay.replay,
    whose module loads on the first call."""
    return import_module(".replay", __name__).replay(theorem, order)


def __getattr__(name):
    # not cached here, so that a name rebound in its module (by a tracer or a
    # test) reads the same through the package
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Importing a submodule binds it on its package; the submodule
    `qrr.replay` must not replace the public function `replay`."""

    def __setattr__(self, name, value):
        if not (isinstance(value, ModuleType) and name in __all__):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
