"""Exact-arithmetic verification of binomial-coefficient and harmonic-number
summation identities: a catalog of two-sided identity checks, certified
telescoping pairs with symbolic residual verification, Legendre polynomial
representations, and a jet (truncated Taylor) oracle that rederives the
harmonic corollaries by exact parameter differentiation.

Everything is computed over ``fractions.Fraction``; no floating point
anywhere.
"""

from .catalog.entries import REGISTRY, check_identity
from .catalog.jets_oracle import derived_identity_via_jets, oracle
from .exact import binom_poly, binom_upper_shift, digamma_diff, harmonic, trigamma_diff
from .jets import Jet2
from .legendre import legendre, legendre_inversion_check, legendre_new_repr
from .wz import builtin_pairs, certificate_residual, telescoping_sum_check, verify_wz_pair

__version__ = "0.1.0"

__all__ = [
    "Jet2",
    "REGISTRY",
    "binom_poly",
    "binom_upper_shift",
    "builtin_pairs",
    "certificate_residual",
    "check_identity",
    "derived_identity_via_jets",
    "digamma_diff",
    "harmonic",
    "legendre",
    "legendre_inversion_check",
    "legendre_new_repr",
    "oracle",
    "telescoping_sum_check",
    "trigamma_diff",
    "verify_wz_pair",
]
