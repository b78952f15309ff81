"""Exact-arithmetic verification of binomial-coefficient and harmonic-number
summation identities: the catalog of two-sided identities and its one check
(``REGISTRY``, ``check_identity``); certified telescoping pairs with their
symbolic residual and sampled checks (``builtin_pairs``,
``certificate_residual``, ``verify_wz_pair``, ``telescoping_sum_check``);
Legendre polynomial representations; the scalar binomials and harmonic and
polygamma differences; and the jet ring ``Jet2`` with its ``oracle``, which
rederives the harmonic corollaries by exact parameter differentiation.

Every value is an exact rational; no floating point anywhere.
"""

from .catalog.entries import REGISTRY, check_identity
from .catalog.jets_oracle import oracle
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
