"""qirank: exact Gaussian-integer arithmetic, prime constellation search,
and re-checkable rank-2 certificates for quartic twists over Q(i).

The package namespace holds what the search, certify and verify jobs use;
everything else is imported from its module (``qirank.gaussian``,
``qirank.curves``, ...).
"""

__version__ = "0.1.0"

from .gaussian import GaussInt
from .search import (
    Box,
    ConstellationHit,
    find_first_hit,
    prime_density_stats,
    search_region,
)
from .certify import Certificate, FailureReport, certify, verify_certificate

__all__ = [
    "Box",
    "Certificate",
    "ConstellationHit",
    "FailureReport",
    "GaussInt",
    "certify",
    "find_first_hit",
    "prime_density_stats",
    "search_region",
    "verify_certificate",
]
