"""Toeplitz subshifts over Z, Z^r and virtually-Z^r groups.

Exact constructions, invariant-measure frequencies, odometer fiber
enumeration and brute-force independence certificates, all at finite window
scale with integer / rational arithmetic.
"""

from .lattice import (
    DepthExhausted,
    DomainChain,
    GroupSpec,
    SpecError,
    SubgroupChain,
)
from .toeplitz import Construction, EtaWindow
from .williams import WilliamsParams, ZPatch
from .decks import BUNDLED, Deck, bundled_deck, construction, load_deck

__version__ = "0.1.0"

__all__ = [
    "BUNDLED",
    "Construction",
    "Deck",
    "DepthExhausted",
    "DomainChain",
    "EtaWindow",
    "GroupSpec",
    "SpecError",
    "SubgroupChain",
    "WilliamsParams",
    "ZPatch",
    "bundled_deck",
    "construction",
    "load_deck",
    "__version__",
]
