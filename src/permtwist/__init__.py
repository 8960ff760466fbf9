"""Exact constructions of cyclically permutation-twisted modules for lattice
vertex algebras: the lattice-isometry route, the change-of-variables route,
and the explicit isomorphism between them, with mechanical verification of
the identities relating the two."""

from .exact import Cyc, CycField, lemma_root_sum
from .lattice import Lattice, LatticeError
from .cocycle import CentralElem, SECTION_PLAIN, SECTION_TWISTED, TwistSystem

__all__ = [
    "Cyc", "CycField", "lemma_root_sum",
    "Lattice", "LatticeError",
    "CentralElem", "SECTION_PLAIN", "SECTION_TWISTED", "TwistSystem",
]

__version__ = "0.1.0"
