"""Enclosure-method reconstruction for the complex conductivity equation.

Builds synthetic boundary data for div((sigma - i*omega*eps) grad u) = 0
with a finite element solver, probes the Dirichlet-to-Neumann map with
exponentially growing harmonic functions, and reads the support function
(hence the convex hull) of an unknown inclusion off the growth rate of an
indicator function.  Companion algebra verifies jump conditions, the
frequency bound, and the background reduction identities.
"""

# cli is left out so that ``python -m enclosure_kit.cli`` runs without
# runpy's double-import warning; ``from enclosure_kit import cli`` loads it.
from . import enclosure, geometry, materials, meshing, solver
from .errors import EnclosureKitError

__version__ = "0.1.0"

__all__ = [
    "cli",
    "enclosure",
    "geometry",
    "materials",
    "meshing",
    "solver",
    "EnclosureKitError",
    "__version__",
]
