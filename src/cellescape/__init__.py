"""Escape and transition probabilities of one Markov-process step on mesh cells.

A particle sits uniformly inside a mesh cell (segment, triangle,
parallelogram, tetrahedron, or parallelepiped) and takes one random step.
This package computes the probability that the step leaves the cell --
deterministically, by adaptive quadrature of the stay probability in
reference-cell coordinates, or stochastically, by a reproducible particle
estimator -- plus 1D cell-to-cell transition probabilities.

The public names are those of the modules' own ``__all__`` lists.
"""

__version__ = "0.9.0"

from . import conditional, distributions, errors, geometry, montecarlo, quadrature
from .conditional import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (conditional, distributions, errors, geometry, montecarlo, quadrature)
    for name in module.__all__
]
