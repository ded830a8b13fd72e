"""Escape and transition probabilities of one Markov-process step on mesh cells.

A particle sits uniformly inside a mesh cell (segment, triangle,
parallelogram, tetrahedron, or parallelepiped) and takes one random step.
This package computes the probability that the step leaves the cell --
deterministically, by adaptive quadrature of the stay probability in
reference-cell coordinates, or stochastically, by a reproducible particle
estimator -- plus 1D cell-to-cell transition probabilities.
"""

__version__ = "0.1.0"

from .conditional import (
    conditional_escape,
    conditional_transition_1d,
    stay_fraction,
)
from .distributions import (
    StepDistribution,
    VelocityJumpStep,
    WienerStep,
    distribution_from_dict,
    distribution_to_dict,
)
from .errors import (
    CellEscapeError,
    DegenerateElement,
    DensityUnavailable,
    DimensionMismatch,
    EmptyInterval,
    InputError,
    NonFiniteIntegrand,
    OriginSingularity,
    QuadratureFailure,
    SamplerUnavailable,
    ToleranceNotMet,
    TooFewRuns,
)
from .geometry import (
    AffineMap,
    Box,
    ElementKind,
    MeshElement,
    ReferenceCell,
    build_affine_map,
    contains,
    element_from_dict,
    element_to_dict,
    load_element,
    measure,
    mesh_element,
    sample_uniform,
    to_local,
)
from .montecarlo import (
    McConfig,
    empirical_stat_error,
    escape_probability_mc,
    repeat_escape_probability_mc,
    theoretical_stat_error,
    transition_probability_mc,
)
from .quadrature import (
    ProbabilityEstimate,
    QuadratureConfig,
    escape_probability_det,
    integrate_adaptive,
    transition_probability_det_1d,
)

__all__ = [
    "__version__",
    "AffineMap",
    "Box",
    "CellEscapeError",
    "DegenerateElement",
    "DensityUnavailable",
    "DimensionMismatch",
    "ElementKind",
    "EmptyInterval",
    "InputError",
    "McConfig",
    "MeshElement",
    "NonFiniteIntegrand",
    "OriginSingularity",
    "ProbabilityEstimate",
    "QuadratureConfig",
    "QuadratureFailure",
    "ReferenceCell",
    "SamplerUnavailable",
    "StepDistribution",
    "ToleranceNotMet",
    "TooFewRuns",
    "VelocityJumpStep",
    "WienerStep",
    "build_affine_map",
    "conditional_escape",
    "conditional_transition_1d",
    "contains",
    "distribution_from_dict",
    "distribution_to_dict",
    "element_from_dict",
    "element_to_dict",
    "empirical_stat_error",
    "escape_probability_det",
    "escape_probability_mc",
    "integrate_adaptive",
    "load_element",
    "measure",
    "mesh_element",
    "repeat_escape_probability_mc",
    "sample_uniform",
    "stay_fraction",
    "theoretical_stat_error",
    "to_local",
    "transition_probability_det_1d",
    "transition_probability_mc",
]
