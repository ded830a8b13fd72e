import importlib
import re
from pathlib import Path

import pytest

import cellescape

# The public names of the package, pinned: adding or dropping one is a
# change of the public interface.
PUBLIC_NAMES = {
    "__version__",
    "AffineMap",
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
    "SamplerUnavailable",
    "StepDistribution",
    "ToleranceNotMet",
    "TooFewRuns",
    "VelocityJumpStep",
    "WienerStep",
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
    "load_element",
    "measure",
    "mesh_element",
    "repeat_escape_probability_mc",
    "sample_uniform",
    "stay_fraction",
    "theoretical_stat_error",
    "transition_probability_det_1d",
    "transition_probability_mc",
}

MODULES = ("conditional", "distributions", "errors", "geometry", "montecarlo", "quadrature")


def test_package_all_is_pinned():
    assert len(PUBLIC_NAMES) == 41
    assert len(cellescape.__all__) == len(set(cellescape.__all__))
    assert set(cellescape.__all__) == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from cellescape import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(cellescape, name)


@pytest.mark.parametrize("module", MODULES)
def test_module_names_are_public(module):
    names = importlib.import_module(f"cellescape.{module}").__all__
    assert len(names) == len(set(names))
    assert set(names) <= PUBLIC_NAMES


def test_package_and_project_versions_agree():
    # the report's provenance.version names the Monte Carlo stream rule, so
    # the installed metadata must carry the same version as the package
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE).group(1)
    assert project == cellescape.__version__
