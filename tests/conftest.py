import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cellescape import ElementKind, mesh_element

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def benchmark_elements():
    """The five reference geometries used throughout the numeric checks."""
    return {
        "segment": mesh_element("segment", [[0.0], [2.0]]),
        "triangle": mesh_element("triangle", [[0, 0], [2, 0], [3, 2]]),
        "parallelogram": mesh_element("parallelogram", [[0, 0], [2, 0], [1, 2], [3, 2]]),
        "tetrahedron": mesh_element(
            "tetrahedron", [[0, 0, 0], [2, 0, 0], [3, 2, 0], [1, 1, 1]]
        ),
        "parallelepiped": mesh_element(
            "parallelepiped",
            [
                [0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2],
                [3, 2, 1], [2, 0, 2], [3, 2, 3], [1, 2, 3],
            ],
        ),
    }


@pytest.fixture(scope="session")
def schema_dir():
    return REPO_ROOT / "schemas"


def random_element(kind, rng, scale=1.0, max_cond=20.0):
    """A well-conditioned random element of the given kind."""
    n = ElementKind(kind).dim
    while True:
        # the first vertex and one per edge: the spanning ones
        vertices = rng.normal(size=(n + 1, n)) * scale
        try:
            element = mesh_element(kind, vertices)
            amap = element.affine_map
        except Exception:
            continue
        if np.linalg.cond(amap.matrix) <= max_cond:
            return element
