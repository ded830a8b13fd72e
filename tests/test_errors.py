"""Malformed input raises ``InputError``, a ``ValueError`` too, naming the bad field."""

import math
import pickle

import numpy as np
import pytest

from cellescape import (
    CellEscapeError,
    DegenerateElement,
    DimensionMismatch,
    EmptyInterval,
    InputError,
    McConfig,
    QuadratureConfig,
    StepDistribution,
    WienerStep,
    conditional_escape,
    conditional_transition_1d,
    contains,
    escape_probability_det,
    escape_probability_mc,
    mesh_element,
    stay_fraction,
    theoretical_stat_error,
    transition_probability_det_1d,
    transition_probability_mc,
)


class ShortLaw(StepDistribution):
    """A 1D law that samples one step too few."""

    dim = 1

    def sample(self, rng, size):
        return np.zeros((size - 1, 1))


class NaNLaw(StepDistribution):
    """A 1D law that samples NaN steps."""

    dim = 1

    def sample(self, rng, size):
        return np.full((size, 1), math.nan)


@pytest.mark.parametrize("error", [DegenerateElement, DimensionMismatch, EmptyInterval])
def test_narrower_errors_are_input_errors(error):
    assert issubclass(error, InputError)
    exc = error("vertices", "message")
    assert exc.field == "vertices"
    assert str(exc) == "field 'vertices': message"


@pytest.mark.parametrize("error", [InputError, DegenerateElement, DimensionMismatch, EmptyInterval])
def test_input_errors_pickle(error):
    copy = pickle.loads(pickle.dumps(error("source", "message")))
    assert type(copy) is error
    assert (copy.field, str(copy)) == ("source", "field 'source': message")


def test_input_error_is_a_value_error_and_a_library_error():
    assert issubclass(InputError, ValueError)
    assert issubclass(InputError, CellEscapeError)


def _segment():
    return mesh_element("segment", [[0.0], [1.0]])


def _triangle():
    return mesh_element("triangle", [[0, 0], [1, 0], [0, 1]])


def _mc(law):
    return escape_probability_mc(_segment(), law, McConfig(particles=100, seed=0))


# (call, error, field)
CASES = {
    "degenerate-element": (lambda: mesh_element("triangle", [[0, 0], [1, 1], [2, 2]]), DegenerateElement, "vertices"),
    "point-of-contains": (lambda: contains(_triangle(), [0.5]), DimensionMismatch, "point"),
    "step-of-stay-fraction": (lambda: stay_fraction("triangle", [0.5, 0.5, 0.5]), DimensionMismatch, "step"),
    "non-finite-step": (lambda: stay_fraction("segment", [math.inf]), DimensionMismatch, "step"),
    "step-of-conditional-escape": (lambda: conditional_escape(_triangle(), 0.5), DimensionMismatch, "step"),
    "steps-of-density": (lambda: WienerStep(0.1, 2).density([0.5]), DimensionMismatch, "steps"),
    "points-of-affine-map": (lambda: _triangle().affine_map.to_global(np.zeros((4, 3))), DimensionMismatch, "points"),
    "law-dimension": (lambda: escape_probability_det(_triangle(), WienerStep(0.1, 1)), DimensionMismatch, "dim"),
    "target-dimension": (lambda: transition_probability_mc(_segment(), _triangle(), WienerStep(0.1, 1)),
                         DimensionMismatch, "target"),
    "law-samples-too-few": (lambda: _mc(ShortLaw()), DimensionMismatch, "law"),
    "law-samples-nan": (lambda: _mc(NaNLaw()), DimensionMismatch, "law"),
    "empty-source": (lambda: conditional_transition_1d((1, 0), (0, 1), 0.5), EmptyInterval, "source"),
    "empty-target": (lambda: transition_probability_det_1d((0, 1), (2, 2), WienerStep(0.1, 1)),
                     EmptyInterval, "target"),
    "abs-tol-0": (lambda: QuadratureConfig(abs_tol=0.0), InputError, "abs_tol"),
    "rel-tol-nan": (lambda: QuadratureConfig(rel_tol=math.nan), InputError, "rel_tol"),
    "max-subdivisions-0": (lambda: QuadratureConfig(max_subdivisions=0), InputError, "max_subdivisions"),
    "particles-0": (lambda: McConfig(particles=0), InputError, "particles"),
    "seed-negative": (lambda: McConfig(seed=-1), InputError, "seed"),
    "runs-0": (lambda: McConfig(runs=0), InputError, "runs"),
    "p-above-1": (lambda: theoretical_stat_error(1.5, 10), InputError, "p"),
    "p-nan": (lambda: theoretical_stat_error(math.nan, 10), InputError, "p"),
    "n-0": (lambda: theoretical_stat_error(0.5, 0), InputError, "n"),
    "dim-4": (lambda: WienerStep(0.1, 4), InputError, "dim"),
    "sample-size-negative": (lambda: WienerStep(0.1, 1).sample(np.random.default_rng(0), -1), InputError, "size"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_check_names_its_field(case):
    call, error, field = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert info.value.field == field
    assert str(info.value).startswith(f"field '{field}': ")
