"""The geometric heart of the solver: overlap of a cell with its translate.

For a FIXED step d, the probability of staying inside the cell equals the
volume fraction of the cell covered by the cell shifted by -d.  In the
reference cells this has piecewise closed forms.  Each ``ElementKind``
names its reference cell, and ``stay_fraction`` takes a kind or its name.
This demo prints a few values, shows the symmetry and monotonicity of the
overlap, and plots the stay fraction along rays if matplotlib is available.
"""

import numpy as np

from cellescape import ElementKind, conditional_escape, mesh_element, stay_fraction

# A few hand-checkable values on the unit square: shifting by half the side
# in both directions leaves a quarter of the area overlapping.
print("stay fraction, unit square, step (0.5, 0.5):",
      stay_fraction(ElementKind.PARALLELOGRAM, [0.5, 0.5]))
print("stay fraction, unit triangle, step (0.5, -0.25):",
      stay_fraction("triangle", [0.5, -0.25]))
print("stay fraction, unit tetrahedron, step (0.5, 0, 0):",
      stay_fraction(ElementKind.TETRAHEDRON, [0.5, 0.0, 0.0]))

# The overlap of a set with its own translate is even in the translation,
# and it can only shrink as the step grows along a fixed direction.
rng = np.random.default_rng(0)
steps = rng.uniform(-1, 1, size=(5, 2))
print("\nsymmetry d -> -d:",
      np.array_equal(stay_fraction(ElementKind.TRIANGLE, steps),
                     stay_fraction(ElementKind.TRIANGLE, -steps)))
ray = np.outer(np.linspace(0, 1.5, 7), [0.6, 0.8])
print("stay along a ray (monotone):",
      np.round(stay_fraction(ElementKind.TRIANGLE, ray), 4))

# Arbitrary cells reduce to the reference cells through the affine map, so
# the conditional escape probability needs no new geometry:
triangle = mesh_element("triangle", [[0, 0], [2, 0], [3, 2]])
print("\nconditional escape, benchmark triangle, step (2, 0):",
      conditional_escape(triangle, [2.0, 0.0]))
print("conditional escape, benchmark triangle, step (0.2, 0.1):",
      round(conditional_escape(triangle, [0.2, 0.1]), 6))
# the element keeps that map as ``triangle.affine_map``; it takes the step
# to reference-cell coordinates, where the stay fraction gives the same value
local = triangle.affine_map.local_step([0.2, 0.1])
print("1 - stay fraction of the reference-cell step:",
      round(1.0 - stay_fraction(ElementKind.TRIANGLE, local), 6))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    t = np.linspace(0.0, 1.6, 400)
    fig, ax = plt.subplots(figsize=(6, 4))
    for cell, direction in [
        (ElementKind.PARALLELOGRAM, [1.0, 0.0]),
        (ElementKind.PARALLELOGRAM, [1.0, 1.0]),
        (ElementKind.TRIANGLE, [1.0, 0.0]),
        (ElementKind.TRIANGLE, [-1.0, -1.0]),
    ]:
        d = np.outer(t, np.asarray(direction) / np.linalg.norm(direction))
        ax.plot(t, stay_fraction(cell, d), label=f"{cell.value}, dir {direction}")
    ax.set_xlabel("step magnitude")
    ax.set_ylabel("stay fraction")
    ax.legend()
    fig.tight_layout()
    fig.savefig("stay_fractions.png", dpi=120)
    print("\nwrote stay_fractions.png")
