"""A heavier-tailed step law: one flight of a velocity-jump process.

The particle travels for an exponentially distributed time with a Gaussian
velocity, so one step is v * T.  The density is an exponential mixture of
Gaussians; it diverges (integrably) at zero step.  The deterministic
solver integrates down to the zero step: in 1D the logarithmic divergence
is resolved by bisection, and in 2D and 3D the Jacobian of its cones from
the zero step cancels the divergence.
"""

import numpy as np

from cellescape import (
    McConfig,
    VelocityJumpStep,
    WienerStep,
    escape_probability_det,
    escape_probability_mc,
    mesh_element,
    theoretical_stat_error,
)

law = VelocityJumpStep(rate=1.0, dim=1)

# The mixture density is a 1D integral over the travel time, taken for a
# whole batch of steps at once by one fixed quadrature rule:
for x in (0.1, 0.5, 1.0, 3.0):
    print(f"density at |dx| = {x}: {law.density([x]):.6f}")

# Sampling is direct: T ~ Exp(rate), v ~ N(0, 1).
samples = law.sample(np.random.default_rng(0), 10**6)[:, 0]
print(f"\nsample second moment {np.mean(samples**2):.4f} (exact: 2 / rate^2 = 2)")

# Escape from the benchmark segment, both ways:
segment = mesh_element("segment", [[0.0], [2.0]])
det = escape_probability_det(segment, law)
mc = escape_probability_mc(segment, law, McConfig(particles=10**6, seed=6))
print(f"\nescape, velocity-jump rate 1: det {det.value:.6f} +- {det.error_estimate:.1e}")
print(f"                              mc  {mc.value:.6f}")
print(f"|diff| = {abs(det.value - mc.value):.1e} "
      f"<= 4 sigma = {4 * theoretical_stat_error(det.value, 10**6):.1e}")

# Same time scale, different tails: compare against Gaussian steps whose
# variance matches the flight's mean square displacement E[(vT)^2] = 2.
gauss = WienerStep(dt=2.0, dim=1)
print(f"\nGaussian steps with matching variance escape with p = "
      f"{escape_probability_det(segment, gauss).value:.6f}; the flight law's "
      "sharp peak at zero keeps more particles inside.")
