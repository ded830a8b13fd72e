"""The full benchmark grid from the library API.

Five cell geometries times six time steps, each solved deterministically
and by Monte Carlo, with pass/fail marks against the reference values.
The CLI equivalent is `cellescape bench --particles 100000 --seed 0`.
"""

from cellescape import McConfig, QuadratureConfig
from cellescape.bench import render_benchmark, run_benchmark

# Small particle count keeps the demo quick; the acceptance runs use 1e6.
artifact = run_benchmark(QuadratureConfig(abs_tol=1e-5, rel_tol=0.0), McConfig(particles=10**5, seed=0))
print(render_benchmark(artifact))
