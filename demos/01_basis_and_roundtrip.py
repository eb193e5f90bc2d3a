"""The augmented spectral basis: orthonormal rows, exact round trips.

A real N-vector at sample index t is mapped to 2*M*N complex coefficients and
back.  Because the basis rows are orthonormal, the per-sample projection is a
right inverse of the synthesis -- no least-squares solve needed.
"""

import numpy as np

from specport import (
    FrequencyGrid,
    build_basis,
    commensurate_length,
    project_spectrum,
    synthesize_time_value,
)

rng = np.random.default_rng(0)

grid = FrequencyGrid.from_periods((12, 8, 6))
print("grid periods:", grid.periods, "-> angular frequencies:", np.round(grid.omegas, 4))
print("least common period:", grid.least_common_period(), "samples")
print("snap a 100-sample window:", commensurate_length(100, grid))

basis = build_basis(t=7, grid=grid, n_assets=2)
gram = basis.values @ basis.values.conj().T
print("\nbasis shape:", basis.values.shape, "(N x 2MN)")
print("row orthonormality ||B B^H - I||:", f"{np.max(np.abs(gram - np.eye(2))):.2e}")

x = rng.standard_normal(2)
spectrum = project_spectrum(basis, x)
back = synthesize_time_value(basis, spectrum)
print("\nround trip at t=7:")
print("  x        =", x)
print("  B^H x    =", np.round(spectrum.upper, 4), "(upper half; lower half is its conjugate)")
print("  B (B^H x)=", back)
print("  max error:", f"{np.max(np.abs(back - x)):.2e}")

# averaged over whole periods the basis gram matrix is I/(2M): this is the
# factor that separates the raw projection-average scale from coefficient scale
total = np.zeros((12, 12), dtype=complex)
for t in range(grid.least_common_period()):
    values = build_basis(t, grid, 2).values
    total += values.conj().T @ values
average = total / grid.least_common_period()
print("\ntime-averaged B^H B deviation from I/(2M):", f"{np.max(np.abs(average - np.eye(12) / 6)):.2e}")
