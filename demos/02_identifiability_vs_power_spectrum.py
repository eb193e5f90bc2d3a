"""Centred spectral moments identify what the power spectrum cannot.

The canned scenario hides two deterministic harmonics (periods 24 and 8) in
noise with 100x their power; the period-12 bin additionally carries a
cyclostationary envelope (nonzero pseudo-covariance).  The estimated spectral
mean localizes the harmonics cleanly, the pseudo-covariance flags the
cyclostationary bin, while the absolute (non-centred) spectrum is flat: mean
and covariance information are entangled there and the harmonics drown.
"""

import numpy as np

from specport import compute_psd, estimate_moments, example1_scenario, synthesize_values

spec = example1_scenario(seed=11, horizon=48000)
panel = synthesize_values(spec)
print(f"synthesized {panel.shape[0]} samples, 1 series; grid periods {spec.grid.periods}")

moments = estimate_moments(panel, spec.grid)
psd = compute_psd(moments)

print(f"\n{'bin':>3} {'period':>7} {'|mean|':>11} {'||R||':>11} {'||P||':>11} {'|P|/|R|':>8} {'abs moment':>11}")
for m in range(spec.grid.n_bins):
    mean_norm = np.linalg.norm(moments.bin_mean(m))
    cov_norm = np.linalg.norm(moments.bin_covariance(m), 2)
    pseudo_norm = np.linalg.norm(moments.bin_pseudo_covariance(m), 2)
    trace = psd.trace_per_bin()[m]
    print(
        f"{m:>3} {spec.grid.periods[m]:>7} {mean_norm:>11.4e} {cov_norm:>11.4e} "
        f"{pseudo_norm:>11.4e} {pseudo_norm / cov_norm:>8.3f} {trace:>11.4e}"
    )

mean_norms = np.array([np.linalg.norm(moments.bin_mean(m)) for m in range(5)])
traces = psd.trace_per_bin()
print("\nspectral mean peak-to-median: ", f"{mean_norms.max() / np.median(mean_norms):.1f}x  (harmonics stand out)")
print("abs-moment peak-to-median:    ", f"{traces.max() / np.median(traces):.3f}x (harmonics invisible)")
print("cyclostationary bin by |P|/|R|:", int(np.argmax([
    np.linalg.norm(moments.bin_pseudo_covariance(m), 2) / np.linalg.norm(moments.bin_covariance(m), 2)
    for m in range(5)
])), "(period 12)")
