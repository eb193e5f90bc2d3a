"""Frequency-domain mean-variance portfolio optimization with augmented complex statistics.

The library decomposes multivariate return series on a small grid of angular
frequencies, estimates the centred first and second moments of the projected
coefficients (mean, covariance, pseudo-covariance, dual-frequency blocks),
solves the variance-targeted allocation problem in closed form, and reads the
resulting time-varying weight path back into the time domain for backtesting
against classical baselines.
"""

__version__ = "0.1.0"

from .basis import (
    AugmentedSpectralBasis,
    AugmentedVector,
    FrequencyGrid,
    build_basis,
    commensurate_length,
    project_spectrum,
    synthesize_time_value,
)
from .backtest import (
    BacktestReport,
    PricePanel,
    ProtocolConfig,
    ReturnsPanel,
    StrategyResult,
    compute_returns,
    ingest_csv,
    read_returns_csv,
    run_protocol,
    run_strategy,
    sharpe_ratio,
    split_sample,
)
from .errors import (
    DegenerateMeanError,
    FactorizationError,
    IngestionError,
    SingularCovarianceError,
    SpecportError,
    SymmetryViolationError,
    ValidationError,
)
from .moments import (
    PsdMatrix,
    SpectralMoments,
    compute_psd,
    estimate_moments,
    estimate_spectral_mean,
    read_moments_csv,
    write_moments_csv,
)
from .optimize import (
    RiskSpec,
    SpectralWeights,
    StaticWeights,
    equal_weight,
    retrieve_allocation,
    solve_classical_mvo,
    solve_spectral_mvo,
)
from .synthesis import (
    SynthSpec,
    example1_scenario,
    seasonal_market_spec,
    synthesize_panel,
    synthesize_values,
)

__all__ = [
    "__version__",
    # basis
    "FrequencyGrid",
    "AugmentedVector",
    "AugmentedSpectralBasis",
    "build_basis",
    "synthesize_time_value",
    "project_spectrum",
    "commensurate_length",
    # moments
    "SpectralMoments",
    "PsdMatrix",
    "estimate_spectral_mean",
    "estimate_moments",
    "compute_psd",
    "write_moments_csv",
    "read_moments_csv",
    # synthesis
    "SynthSpec",
    "synthesize_values",
    "synthesize_panel",
    "example1_scenario",
    "seasonal_market_spec",
    # optimize
    "RiskSpec",
    "SpectralWeights",
    "StaticWeights",
    "solve_spectral_mvo",
    "solve_classical_mvo",
    "equal_weight",
    "retrieve_allocation",
    # backtest
    "PricePanel",
    "ReturnsPanel",
    "ingest_csv",
    "read_returns_csv",
    "compute_returns",
    "split_sample",
    "run_strategy",
    "sharpe_ratio",
    "ProtocolConfig",
    "StrategyResult",
    "BacktestReport",
    "run_protocol",
    # errors
    "SpecportError",
    "ValidationError",
    "SymmetryViolationError",
    "FactorizationError",
    "DegenerateMeanError",
    "SingularCovarianceError",
    "IngestionError",
]
