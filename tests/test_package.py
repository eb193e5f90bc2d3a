"""The package's public names: each is declared once, in its own module's ``__all__``; one value rule for
every public type, whose N is read from its arrays; and one rule for scalar parameters."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import specport
from specport import backtest, basis, errors, moments, optimize, synthesis

MODULES = (basis, moments, synthesis, optimize, backtest, errors)


def test_package_exports_exactly_each_module_all():
    declared = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert specport.__all__ == declared
    assert len(set(declared)) == len(declared)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(specport, name)
            assert obj is vars(module)[name]
            assert obj.__module__ == module.__name__, name
    namespace = {}
    exec("from specport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(specport.__all__)
    subclasses = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, specport.SpecportError)
    }
    assert set(errors.__all__) == subclasses


def grid():
    return specport.FrequencyGrid.from_periods([12, 6])


def returns_panel():
    returns = 0.01 * np.random.default_rng(0).standard_normal((40, 2))
    return specport.ReturnsPanel(
        timestamps=tuple(range(40)), returns=returns, periods_per_year=12, asset_names=("A", "B")
    )


def estimated():
    return specport.estimate_moments(returns_panel().returns, grid())


def report():
    return specport.run_protocol(specport.ProtocolConfig(data=returns_panel(), boundary=30, grids=((12,),)))


# one factory per public dataclass: each call builds a new instance from equal, freshly allocated inputs
FACTORIES = {
    specport.FrequencyGrid: grid,
    specport.AugmentedVector: lambda: specport.AugmentedVector(np.array([1.0 + 2.0j, -3.0j])),
    specport.AugmentedSpectralBasis: lambda: specport.build_basis(5, grid(), 2),
    specport.SpectralMoments: estimated,
    specport.PsdMatrix: lambda: specport.compute_psd(estimated()),
    specport.SynthSpec: lambda: specport.seasonal_market_spec(2, horizon=24),
    specport.RiskSpec: lambda: specport.RiskSpec(sigma0=0.01, ridge=1e-6),
    specport.SpectralWeights: lambda: specport.solve_spectral_mvo(estimated(), specport.RiskSpec(sigma0=0.01)),
    specport.ReturnsPanel: returns_panel,
    specport.ProtocolConfig: lambda: specport.ProtocolConfig(data="prices.csv", boundary="2015-01"),
    specport.StrategyResult: lambda: report().strategies[0],
    specport.BacktestReport: report,
}
# the types that hold no array compare by value; every other type compares by identity
VALUE_TYPES = (specport.FrequencyGrid, specport.RiskSpec, specport.ProtocolConfig)
PUBLIC_DATACLASSES = [
    obj for obj in map(vars(specport).get, specport.__all__) if isinstance(obj, type) and dataclasses.is_dataclass(obj)
]


def test_every_public_dataclass_has_a_factory():
    assert len(PUBLIC_DATACLASSES) == 12
    assert set(FACTORIES) == set(PUBLIC_DATACLASSES)


@pytest.mark.parametrize("kind", PUBLIC_DATACLASSES, ids=lambda kind: kind.__name__)
def test_public_types_hash_compare_and_hold_read_only_arrays(kind):
    first, second = FACTORIES[kind](), FACTORIES[kind]()
    assert type(first) is type(second) is kind
    assert hash(first) == hash(first) and first == first
    if kind in VALUE_TYPES:
        assert first == second and hash(first) == hash(second)
    else:
        assert first != second
    for field in dataclasses.fields(first):
        value = getattr(first, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            assert not isinstance(item, np.ndarray) or not item.flags.writeable, f"{kind.__name__}.{field.name}"


def test_a_config_holding_a_panel_is_hashable():
    panel = returns_panel()
    config = specport.ProtocolConfig(data=panel, boundary=30)
    assert hash(config) == hash(specport.ProtocolConfig(data=panel, boundary=30))
    assert config != specport.ProtocolConfig(data=returns_panel(), boundary=30)


# the N of each public type that exposes n_assets, read from its arrays
ARRAY_ASSETS = {
    specport.AugmentedSpectralBasis: lambda basis: basis.values.shape[0],
    specport.SpectralMoments: lambda moments: moments.managed_covariance.shape[0] // (2 * moments.grid.n_bins),
    specport.SynthSpec: lambda spec: spec.managed_covariance.shape[0] // (2 * spec.grid.n_bins),
    specport.SpectralWeights: lambda weights: weights.managed_weights.size // (2 * weights.grid.n_bins),
    specport.ReturnsPanel: lambda panel: panel.returns.shape[1],
}


@pytest.mark.parametrize("kind", PUBLIC_DATACLASSES, ids=lambda kind: kind.__name__)
def test_n_assets_is_read_from_the_arrays_never_set(kind):
    # a settable N could only disagree with the data it counts
    instance = FACTORIES[kind]()
    assert hasattr(instance, "n_assets") == (kind in ARRAY_ASSETS)
    assert "n_assets" not in [field.name for field in dataclasses.fields(kind)]
    if kind in ARRAY_ASSETS:
        assert type(instance.n_assets) is int and instance.n_assets == ARRAY_ASSETS[kind](instance) >= 1


def test_augmented_types_take_only_their_defining_data():
    # each complex array is computed from the data that defines it and read-only, so it cannot disagree with them
    parameters = {
        specport.AugmentedVector: ["upper"],
        specport.AugmentedSpectralBasis: ["t", "grid", "n_assets"],
        specport.PsdMatrix: ["moments"],
    }
    for kind, names in parameters.items():
        assert list(inspect.signature(kind).parameters) == names, kind.__name__
    vector = FACTORIES[specport.AugmentedVector]()
    basis = FACTORIES[specport.AugmentedSpectralBasis]()
    psd = FACTORIES[specport.PsdMatrix]()
    grid, n_assets, size = basis.grid, basis.n_assets, psd.moments.n_assets
    scale = 1.0 / math.sqrt(2 * grid.n_bins)
    phases = [np.exp(1j * omega * (basis.t % period)) * scale for omega, period in zip(grid.omegas, grid.periods)]
    upper = np.hstack([phase * np.eye(n_assets) for phase in phases])
    blocks = [slice(m * size, (m + 1) * size) for m in range(grid.n_bins)]
    means = [psd.moments.mean.upper[block] for block in blocks]
    derived = {
        "lower": (vector.lower, np.conj(vector.upper)),
        "values": (basis.values, np.hstack([upper, np.conj(upper)])),
        "matrices": (
            psd.matrices,
            [np.outer(mean, np.conj(mean)) + psd.moments.covariance[block, block] for mean, block in zip(means, blocks)],
        ),
    }
    for name, (value, definition) in derived.items():
        assert not value.flags.writeable and np.array_equal(value, definition), name
    # no error is left for a spectrum or basis that is not conjugate-symmetric: none can be built
    assert errors.__all__ == [
        "SpecportError",
        "ValidationError",
        "FactorizationError",
        "DegenerateMeanError",
        "SingularCovarianceError",
        "IngestionError",
    ]


def test_settable_values_are_counted():
    # The values a caller can set: the parameters of every public callable, a dataclass's init fields
    # included.  A change that alters this number updates it here and states both counts in CHANGES.md.
    callables = [
        obj
        for obj in map(vars(specport).get, specport.__all__)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]
    assert sum(len(inspect.signature(obj).parameters) for obj in callables) == 87


def solved_weights(**fields):
    return dataclasses.replace(FACTORIES[specport.SpectralWeights](), **fields)


def config(**fields):
    return specport.ProtocolConfig(data="prices.csv", boundary="2015-01", **fields)


SERIES = [0.01, -0.02, 0.03]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: specport.RiskSpec(sigma0="0.01"), "sigma0 must be a real number, got '0.01'"),
        (lambda: specport.RiskSpec(sigma0=True), "sigma0 must be a real number, got True"),
        (lambda: specport.RiskSpec(sigma0=None), "sigma0 must be a real number, got None"),
        (lambda: specport.RiskSpec(sigma0=0.01, ridge="0"), "ridge must be a real number, got '0'"),
        (lambda: specport.RiskSpec(sigma0=0.01, ridge=1e-6 + 0j), "ridge must be a real number, got (1e-06+0j)"),
        (lambda: specport.RiskSpec(sigma0=10**400), f"sigma0 must be positive and finite, got {10**400}"),
        (lambda: config(sigma0_annual="0.01"), "sigma0_annual must be a real number, got '0.01'"),
        (lambda: config(demean="no"), "demean must be a bool, got 'no'"),
        (lambda: config(demean=1), "demean must be a bool, got 1"),
        (lambda: solved_weights(lagrange_multiplier="2"), "lagrange_multiplier must be a real number, got '2'"),
        (lambda: solved_weights(lagrange_multiplier=True), "lagrange_multiplier must be a real number, got True"),
        (lambda: solved_weights(ridge_used=None), "ridge_used must be a real number, got None"),
        (lambda: solved_weights(ridge_used=-1.0), "ridge_used must be finite and >= 0, got -1.0"),
        (lambda: specport.seasonal_market_spec(noise_vol=None), "noise_vol must be a real number, got None"),
        (lambda: specport.seasonal_market_spec(mean_amp=True), "mean_amp must be a real number, got True"),
        (
            lambda: specport.seasonal_market_spec(mean_amp=np.complex128(0.015)),
            "mean_amp must be a real number, got np.complex128(0.015+0j)",
        ),
        (lambda: specport.sharpe_ratio(SERIES, 0), "periods_per_year must be >= 1, got 0"),
        (lambda: specport.sharpe_ratio(SERIES, -1), "periods_per_year must be >= 1, got -1"),
        (lambda: specport.sharpe_ratio(SERIES, 12.0), "periods_per_year must be an integer, got 12.0"),
        # accepted: int and numpy numbers
        (lambda: specport.RiskSpec(sigma0=1, ridge=0), None),
        (lambda: specport.RiskSpec(sigma0=np.float32(0.01), ridge=np.float64(1e-6)), None),
        (lambda: config(sigma0_annual=np.float64(0.01), demean=np.bool_(True)), None),
        (lambda: solved_weights(lagrange_multiplier=np.float64(2.0)), None),
        (lambda: specport.seasonal_market_spec(mean_amp=np.float32(0.015), noise_vol=1), None),
        (lambda: specport.sharpe_ratio(SERIES, np.int64(12)), None),
    ],
    ids=[
        "sigma0-str",
        "sigma0-bool",
        "sigma0-none",
        "ridge-str",
        "ridge-complex",
        "sigma0-int-beyond-float64",
        "sigma0-annual-str",
        "demean-str",
        "demean-int",
        "multiplier-str",
        "multiplier-bool",
        "ridge-used-none",
        "ridge-used-negative",
        "noise-vol-none",
        "mean-amp-bool",
        "mean-amp-complex",
        "ppy-zero",
        "ppy-negative",
        "ppy-float",
        "int",
        "numpy-floats",
        "config-numpy",
        "multiplier-numpy",
        "spec-numpy-and-int",
        "ppy-numpy",
    ],
)
def test_scalar_parameters_are_real_numbers_named_when_refused(build, message):
    if message is None:
        build()
        return
    with pytest.raises(specport.ValidationError, match=f"^{re.escape(message)}$"):
        build()
