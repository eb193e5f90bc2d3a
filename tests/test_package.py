"""The package's public names: each is declared once, in its own module's ``__all__``; and one value rule for
every public type."""

import dataclasses

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
    specport.AugmentedVector: lambda: specport.AugmentedVector.from_upper(np.array([1.0 + 2.0j, -3.0j])),
    specport.AugmentedSpectralBasis: lambda: specport.build_basis(5, grid(), 2),
    specport.SpectralMoments: estimated,
    specport.PsdMatrix: lambda: specport.compute_psd(estimated()),
    specport.SynthSpec: lambda: specport.seasonal_market_spec(2, horizon=24),
    specport.RiskSpec: lambda: specport.RiskSpec(sigma0=0.01, ridge=1e-6),
    specport.SpectralWeights: lambda: specport.solve_spectral_mvo(estimated(), specport.RiskSpec(sigma0=0.01)),
    specport.PricePanel: lambda: specport.PricePanel(
        timestamps=(0, 1, 2), prices=np.array([[1.0], [1.5], [2.0]]), asset_names=("A",)
    ),
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
    assert len(PUBLIC_DATACLASSES) == 13
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
