"""The full protocol on the bundled synthetic monthly market.

Moments are estimated on 2010-2014, allocations held fixed (as a function of
calendar position) through 2015-2020, and compared against variance-targeted
classical MVO and equal weight.  Equivalent to:

    specport backtest --data data/synthetic_monthly_prices.csv --boundary 2015-01
"""

from pathlib import Path

from specport import ProtocolConfig, run_protocol

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_monthly_prices.csv"

report = run_protocol(
    ProtocolConfig(
        data=str(DATA),
        boundary="2015-01",
        grids=((12,), (12, 6), (12, 6, 3)),
        sigma0_annual=0.01,
    )
)
print(report.render_text())

out_dir = Path(__file__).resolve().parent / "backtest_output"
paths = report.write_outputs(out_dir)
print("artifacts:")
for key in sorted(paths):
    print(f"  {key}: {paths[key]}")
