"""Capture the bundled-backtest reference from the current sources.

    python3 perfbench/capture_reference.py

Runs the README's canonical backtest once and stores its Sharpe table and
cumulative returns in perfbench/reference/bundled_backtest.json, against which
the bundled-backtest check compares every op to 1e-10.  Rerun it only when a
change of results is intended.
"""

import json
import shutil
import sys

from run import REFERENCE, WORK_ROOT, BundledBacktest, read_table, run_process


def main() -> int:
    work = WORK_ROOT / "capture-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = BundledBacktest(seed=0, work=work, reference={})
        _, code, _ = run_process([sys.executable, "-m", "specport.cli"] + workload.argv(), workload.log)
        if code != 0:
            print(f"backtest failed with exit code {code}", file=sys.stderr)
            return 1
        _, names, sharpe = read_table(workload.out_dir / "plot_sharpe.csv")
        header, stamps, cumulative = read_table(workload.out_dir / "cumulative_returns.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        "sharpe": dict(zip(names, sharpe[:, 0].tolist())),
        "cumulative": {"header": header, "timestamps": stamps, "values": cumulative.tolist()},
    }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
