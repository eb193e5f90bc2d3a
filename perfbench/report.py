"""Run every workload untraced and traced, and print all metrics with their units.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints, per workload, the end-to-end metrics, the tail's percentile and op
count and the failed/attempted ops of an untraced run, then the per-layer
metrics of a traced run.
"""

import argparse
import os
import shutil
import sys

from run import END_TO_END, PER_LAYER, WORK_ROOT, WORKLOADS, run_workload, tail


def measure(name: str, seed: int, seconds: float, trace: bool):
    work = WORK_ROOT / f"report-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, measurement, _ = run_workload(WORKLOADS[name](seed, work), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = {metric: m["value"] for metric, m in result["metrics"].items()}
    if not trace:
        _, percentile, n = tail(measurement.times)
        values["op_s_tail at"] = f"p{percentile:.0f}/{n}"
    values["fail_ratio"] = f"{result['failed']}/{result['attempted']}"
    return values


def print_table(title: str, rows: dict[str, str], results: dict[str, dict]) -> None:
    width = max(len(name) for name in rows) + 2
    print(f"\n{title}")
    print("metric".ljust(width) + "unit".ljust(7) + "".join(w.rjust(18) for w in results))
    for name, unit in rows.items():
        cells = [r[name] for r in results.values()]
        print(name.ljust(width) + unit.ljust(7) + "".join(
            f"{c:>18.6g}" if isinstance(c, (int, float)) else f"{c:>18}" for c in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    untraced = {w: measure(w, args.seed, args.seconds, False) for w in WORKLOADS}
    traced = {w: measure(w, args.seed, args.seconds, True) for w in WORKLOADS}
    extra = {"op_s_tail at": "", "fail_ratio": ""}
    print_table("end-to-end (untraced runs)", {**END_TO_END, **extra}, untraced)
    print_table("per-layer (traced runs)", {**PER_LAYER, "fail_ratio": ""}, traced)
    failed = [r["fail_ratio"] for r in [*untraced.values(), *traced.values()] if not r["fail_ratio"].startswith("0/")]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
