"""Worker process of the large-fit workload.

    PYTHONPATH=src python perfbench/fit_worker.py PANEL.npy T_IN PERIODS

Loads a (T, N) return panel, runs one warm-up op and prints ``ready``.  It
then reads one line from stdin: ``quit``, or ``go SECONDS TRACE``.  On ``go``
it runs ops for SECONDS and prints one JSON line with each op's time, check
result and high-water RSS.  An op is the in-process fit
estimate_moments -> solve_spectral_mvo -> retrieve_allocation -> run_strategy
on the first T_IN rows, evaluated on the rest.  With TRACE=1 it alternates
untraced and traced ops, adds one op under tracemalloc and also prints the
spans.

The process never sees the synthesis, so its RSS is the fit's own.
"""

import json
import math
import resource
import sys
import time
import traceback
import tracemalloc

import numpy as np

import specport.backtest as backtest
import specport.moments as moments
import specport.optimize as optimize
from specport.basis import FrequencyGrid

from tracer import Tracer

SIGMA0_ANNUAL = 0.01
PERIODS_PER_YEAR = 12
CHECK_RTOL = 1e-8


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fit:
    def __init__(self, values: np.ndarray, t_in: int, periods) -> None:
        n_samples, n_assets = values.shape
        self.in_values = values[:t_in]
        self.t_out = np.arange(t_in, n_samples)
        self.out_panel = backtest.ReturnsPanel(
            timestamps=tuple(range(t_in, n_samples)),
            returns=values[t_in:],
            periods_per_year=PERIODS_PER_YEAR,
            asset_names=tuple(f"A{i + 1}" for i in range(n_assets)),
        )
        self.grid = FrequencyGrid.from_periods(periods)
        self.risk = optimize.RiskSpec(sigma0=SIGMA0_ANNUAL / math.sqrt(PERIODS_PER_YEAR))

    def run(self):
        est = moments.estimate_moments(self.in_values, self.grid)
        weights = optimize.solve_spectral_mvo(est, self.risk)
        path = optimize.retrieve_allocation(weights, self.t_out)
        series = backtest.run_strategy(self.out_panel, path)
        return est, weights, path, series

    def check(self, est, weights, path, series) -> bool:
        """Variance target and stationarity of the ridge-regularized problem.

        w^H (R + ridge I) w = sigma0^2 and m = 2 lambda (R + ridge I) w; the
        allocation path and portfolio returns are finite.
        """
        w = weights.weights.full()
        mean = est.mean.full()
        rw = est.covariance @ w + weights.ridge_used * w
        sigma2 = self.risk.sigma0**2
        variance_ok = abs(np.vdot(w, rw).real - sigma2) <= CHECK_RTOL * sigma2
        residual = np.linalg.norm(mean - 2.0 * weights.lagrange_multiplier * rw)
        stationary_ok = residual <= CHECK_RTOL * np.linalg.norm(mean)
        finite_ok = np.all(np.isfinite(path)) and np.all(np.isfinite(series))
        return bool(variance_ok and stationary_ok and finite_ok)

    def timed_op(self) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            result = self.run()
            elapsed = time.perf_counter() - start
            return elapsed, self.check(*result)
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc()
            return time.perf_counter() - start, False


def main() -> int:
    panel_path, t_in, periods = sys.argv[1:4]
    fit = Fit(np.load(panel_path), int(t_in), tuple(int(p) for p in periods.split(",")))
    fit.timed_op()
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    tracer = Tracer()
    out = {"times": [], "ok": [], "rss_mb": [], "traced_times": []}
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            tracer.install()
            elapsed, ok = fit.timed_op()
            tracer.uninstall()
            tracer.op += 1
            out["traced_times"].append(elapsed)
        else:
            elapsed, ok = fit.timed_op()
            out["times"].append(elapsed)
            out["rss_mb"].append(_rss_mb())
        out["ok"].append(ok)
        traced = trace and not traced
        if time.perf_counter() >= deadline and not traced:
            break
    if trace:
        tracemalloc.start()
        tracer.install()
        _, ok = fit.timed_op()
        tracer.uninstall()
        tracemalloc.stop()
        out["ok"].append(ok)
        out["peak_op"] = tracer.op
        out["spans"], out["counts"] = tracer.spans, tracer.counts
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
