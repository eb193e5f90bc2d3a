"""specport benchmark: three closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  One client
runs one op at a time from this process.  CLI ops are fresh
``python -m specport.cli backtest`` subprocesses with ``PYTHONPATH=src``;
large-fit ops run in a worker process.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import median_layers, op_layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference" / "bundled_backtest.json"
sys.path.insert(0, str(SRC))  # the checks read outputs with specport's own readers

SETUP_REPEATS = 3
IMPORT_PROBES = 3
IMPORTTIME_PROBES = 3
CHECK_ATOL = 1e-10
TAIL_BEYOND = 10

END_TO_END = {"op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "import.specport_s": "s",
    "import.scipy_s": "s",
    "backtest.ingest_csv.self_s": "s",
    "backtest.ingest_csv.rows": "count",
    "backtest.ingest_csv.rows_dropped": "count",
    "backtest.ingest_csv.bytes": "B",
    "backtest.compute_returns.self_s": "s",
    "backtest.run_protocol.self_s": "s",
    "backtest.run_strategy.self_s": "s",
    "backtest.sharpe_ratio.self_s": "s",
    "backtest.write_outputs.self_s": "s",
    "backtest.write_outputs.bytes": "B",
    "backtest.write_outputs.files": "count",
    "moments.write_moments_csv.self_s": "s",
    "moments.write_moments_csv.bytes": "B",
    "moments.write_moments_csv.rows": "count",
    "moments.estimate_moments.self_s": "s",
    "moments.estimate_moments.calls": "count",
    "moments.estimate_moments.dim_2mn": "count",
    "moments.estimate_moments.samples_discarded": "count",
    "moments.estimate_moments.cov_bytes_computed": "B",
    "moments.estimate_moments.peak_alloc_mb": "MB",
    "optimize.solve_spectral_mvo.self_s": "s",
    "optimize.solve_spectral_mvo.calls": "count",
    "optimize.solve_spectral_mvo.flops_computed": "flop",
    "optimize.solve_spectral_mvo.bytes_computed": "B",
    "optimize.solve_spectral_mvo.peak_alloc_mb": "MB",
    "optimize.solve_classical_mvo.self_s": "s",
    "optimize.retrieve_allocation.self_s": "s",
    "basis.synthesize_series.self_s": "s",
    "moments.read_moments_csv.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
# Counts derived from array shapes and file sizes; they repeat exactly.
COMPUTED = [name for name, unit in PER_LAYER.items() if unit in ("count", "B", "flop")]


def _env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


ENV = _env()


def seasonal_returns(seed: int, n_samples: int, n_assets: int, periods) -> np.ndarray:
    """Seasonal expected returns plus white noise: the model of seasonal_market_spec.

    Generated here rather than by specport.synthesis, so that the inputs stay
    the same when the program under test changes.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples)[:, np.newaxis]
    values = 0.02 * rng.standard_normal((n_samples, n_assets))
    for period in periods:
        amplitude = 0.015 * rng.uniform(0.6, 1.4, n_assets)
        phase = rng.uniform(0.0, 2.0 * math.pi, n_assets)
        values += amplitude * np.cos(2.0 * math.pi * t / period + phase)
    return values


def month_dates(year: int, month: int, count: int) -> list[str]:
    out = []
    for k in range(count):
        y, m = divmod(month - 1 + k, 12)
        out.append(f"{year + y:04d}-{m + 1:02d}-01")
    return out


def read_table(path) -> tuple[list[str], list[str], np.ndarray]:
    """A CSV with a header and a label column: (header, labels, float values)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]], dtype=np.float64)
    return rows[0], [row[0] for row in rows[1:]], values


def _close(actual, expected) -> bool:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    return bool(np.all((np.abs(actual - expected) <= CHECK_ATOL) | (np.isnan(actual) & np.isnan(expected))))


def run_process(command: list[str], log_path: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, high-water RSS in MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=ENV, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Measurement:
    """What one measured phase produced."""

    times: list[float] = field(default_factory=list)  # untraced op wall times
    ok: list[bool] = field(default_factory=list)  # every measured op, traced or not
    rss_mb: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    layer_ops: list[dict] = field(default_factory=list)  # per traced op: layer self times and counters
    peak_layers: dict = field(default_factory=dict)  # layers of the op run under tracemalloc
    extra_layers: dict = field(default_factory=dict)


# --- CLI workloads ------------------------------------------------------------------


class CliWorkload:
    """Ops are fresh ``specport backtest`` processes; outputs go to a fresh directory."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.out_dir = work / "out"
        self.log = work / "op.log"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def prepare_inputs(self) -> None:
        """Generate and write the op's input files."""

    def check(self, full: bool) -> bool:
        raise NotImplementedError

    def op(self, traced: bool = False, tracemalloc: bool = False) -> tuple[float, bool, float, dict]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        spans_path = self.work / "spans.json"
        if traced:
            flags = ["--tracemalloc"] if tracemalloc else []
            prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *flags, "--"]
        else:
            prefix = [sys.executable, "-m", "specport.cli"]
        elapsed, code, rss_mb = run_process(prefix + self.argv(), self.log)
        layers = {}
        if traced and code == 0:
            trace = json.loads(spans_path.read_text())
            layers = op_layers(trace["spans"], trace["counts"]).get(0, {})
        ok = code == 0 and self.check(full=traced)
        return elapsed, ok, rss_mb, layers

    def setup(self) -> None:
        self.prepare_inputs()
        self.op()

    def measure(self, seconds: float, trace: bool) -> Measurement:
        result = Measurement()
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            elapsed, ok, rss_mb, layers = self.op(traced=traced)
            result.ok.append(ok)
            if traced:
                result.traced_times.append(elapsed)
                result.layer_ops.append(layers)
            else:
                result.times.append(elapsed)
                result.rss_mb.append(rss_mb)
            traced = trace and not traced
            if time.perf_counter() >= deadline and not traced:
                break
        if trace:
            _, ok, _, result.peak_layers = self.op(traced=True, tracemalloc=True)
            result.ok.append(ok)
        return result

    def close(self) -> None:
        pass


class BundledBacktest(CliWorkload):
    """The README's canonical run on the bundled panel; the input does not depend on the seed."""

    name = "bundled-backtest"

    def __init__(self, seed: int, work: Path, reference: dict | None = None) -> None:
        super().__init__(seed, work)
        self.reference = reference if reference is not None else json.loads(REFERENCE.read_text())

    def argv(self) -> list[str]:
        return [
            "backtest",
            "--data",
            "data/synthetic_monthly_prices.csv",
            "--boundary",
            "2015-01",
            "--out-dir",
            str(self.out_dir),
        ]

    def check(self, full: bool) -> bool:
        """Sharpe table and cumulative returns equal the stored reference to 1e-10."""
        try:
            _, names, sharpe = read_table(self.out_dir / "plot_sharpe.csv")
            header, stamps, cumulative = read_table(self.out_dir / "cumulative_returns.csv")
        except (OSError, ValueError, IndexError):
            return False
        ref_sharpe, ref_cum = self.reference["sharpe"], self.reference["cumulative"]
        return (
            names == list(ref_sharpe)
            and _close(sharpe[:, 0], list(ref_sharpe.values()))
            and header == ref_cum["header"]
            and stamps == ref_cum["timestamps"]
            and _close(cumulative, ref_cum["values"])
        )


class WideBacktest(CliWorkload):
    """50 assets, 600 months; the boundary leaves 480 in-sample months, above 2MN = 300."""

    name = "wide-backtest"
    N_ASSETS = 50
    N_RETURNS = 600
    T_IN = 480
    PERIODS = (12, 6, 3)

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.data = work / "wide_prices.csv"
        self.dates = month_dates(2000, 1, self.N_RETURNS + 1)
        self.boundary = self.dates[self.T_IN + 1][:7]
        self.out_dates = self.dates[self.T_IN + 1 :]
        self.assets = [f"SYN{i + 1}" for i in range(self.N_ASSETS)]
        self.verified_digest = None
        self.expected_moments = None
        self.read_times: list[float] = []

    def prepare_inputs(self) -> None:
        """Write the seeded price panel, starting at 100, as the CLI's synth command would."""
        returns = seasonal_returns(self.seed, self.N_RETURNS, self.N_ASSETS, self.PERIODS)
        self.prices = 100.0 * np.vstack([np.ones((1, self.N_ASSETS)), np.cumprod(1.0 + returns, axis=0)])
        with open(self.data, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date"] + self.assets)
            for date, row in zip(self.dates, self.prices):
                writer.writerow([date] + [repr(float(v)) for v in row])

    def argv(self) -> list[str]:
        return ["backtest", "--data", str(self.data), "--boundary", self.boundary, "--out-dir", str(self.out_dir)]

    def check(self, full: bool) -> bool:
        """Recompute the cumulative returns; compare the written moments with an in-process estimate.

        The moments file is read back when ``full`` is set or when its bytes
        differ from a file already verified in this run.
        """
        returns = self.prices[1:] / self.prices[:-1] - 1.0
        out_returns = returns[self.T_IN :]
        try:
            header, stamps, cumulative = read_table(self.out_dir / "cumulative_returns.csv")
            if stamps != self.out_dates or cumulative.shape != (len(self.out_dates), len(header) - 1):
                return False
            for column, slug in enumerate(header[1:]):
                alloc_header, alloc_stamps, alloc = read_table(self.out_dir / f"allocations_{slug}.csv")
                if alloc_header[1:] != self.assets or alloc_stamps != self.out_dates:
                    return False
                expected = np.cumprod(1.0 + np.einsum("ti,ti->t", alloc, out_returns)) - 1.0
                if not _close(cumulative[:, column], expected):
                    return False
            moments_path = self.out_dir / "spectral_moments.csv"
            digest = hashlib.sha256(moments_path.read_bytes()).hexdigest()
        except (OSError, ValueError, IndexError):
            return False
        if full or digest != self.verified_digest:
            if not self._moments_match(moments_path, returns[: self.T_IN]):
                return False
            self.verified_digest = digest
        return True

    def _moments_match(self, path: Path, in_returns: np.ndarray) -> bool:
        from specport.basis import FrequencyGrid
        from specport.errors import SpecportError
        from specport.moments import estimate_moments, read_moments_csv

        if self.expected_moments is None:
            self.expected_moments = estimate_moments(in_returns, FrequencyGrid.from_periods(self.PERIODS))
        expected = self.expected_moments
        start = time.perf_counter()
        try:
            written = read_moments_csv(path)
        except (SpecportError, KeyError, ValueError):
            return False
        self.read_times.append(time.perf_counter() - start)
        scale = float(np.max(np.abs(expected.covariance)))
        return (
            written.grid.periods == expected.grid.periods
            and written.n_assets == expected.n_assets
            and written.sample_count == expected.sample_count
            and written.mode == expected.mode
            and np.allclose(written.mean.full(), expected.mean.full(), rtol=0.0, atol=1e-12 * scale)
            and np.allclose(written.covariance, expected.covariance, rtol=0.0, atol=1e-12 * scale)
        )

    def measure(self, seconds: float, trace: bool) -> Measurement:
        self.read_times = []
        result = super().measure(seconds, trace)
        if trace:
            result.extra_layers["moments.read_moments_csv.self_s"] = (
                statistics.median(self.read_times) if self.read_times else 0.0
            )
        return result


# --- in-process fit ---------------------------------------------------------------


class LargeFit:
    """estimate -> solve -> retrieve -> run_strategy on 200 assets, grid (12,6,4,3): 2MN = 1600."""

    name = "large-fit"
    N_ASSETS = 200
    PERIODS = (12, 6, 4, 3)
    T_IN = 4800  # 3 x 2MN keeps the covariance well conditioned
    T_OUT = 1200

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.panel = work / "panel.npy"
        self.log = work / "worker.log"
        self.worker: subprocess.Popen | None = None

    def inputs(self) -> np.ndarray:
        return seasonal_returns(self.seed, self.T_IN + self.T_OUT, self.N_ASSETS, self.PERIODS)

    def setup(self) -> None:
        np.save(self.panel, self.inputs())
        periods = ",".join(str(p) for p in self.PERIODS)
        with open(self.log, "ab") as log:
            self.worker = subprocess.Popen(
                [sys.executable, str(BENCH / "fit_worker.py"), str(self.panel), str(self.T_IN), periods],
                cwd=ROOT,
                env=ENV,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        if self.worker.stdout.readline().strip() != "ready":
            raise RuntimeError(f"fit worker did not start; see {self.log}")

    def measure(self, seconds: float, trace: bool) -> Measurement:
        self.worker.stdin.write(f"go {seconds} {int(trace)}\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError(f"fit worker ended without a result; see {self.log}")
        out = json.loads(line)
        self.close()
        result = Measurement()
        result.times, result.ok, result.rss_mb = out["times"], out["ok"], out["rss_mb"]
        result.traced_times = out["traced_times"]
        if trace:
            per_op = op_layers(out["spans"], out["counts"])
            result.layer_ops = [per_op.get(op, {}) for op in range(out["peak_op"])]
            result.peak_layers = per_op.get(out["peak_op"], {})
        return result

    def close(self) -> None:
        """Stop the worker and wait for it."""
        if self.worker is None:
            return
        if self.worker.poll() is None:
            try:
                self.worker.stdin.write("quit\n")
                self.worker.stdin.flush()
            except BrokenPipeError:
                pass
        try:
            self.worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.worker.stdin.close()
        self.worker.stdout.close()
        self.worker = None


WORKLOADS = {cls.name: cls for cls in (BundledBacktest, WideBacktest, LargeFit)}


# --- metrics -------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile, n).

    With 10 samples or fewer it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def scipy_import_share(importtime_log: str) -> float:
    """Seconds spent importing scipy modules and what they import, from ``-X importtime``.

    Entries are printed children first, indented by depth; walking them in
    reverse visits each parent before its children.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def import_layers() -> dict[str, float]:
    """``import specport`` in fresh interpreters: wall time, and the scipy share."""
    timed = "import time; t = time.perf_counter(); import specport; print(time.perf_counter() - t)"
    walls, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", timed], cwd=ROOT, env=ENV, capture_output=True, text=True, check=True)
        walls.append(float(proc.stdout))
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import specport"],
            cwd=ROOT,
            env=ENV,
            capture_output=True,
            text=True,
            check=True,
        )
        scipy.append(scipy_import_share(proc.stderr))
    return {"import.specport_s": statistics.median(walls), "import.scipy_s": statistics.median(scipy)}


def end_to_end_metrics(result: Measurement, setup_times: list[float]) -> dict[str, float]:
    return {
        "op_s_p50": statistics.median(result.times),
        "op_s_tail": tail(result.times)[0],
        "peak_rss_mb": statistics.median(result.rss_mb),
        "setup_s": statistics.median(setup_times),
    }


def per_layer_metrics(result: Measurement) -> dict[str, float]:
    layers = {k: v for k, v in median_layers(result.layer_ops).items() if not k.endswith(".peak_alloc_mb")}
    layers.update({k: v for k, v in result.peak_layers.items() if k.endswith(".peak_alloc_mb")})
    layers.update(result.extra_layers)
    layers.update(import_layers())
    layers["trace.overhead_s"] = statistics.median(result.traced_times) - statistics.median(result.times)
    return {name: layers.get(name, 0) for name in PER_LAYER}


def provenance(args) -> dict:
    """Machine, library versions and source identity of this result."""
    import importlib.metadata
    import platform

    info: dict = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    try:
        info["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        info["scipy"] = None
    try:
        with open("/proc/cpuinfo") as handle:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '') }"] = size
    info["caches"] = caches
    info["ram_mb"] = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1024 * 1024)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    info["git_commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    return info


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded; None if unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


# --- driver --------------------------------------------------------------------------


def run_workload(workload, seconds: float, trace: bool) -> tuple[dict, Measurement, list[float]]:
    """Set up, measure for ``seconds``, return (result, measurement, setup times).

    Untraced runs set up SETUP_REPEATS times for the setup_s median; traced
    runs, which do not report it, once.
    """
    setup_times = []
    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            if repeat:
                workload.close()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        measurement = workload.measure(seconds, trace)
    finally:
        workload.close()
    values = per_layer_metrics(measurement) if trace else end_to_end_metrics(measurement, setup_times)
    units = PER_LAYER if trace else END_TO_END
    failed = measurement.ok.count(False)
    result = {
        "correct": failed == 0,
        "attempted": len(measurement.ok),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, measurement, setup_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specport" / "__init__.py").is_file():
        print(f"error: no specport sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        result, measurement, setup_times = run_workload(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance:", json.dumps(provenance(args), sort_keys=True))
    print(f"fail_ratio = {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    if args.trace:
        print("computed:", json.dumps({name: result["metrics"][name]["value"] for name in COMPUTED}))
    else:
        _, percentile, n = tail(measurement.times)
        print(f"op_s_tail is p{percentile:.1f} of n = {n} ops")
        print("op_s samples:", json.dumps(measurement.times))
        print("setup_s samples:", json.dumps(setup_times))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
