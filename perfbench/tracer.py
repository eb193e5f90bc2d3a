"""In-memory spans at specport's module boundaries, for the traced benchmark runs.

A :class:`Tracer` replaces each function in :data:`LAYERS` by a wrapper that
records a span (name, start, end, parent, op id) and, after the span has
closed, a few counters computed from the call's arguments and result.  The
wrapper goes on every ``specport`` module attribute that holds the function,
because modules call each other through their own imported names (for example
``specport.backtest.estimate_moments``).

This module imports only the standard library, so the traced CLI op can time
``import specport`` with it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
import tracemalloc

_MB = 1024.0 * 1024.0


def _line_count(path) -> int:
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def _count_ingest(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = len(result.timestamps)
    return {
        "rows": rows,
        "rows_dropped": _line_count(path) - 1 - rows,
        "bytes": os.path.getsize(path),
    }


def _count_write_outputs(args, kwargs, result):
    return {
        "bytes": sum(os.path.getsize(p) for p in result.values()),
        "files": len(result),
    }


def _count_write_moments(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": _line_count(path)}


def _count_estimate(args, kwargs, result):
    values = args[0] if args else kwargs["x"]
    cov = result.covariance
    return {
        "calls": 1,
        "dim_2mn": cov.shape[0],
        "samples_discarded": len(getattr(values, "returns", values)) - result.sample_count,
        "cov_bytes_computed": cov.nbytes,
    }


def _count_solve(args, kwargs, result):
    """Dense Cholesky of the n x n covariance plus two triangular solves.

    A complex multiply-add is 8 real flops: the factorization takes n^3/6 of
    them and each solve n^2/2.  A real matrix takes a quarter of that.
    """
    cov = (args[0] if args else kwargs["moments"]).covariance
    n = cov.shape[0]
    flops = (4 * n**3 // 3 + 8 * n**2) if cov.dtype.kind == "c" else (n**3 // 3 + 2 * n**2)
    return {"calls": 1, "flops_computed": flops, "bytes_computed": n * n * cov.itemsize}


# (layer name, module, attribute path, counter, track tracemalloc peak)
LAYERS = (
    ("cli.main", "specport.cli", "main", None, False),
    ("backtest.run_protocol", "specport.backtest", "run_protocol", None, False),
    ("backtest.ingest_csv", "specport.backtest", "ingest_csv", _count_ingest, False),
    ("backtest.compute_returns", "specport.backtest", "compute_returns", None, False),
    ("backtest.run_strategy", "specport.backtest", "run_strategy", None, False),
    ("backtest.sharpe_ratio", "specport.backtest", "sharpe_ratio", None, False),
    (
        "backtest.write_outputs",
        "specport.backtest",
        "BacktestReport.write_outputs",
        _count_write_outputs,
        False,
    ),
    ("moments.estimate_moments", "specport.moments", "estimate_moments", _count_estimate, True),
    ("moments.write_moments_csv", "specport.moments", "write_moments_csv", _count_write_moments, False),
    ("moments.read_moments_csv", "specport.moments", "read_moments_csv", None, False),
    ("optimize.solve_spectral_mvo", "specport.optimize", "solve_spectral_mvo", _count_solve, True),
    ("optimize.solve_classical_mvo", "specport.optimize", "solve_classical_mvo", None, False),
    ("optimize.retrieve_allocation", "specport.optimize", "retrieve_allocation", None, False),
    ("basis.synthesize_series", "specport.basis", "synthesize_series", None, False),
)

# Counters that report the largest value of an op; all others are summed.
MAX_COUNTERS = frozenset({"dim_2mn", "peak_alloc_mb"})

# Span that holds counter work, so that it is not charged to any layer.
COUNT_SPAN = "trace.count"


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: list[tuple[str, int, dict]] = []  # (layer, op id, counters)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, func, counter, track_peak):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            peak_base = None
            if track_peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                peak_base = tracemalloc.get_traced_memory()[0]
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None or peak_base is not None:
                with tracer.span(COUNT_SPAN):
                    counts = counter(args, kwargs, result) if counter is not None else {}
                    if peak_base is not None:
                        counts["peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - peak_base) / _MB
                tracer.counts.append((name, tracer.op, counts))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every module attribute that holds a function of :data:`LAYERS`.

        A layer whose function no longer exists is skipped; its metrics read 0.
        """
        for name, module_name, attr_path, counter, track_peak in LAYERS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None)
            if func is None:
                continue
            wrapper = self._wrap(name, func, counter, track_peak)
            if owner_path:  # a method: patch the class only
                self._patched.append((owner, attr, func))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "specport" or mod_name.startswith("specport.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, key, func))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._patched):
            setattr(owner, attr, func)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def op_layers(spans, counts) -> dict[int, dict[str, float]]:
    """Per op id: each layer's total self time (``<layer>.self_s``) and counters.

    Self time is a span's duration minus the durations of its child spans;
    children of one span never overlap, since spans nest on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op: dict[int, dict[str, float]] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        if name == COUNT_SPAN:
            continue
        layer = per_op.setdefault(op, {})
        key = f"{name}.self_s"
        layer[key] = layer.get(key, 0.0) + (end - start) - child_time[index]
    for name, op, values in counts:
        layer = per_op.setdefault(op, {})
        for counter, value in values.items():
            key = f"{name}.{counter}"
            if counter in MAX_COUNTERS:
                layer[key] = max(layer.get(key, value), value)
            else:
                layer[key] = layer.get(key, 0) + value
    return per_op


def median_layers(ops: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each layer value; a layer absent from an op counts as 0."""
    return {key: statistics.median(op.get(key, 0.0) for op in ops) for key in set().union(*ops)}
