"""Self-test of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: every workload runs once per mode for one second.
"""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work(request):
    path = run.WORK_ROOT / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_emitted_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in expected
    }


@pytest.mark.parametrize("section", ["sharpe", "cumulative"])
def test_wrong_reference_fails_every_op(work, section):
    reference = json.loads(run.REFERENCE.read_text())
    if section == "sharpe":
        reference["sharpe"]["MVO"] += 1e-9
    else:
        reference["cumulative"]["values"][-1][0] += 1e-9
    workload = run.BundledBacktest(seed=1, work=work, reference=reference)
    result, _, _ = run.run_workload(workload, seconds=1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_wide_check_recomputes_outputs(work):
    workload = run.WideBacktest(seed=2, work=work)
    workload.prepare_inputs()
    _, ok, _, _ = workload.op()
    assert ok

    alloc = workload.out_dir / "allocations_mvo.csv"
    lines = alloc.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[5] = ",".join(cells)
    alloc.write_text("\n".join(lines) + "\n")
    assert not workload.check(full=False)

    workload.op()
    moments = workload.out_dir / "spectral_moments.csv"
    moments.write_text(moments.read_text().replace("cov,0,0,", "cov,0,0,1", 1))
    assert not workload.check(full=False)


def test_fit_check_rejects_wrong_multiplier():
    import fit_worker

    fit = fit_worker.Fit(run.seasonal_returns(5, 720, 10, (12, 6)), 600, (12, 6))
    est, weights, path, series = fit.run()
    assert fit.check(est, weights, path, series)
    wrong = dataclasses.replace(weights, lagrange_multiplier=weights.lagrange_multiplier * (1 + 1e-6))
    assert not fit.check(est, wrong, path, series)


def test_seed_determines_inputs(work):
    def wide_digest(seed):
        workload = run.WideBacktest(seed, work)
        workload.prepare_inputs()
        return hashlib.sha256(workload.data.read_bytes()).hexdigest()

    assert wide_digest(7) == wide_digest(7) != wide_digest(8)
    first, again = run.LargeFit(7, work).inputs(), run.LargeFit(7, work).inputs()
    assert np.array_equal(first, again)
    assert not np.array_equal(first, run.LargeFit(8, work).inputs())
    assert run.BundledBacktest(7, work).argv() == run.BundledBacktest(8, work).argv()


def test_tail_has_ten_samples_beyond():
    value, percentile, n = run.tail([float(v) for v in range(40, 0, -1)])
    assert (value, percentile, n) == (30.0, 75.0, 40)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 2)


def test_scipy_import_share_counts_outermost_scipy_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     scipy._lib",
            "import time:         5 |          5 |     numpy.extra",
            "import time:        20 |         35 |   scipy.linalg",
            "import time:         7 |          7 |   specport.basis",
            "import time:         1 |         43 | specport",
        ]
    )
    assert run.scipy_import_share(log) == pytest.approx(35e-6)
