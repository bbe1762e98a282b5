"""Tests of the benchmark itself, at toy size.

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("int-h1-paper", "reg-d5-n100", "cv-linout-desk")
DEFAULT_SEEDS = {"int-h1-paper": 7041, "reg-d5-n100": 7041, "cv-linout-desk": 101}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seconds", "1",
         "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def record(workload, trace):
    path = os.path.join(BENCH_DIR, "out", f"{workload}-seed{DEFAULT_SEEDS[workload]}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Untraced and traced toy runs of one workload."""
    return request.param, {trace: run_bench(request.param, trace) for trace in (0, 1)}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, section):
    workload, procs = runs
    proc = procs[trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"metric {name} = " in proc.stdout


def test_traced_digest_equals_untraced(runs):
    workload, procs = runs
    assert all(p.returncode == 0 for p in procs.values())
    untraced, traced = record(workload, 0), record(workload, 1)
    assert untraced["digest"] == traced["digest"]
    assert all(traced["checks"].values())
    assert os.path.getsize(traced["spans_file"]) > 0


def test_cv_problem_builds_twice_per_cell(runs):
    workload, procs = runs
    if workload != "cv-linout-desk":
        pytest.skip("cross-validation only")
    layers = json.loads(procs[1].stdout.strip().splitlines()[-1])["metrics"]
    assert layers["deep_model.problem.builds"]["value"] == 2 * layers["experiments.cv.cells"]["value"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("reg-d5-n100", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_inputs_match_the_library_sampling_recipe(bench_modules):
    workloads, _ = bench_modules
    from deepkern.experiments import SamplingPlan, sample_dataset, stream_seed
    for seed in (101, 7041):
        ours = workloads.h1_dataset(seed, 30)
        lib = sample_dataset("h1", SamplingPlan(n_samples=30, noise_sigma=0.01, seed=seed))
        assert (ours.X == lib.X).all() and (ours.y == lib.y).all()
        assert workloads.substream_seed(seed, workloads.INIT_TAG) == stream_seed(seed, "init")


def test_uninstall_restores_every_patched_name(bench_modules):
    _, tracing = bench_modules
    before = {(m.__name__, k): v for m in tracing._MODULES for k, v in vars(m).items()}
    kernel_attrs = {(c, a): vars(c)[a] for c, names in tracing._KERNEL_METHODS for a in names}
    tracer, clock = tracing.Tracer(), tracing.UnitClock("cell")
    tracer.install()
    clock.install()
    assert tracing.experiments.fit_two_layer is not before[("deepkern.experiments", "fit_two_layer")]
    clock.uninstall()
    tracer.uninstall()
    after = {(m.__name__, k): v for m in tracing._MODULES for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(vars(c)[a] is f for (c, a), f in kernel_attrs.items())
