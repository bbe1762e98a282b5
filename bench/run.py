"""deepkern benchmark: one workload per run, measured end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload reg-d5-n100 --seed 7041 --seconds 30 --trace 0

Workloads: int-h1-paper, reg-d5-n100, cv-linout-desk (see workloads.py).
Each is a closed loop: one caller runs one job, waits for it, and starts
the next while the run's ``--seconds`` last.  The library runs in this
process from ``src/`` of the checkout; BLAS is pinned to one thread before
numpy is imported, and the thread count BLAS reports is checked.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  Times are CPU seconds of this process (user plus system, all
threads), which leave out the time the process waits for a core, whether
other processes or the host hold it; wall times are printed and recorded
beside them.  ``setup_s`` is the median CPU time of several fresh
processes from their start until the workload's inputs are ready.
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics, including the tracing overhead.  The lines before the
last give every measured value with its unit, the output checks and the
environment; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of the run (and, when traced, its spans) is
written under ``bench/out/``.  Exit code 2 means the library could not be
found or imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

END_TO_END = {"setup_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "kernels.cross.calls": "count",
    "kernels.cross.busy_s": "s",
    "kernels.cross.entries": "count",
    "kernels.grad2_cross.calls": "count",
    "kernels.grad2_cross.busy_s": "s",
    "kernels.grad2_cross.entries": "count",
    "kernels.diag_cross.calls": "count",
    "kernels.diag_cross.busy_s": "s",
    "kernels.bytes_computed": "B",
    "kernels.busy_s": "s",
    "gram.factor.calls": "count",
    "gram.factor.busy_s": "s",
    "gram.factor.flops_computed": "flop",
    "gram.jittered": "count",
    "gram.singular": "count",
    "gram.solve.calls": "count",
    "gram.solve.busy_s": "s",
    "single_layer.fit.calls": "count",
    "deep_model.objective.f_calls": "count",
    "deep_model.objective.g_calls": "count",
    "deep_model.objective.evals": "count",
    "deep_model.objective.busy_s": "s",
    "deep_model.objective.self_s": "s",
    "deep_model.objective.call_s_p50": "s",
    "deep_model.objective.call_s_tail": "s",
    "deep_model.sentinel_hits": "count",
    "deep_model.problem.builds": "count",
    "deep_model.problem.build_s": "s",
    "deep_model.predict.points": "count",
    "deep_model.predict.busy_s": "s",
    "deep_model.model_io.bytes": "B",
    "optimize.restarts": "count",
    "optimize.iterations": "count",
    "optimize.evals_per_iter": "ratio",
    "optimize.converged_frac": "ratio",
    "optimize.failed": "count",
    "optimize.restart.busy_s": "s",
    "optimize.self_s": "s",
    "experiments.cv.cells": "count",
    "experiments.self_s": "s",
    "experiments.concurrency": "ratio",
    "experiments.error_grid.points": "count",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

# Layer times that only some workloads exercise; they are reported and
# recorded but are not part of the metrics line, which every workload
# must fill with measured values.
PER_LAYER_DETAIL = {
    "single_layer.fit.busy_s": "s",
    "single_layer.predict.busy_s": "s",
    "deep_model.model_io.busy_s": "s",
    "experiments.cv.cell_s_p50": "s",
    "experiments.cv.cell_s_p75": "s",
    "experiments.cv.self_s": "s",
    "experiments.error_grid.busy_s": "s",
    "cli.busy_s": "s",
    "deep_model.objective.call_tail_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("int-h1-paper", "reg-d5-n100", "cv-linout-desk"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: 7041 for int-h1-paper and reg-d5-n100, "
                        "101 for cv-linout-desk)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import deepkern from src/ of this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "deepkern", "__init__.py")):
        raise ImportError(f"no deepkern package under {SRC}")
    sys.path.insert(0, SRC)
    import deepkern
    if not os.path.abspath(deepkern.__file__).startswith(SRC + os.sep):
        raise ImportError(f"deepkern was imported from {deepkern.__file__}, not from {SRC}")


def source_hash():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "deepkern")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -----------------------------
# Environment
# -----------------------------

def blas_libraries():
    """Each OpenBLAS loaded in this process with the thread count it reports."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is None or "threads" in info:
                    continue
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
        found.append(info)
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "deepkern_src_sha256": source_hash(),
    }


# -----------------------------
# Measuring
# -----------------------------

def measure_setup(args, seed):
    """CPU times of fresh processes from their start until their inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(seed), "--setup-probe"] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def job_seed(seed, k):
    """Input seed of the k-th timed job of a run; job 0 uses the run's seed.

    Successive jobs take new inputs, so one run averages over several
    inputs instead of repeating one, whose optimization path may be short
    or long."""
    return seed + 1_000_003 * k


def run_jobs(cls, seed, toy, seconds, work_dir, clock, tracer=None):
    """Closed loop of jobs after one toy-size warm-up job.

    The warm-up absorbs the first job's extra cost in a fresh process (the
    allocator's mmap threshold still adapting: about a million page faults
    on int-h1-paper), which a caller running several jobs pays once.
    Untraced, job k runs on inputs from job_seed(seed, k).  Traced, an
    untraced and a traced job on the run's own seed alternate, so the
    layer counts repeat exactly for a seed.
    """
    from tracing import layer_metrics
    warm = cls(seed, True, work_dir)
    warm.prepare()
    warm.job()
    clock.take()
    jobs = []
    start = time.perf_counter()
    while True:
        plan = ([(seed, False), (seed, True)] if tracer
                else [(job_seed(seed, len(jobs)), False)])
        for job_input, traced in plan:
            workload = cls(job_input, toy, work_dir)
            workload.prepare()
            if traced:
                tracer.begin(len(jobs))
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                workload.job()
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if traced:
                    spans, counts = tracer.end()
            job = {"seed": job_input, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                   "units": clock.take()}
            if traced:
                job["spans"] = spans
                job["layers"] = layer_metrics(spans, counts, wall)
            job["outcome"] = workload.outcome()
            jobs.append(job)
        next_round = sum(max(j["wall_s"] for j in jobs if j["traced"] == t) for _, t in plan)
        if time.perf_counter() - start + next_round > seconds:
            return jobs


def digest_store_check(key, digest):
    """True unless an earlier run of this source recorded another digest for key."""
    path = os.path.join(OUT_DIR, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path) as fh:
            store = json.load(fh)
    earlier = store.setdefault(key, digest)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return earlier == digest


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    try:
        import_library()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"{args.workload}-work")
    os.makedirs(work_dir, exist_ok=True)

    if args.setup_probe:
        cls(seed, args.toy, work_dir)
        print(time.process_time())
        return 0

    setup_samples = [] if args.trace else measure_setup(args, seed)
    env = environment()

    from tracing import Tracer, UnitClock, percentile
    tracer = Tracer() if args.trace else None
    clock = UnitClock(cls.unit)
    if tracer:
        tracer.install()
    clock.install()
    try:
        jobs = run_jobs(cls, seed, args.toy, args.seconds, work_dir, clock, tracer)
    finally:
        clock.uninstall()
        if tracer:
            tracer.uninstall()

    # -- checks --------------------------------------------------------
    checks = []
    blas_threads = sorted({b.get("threads") for b in env["blas"]}, key=str)
    checks.append(("BLAS reports one thread", blas_threads == [1]))
    digests = {}
    for i, job in enumerate(jobs):
        kind = "traced job" if job["traced"] else "job"
        checks += [(f"{kind} {i}: {name}", ok) for name, ok in job["outcome"].checks.items()]
        checks.append((f"{kind} {i}: units recorded", len(job["units"]) > 0))
        digests.setdefault(job["seed"], set()).add(job["outcome"].digest)
    for job_input, found in digests.items():
        key = (f"{args.workload} seed={job_input} toy={int(args.toy)} threads={cls.threads} "
               f"blas={blas_threads} src={env['deepkern_src_sha256'][:16]}")
        same = len(found) == 1 and digest_store_check(key, next(iter(found)))
        checks.append((f"seed {job_input}: output digest agrees across jobs"
                       + (", traced and untraced," if tracer else "")
                       + " and with earlier runs of this source", same))
    digest = jobs[0]["outcome"].digest

    units = [u for j in jobs for u in j["units"]]
    unit_wall = [w for w, _ in units]
    unit_cpu = [c for _, c in units]
    failed_checks = sum(1 for _, ok in checks if not ok)
    attempted = len(units) + clock.failed + len(checks)
    failed = clock.failed + failed_checks

    # -- metrics -------------------------------------------------------
    untraced = [j for j in jobs if not j["traced"]]
    wall = statistics.median(j["wall_s"] for j in untraced)
    cpu = statistics.median(j["cpu_s"] for j in untraced)
    detail = {}
    if tracer:
        traced = [j for j in jobs if j["traced"]]
        layers = {name: statistics.median_low(j["layers"][name] for j in traced)
                  for name in list(PER_LAYER) + list(PER_LAYER_DETAIL)
                  if name in traced[0]["layers"]}
        layers["cli.bytes_written"] = (
            traced[-1]["outcome"].quality.get("bytes_written", (0.0, "B"))[0])
        layers["trace.overhead_frac"] = (
            statistics.median(j["cpu_s"] for j in traced) / cpu - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        detail = {name: {"value": layers[name], "unit": unit}
                  for name, unit in PER_LAYER_DETAIL.items()}
        detail["layer_self_s"] = {"value": traced[-1]["layers"]["layer_self_s"], "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "job_cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        # Restart and cell times are bimodal (iteration-capped or converged
        # early), so their median moves between the modes from one input
        # seed to the next: reported, not bounded.
        detail["wall_s"] = {"value": wall, "unit": "s"}
        detail["unit_cpu_s_p50"] = {"value": statistics.median(unit_cpu), "unit": "s"}
        detail["unit_s_p50"] = {"value": statistics.median(unit_wall), "unit": "s"}
        if len(units) >= 40:
            detail["unit_cpu_s_p75"] = {"value": percentile(unit_cpu, 75.0), "unit": "s"}
            detail["unit_s_p75"] = {"value": percentile(unit_wall, 75.0), "unit": "s"}
        # answer quality is taken from job 0, whose inputs are the run's seed
        for name, (value, unit) in jobs[0]["outcome"].quality.items():
            detail[name] = {"value": value, "unit": unit}
        for name, (_, unit) in jobs[0]["outcome"].rates.items():
            detail[name] = {"value": statistics.median(j["outcome"].rates[name][0] for j in jobs),
                            "unit": unit}
    detail["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    record = {
        "workload": args.workload, "trace": args.trace, "toy": args.toy,
        "params": cls(seed, args.toy, work_dir).params, "env": env, "digest": digest,
        "job_seeds": [j["seed"] for j in jobs],
        "jobs": len(jobs), "units": len(units), "unit": cls.unit,
        "setup_samples_s": setup_samples,
        "job_walls_s": [[j["wall_s"], j["traced"]] for j in jobs],
        "job_cpu_s": [[j["cpu_s"], j["traced"]] for j in jobs],
        "unit_wall_cpu_s": [j["units"] for j in jobs],
        "checks": dict(checks), "metrics": metrics, "detail": detail,
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}")
    if tracer:
        record["spans_file"] = stem + ".spans.jsonl"
        with open(record["spans_file"], "w") as fh:
            for j in jobs:
                for name, start, end, parent, thread, job in j.get("spans", ()):
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "thread": thread, "job": job}) + "\n")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"env {json.dumps(env)}")
    print(f"params {json.dumps(record['params'])}")
    print(f"digest {digest}")
    print(f"jobs {len(jobs)}  {cls.unit}s {len(units)}")
    for name, ok in checks:
        print(f"check {'pass' if ok else 'FAIL'}: {name}")
    for name, m in list(metrics.items()) + list(detail.items()):
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
