"""In-memory span tracing installed from outside the library.

Every wrapper is installed by assignment at the name each caller binds
(``deepkern.gram.spd_factor`` and ``deepkern.deep_model.spd_factor`` are
both replaced), so ``src/`` needs no hooks.  A span records its name,
start, end, the span that was open in the same thread when it started,
the thread and the job it belongs to.  Spans stay in memory until
``write_spans`` is called at the end of the run; per-layer metrics are
derived from them afterwards, self time being a span's duration minus the
durations of its direct children.
"""

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import deepkern

# the package re-exports a function named gram, so submodules are looked up by name
cli, deep_model, experiments, gram, kernels, optimize, single_layer = (
    importlib.import_module(f"deepkern.{name}") for name in
    ("cli", "deep_model", "experiments", "gram", "kernels", "optimize", "single_layer"))

_MODULES = (deepkern, cli, deep_model, experiments, gram, kernels, optimize, single_layer)

_KERNEL_METHODS = (
    (kernels.PolyKernel, ("cross", "grad2_cross")),
    (kernels.GaussKernel, ("cross", "grad2_cross")),
    (kernels.TensorMaternKernel, ("cross", "grad2_cross")),
    (kernels.DiagScaledKernel, ("diag_cross",)),
    (kernels.DiagMixtureKernel, ("diag_cross",)),
)

_EXPERIMENT_FUNCTIONS = (
    "run_comparison", "cross_validate", "pointwise_error_grid", "sample_dataset",
    "inner_transform_dump", "write_report", "write_error_grid_csv", "write_inner_map_csv",
)


class Patches:
    """Attribute replacements that are undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, make):
        """Replace ``original`` at every deepkern module name bound to it."""
        wrapped = make(original)
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Collects spans and counters while ``active`` is set."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, thread, job]
        self.counts = Counter()
        self.active = False
        self.job = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = Patches()

    # -- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; an exception ends the span and is counted."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), self.job])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            self.count(f"{name}.raised.{type(e).__name__}")
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            stack.pop()

    def begin(self, job):
        """Start recording a new job's spans and counters."""
        self.spans, self.counts, self.job = [], Counter(), job
        self.active = True

    def end(self):
        self.active = False
        return self.spans, self.counts

    def count(self, key, amount=1):
        if self.active:
            with self._lock:
                self.counts[key] += amount

    def _wrap(self, name, after=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if after is not None and self.active:
                    after(out, args, kwargs)
                return out
            return traced
        return make

    # -- installation ---------------------------------------------------

    def install(self):
        p = self._patches

        def kernel_after(out, args, kwargs):
            self.count("kernels.bytes_computed", out.nbytes)

        for cls, methods in _KERNEL_METHODS:
            for meth in methods:
                def after(out, args, kwargs, meth=meth):
                    kernel_after(out, args, kwargs)
                    self.count(f"kernels.{meth}.entries", out.size)
                p.set(cls, meth, self._wrap(f"kernels.{meth}", after)(vars(cls)[meth]))

        def factor_after(out, args, kwargs):
            _, jitter = out
            n = len(args[0])
            self.count("gram.factor.flops_computed", n ** 3 // 3)
            if jitter:
                self.count("gram.jittered")

        p.everywhere(gram.spd_factor, self._wrap("gram.factor", factor_after))
        p.everywhere(gram.spd_solve, self._wrap("gram.solve"))

        p.everywhere(single_layer.fit_single, self._wrap("single_layer.fit"))
        p.everywhere(single_layer.predict_single, self._wrap("single_layer.predict"))

        def predict_after(out, args, kwargs):
            pts = args[1] if len(args) > 1 else kwargs["points"]
            self.count("deep_model.predict.points", len(pts) if getattr(pts, "ndim", 1) > 1 else 1)

        def save_after(out, args, kwargs):
            self.count("deep_model.model_io.bytes", _file_size(args[1]))

        def load_after(out, args, kwargs):
            self.count("deep_model.model_io.bytes", _file_size(args[0]))

        p.everywhere(deep_model.fit_two_layer, self._wrap("deep_model.fit"))
        p.everywhere(deep_model.predict_two_layer, self._wrap("deep_model.predict", predict_after))
        p.everywhere(deep_model.save_model, self._wrap("deep_model.model_io", save_after))
        p.everywhere(deep_model.load_model, self._wrap("deep_model.model_io", load_after))

        tracer = self
        problem_cls = deep_model.TwoLayerProblem

        class TracedProblem(problem_cls):
            def __init__(self, *args, **kwargs):
                tracer.call("deep_model.problem.build", super().__init__, *args, **kwargs)

        TracedProblem.__name__ = problem_cls.__name__
        p.everywhere(problem_cls, lambda cls: TracedProblem)

        p.everywhere(optimize.multistart, self._wrap("optimize.multistart"))
        p.everywhere(optimize.bfgs_minimize, self._traced_bfgs)

        def grid_after(out, args, kwargs):
            self.count("experiments.error_grid.points", len(out.points))

        for fname in _EXPERIMENT_FUNCTIONS:
            after = grid_after if fname == "pointwise_error_grid" else None
            p.everywhere(getattr(experiments, fname), self._wrap(f"experiments.{fname}", after))
        p.everywhere(cli.main, self._wrap("cli.main"))

    def _traced_bfgs(self, bfgs):
        sentinel = deep_model.SENTINEL

        @functools.wraps(bfgs)
        def traced(f, g, x0, *args, **kwargs):
            if not self.active:
                return bfgs(f, g, x0, *args, **kwargs)

            def tf(x):
                val = self.call("deep_model.objective.f", f, x)
                if val >= sentinel:
                    self.count("deep_model.sentinel_hits")
                return val

            def tg(x):
                return self.call("deep_model.objective.g", g, x)

            res = self.call("optimize.restart", bfgs, tf, tg, x0, *args, **kwargs)
            self.count("optimize.iterations", res.iterations)
            self.count("optimize.converged", int(res.converged))
            return res

        return traced

    def uninstall(self):
        self._patches.restore()


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def tail_percentile(values):
    """The highest of p99.9 / p99 / p90 / p75 / p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def percentile(values, p):
    """Percentile p (0 to 100) of a nonempty sequence, interpolating linearly."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    k = (len(vals) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (k - lo)


def layer_metrics(spans, counts, job_wall):
    """Per-layer metrics of one traced job, derived from its spans and counters."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += dur[i]
            children[parent].append(i)
    self_time = [d - c for d, c in zip(dur, child_time)]
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(dur[i] for i in by_name[name])

    def self_of(names):
        return sum(self_time[i] for n in names for i in by_name[n])

    m = {}
    kernel_names = ("kernels.cross", "kernels.grad2_cross", "kernels.diag_cross")
    for name in kernel_names:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["kernels.cross.entries"] = counts["kernels.cross.entries"]
    m["kernels.grad2_cross.entries"] = counts["kernels.grad2_cross.entries"]
    m["kernels.bytes_computed"] = counts["kernels.bytes_computed"]
    m["kernels.busy_s"] = sum(dur[i] for n in kernel_names for i in by_name[n]
                              if spans[i][3] is None or not spans[spans[i][3]][0].startswith("kernels."))

    m["gram.factor.calls"] = calls("gram.factor")
    m["gram.factor.busy_s"] = busy("gram.factor")
    m["gram.factor.flops_computed"] = counts["gram.factor.flops_computed"]
    m["gram.jittered"] = counts["gram.jittered"]
    m["gram.singular"] = counts["gram.factor.raised.SingularMatrixError"]
    m["gram.solve.calls"] = calls("gram.solve")
    m["gram.solve.busy_s"] = busy("gram.solve")

    m["single_layer.fit.calls"] = calls("single_layer.fit")
    m["single_layer.fit.busy_s"] = busy("single_layer.fit")
    m["single_layer.predict.busy_s"] = busy("single_layer.predict")

    obj = by_name["deep_model.objective.f"] + by_name["deep_model.objective.g"]
    # a call without child spans was answered from the one-slot value cache
    evaluating = [i for i in obj if children[i]]
    m["deep_model.objective.f_calls"] = calls("deep_model.objective.f")
    m["deep_model.objective.g_calls"] = calls("deep_model.objective.g")
    m["deep_model.objective.evals"] = len(evaluating)
    m["deep_model.objective.busy_s"] = sum(dur[i] for i in obj)
    m["deep_model.objective.self_s"] = sum(self_time[i] for i in obj)
    eval_s = [dur[i] for i in evaluating] or [0.0]
    tail = tail_percentile(eval_s)
    m["deep_model.objective.call_s_p50"] = percentile(eval_s, 50.0)
    m["deep_model.objective.call_s_tail"] = percentile(eval_s, tail)
    m["deep_model.objective.call_tail_pct"] = tail
    m["deep_model.sentinel_hits"] = counts["deep_model.sentinel_hits"]
    m["deep_model.problem.builds"] = calls("deep_model.problem.build")
    m["deep_model.problem.build_s"] = busy("deep_model.problem.build")
    m["deep_model.predict.points"] = counts["deep_model.predict.points"]
    m["deep_model.predict.busy_s"] = busy("deep_model.predict")
    m["deep_model.model_io.busy_s"] = busy("deep_model.model_io")
    m["deep_model.model_io.bytes"] = counts["deep_model.model_io.bytes"]

    restarts = by_name["optimize.restart"]
    iterations = counts["optimize.iterations"]
    m["optimize.restarts"] = len(restarts)
    m["optimize.iterations"] = iterations
    m["optimize.evals_per_iter"] = len(evaluating) / iterations if iterations else 0.0
    m["optimize.converged_frac"] = counts["optimize.converged"] / len(restarts) if restarts else 0.0
    m["optimize.failed"] = sum(v for k, v in counts.items()
                               if k.startswith("optimize.restart.raised."))
    m["optimize.restart.busy_s"] = sum(dur[i] for i in restarts)
    m["optimize.self_s"] = sum(self_time[i] for i in restarts)

    cells = _cv_cells(spans, by_name)
    m["experiments.cv.cells"] = len(cells)
    m["experiments.cv.cell_s_p50"] = percentile(cells, 50.0) if cells else 0.0
    m["experiments.cv.cell_s_p75"] = percentile(cells, 75.0) if cells else 0.0
    m["experiments.cv.self_s"] = self_of(["experiments.cross_validate"])
    experiment_names = [f"experiments.{f}" for f in _EXPERIMENT_FUNCTIONS]
    m["experiments.self_s"] = self_of(experiment_names)
    m["experiments.concurrency"] = m["optimize.restart.busy_s"] / job_wall
    m["experiments.error_grid.busy_s"] = busy("experiments.pointwise_error_grid")
    m["experiments.error_grid.points"] = counts["experiments.error_grid.points"]
    m["cli.busy_s"] = busy("cli.main")
    m["trace.spans"] = len(spans)

    # self time of each module, to rank the layers of a workload; with restart
    # threads, multistart's own time is spent waiting for the pool
    groups = defaultdict(float)
    for i, span in enumerate(spans):
        if span[0] != "optimize.multistart":
            groups[span[0].split(".")[0]] += self_time[i]
    m["layer_self_s"] = dict(groups)
    return m


def _cv_cells(spans, by_name):
    """Durations of CV cells: a fit inside cross_validate to the end of the
    held-out prediction that follows it in the same thread."""
    cv_spans = set(by_name["experiments.cross_validate"])
    if not cv_spans:
        return []

    def under_cv(i):
        while i is not None:
            if i in cv_spans:
                return True
            i = spans[i][3]
        return False

    fits = [i for i in by_name["deep_model.fit"] if under_cv(i)]
    predicts = sorted((spans[i][1], spans[i][2], spans[i][4]) for i in by_name["deep_model.predict"]
                      if under_cv(i))
    cells = []
    for i in fits:
        _, start, end, _, thread, _ = spans[i]
        stop = next((p_end for p_start, p_end, p_thread in predicts
                     if p_thread == thread and p_start >= end), end)
        cells.append(stop - start)
    return cells


class UnitClock:
    """Times the workload's units with tracing off, in wall and CPU time.

    A ``restart`` is one ``bfgs_minimize`` call.  A ``cell`` runs from a
    fit started by ``cross_validate`` to the end of the held-out prediction
    that follows it in the same thread.  CPU time is the process's, which
    counts a unit's own work only because units never overlap: restarts
    run one at a time where the unit is a restart (one library thread),
    and cells run one at a time, each using the restart threads.  Install
    after any ``Tracer`` so the clock wraps the traced functions rather
    than hiding them from it.
    """

    def __init__(self, unit):
        self.unit = unit
        self.units = []          # (wall, cpu) durations per finished unit
        self.failed = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    @staticmethod
    def _now():
        return time.perf_counter(), time.process_time()

    def _done(self, start):
        end = self._now()
        with self._lock:
            self.units.append((end[0] - start[0], end[1] - start[1]))

    def install(self):
        if self.unit == "restart":
            def make(bfgs):
                @functools.wraps(bfgs)
                def timed(*args, **kwargs):
                    start = self._now()
                    try:
                        out = bfgs(*args, **kwargs)
                    except BaseException:
                        with self._lock:
                            self.failed += 1
                        raise
                    self._done(start)
                    return out
                return timed
            self._patches.everywhere(optimize.bfgs_minimize, make)
            return
        fit, predict = experiments.fit_two_layer, experiments.predict_two_layer

        @functools.wraps(fit)
        def timed_fit(*args, **kwargs):
            self._local.start = self._now()
            return fit(*args, **kwargs)

        @functools.wraps(predict)
        def timed_predict(*args, **kwargs):
            out = predict(*args, **kwargs)
            self._done(self._local.start)
            return out

        self._patches.set(experiments, "fit_two_layer", timed_fit)
        self._patches.set(experiments, "predict_two_layer", timed_predict)

    def take(self):
        """(wall, cpu) durations of the units finished since the last call."""
        with self._lock:
            units, self.units = self.units, []
        return units

    def uninstall(self):
        self._patches.restore()
