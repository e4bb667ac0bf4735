"""Span tracing from outside the program, and the per-layer metrics built on it.

``install`` replaces each layer's public functions with timing wrappers at
every name a caller looks them up by: module globals across the package
(``from .sampling import haar_orthogonal_batch`` binds a second name that is
replaced too) and the methods the estimators and trainer call on their
objects.  Nothing under ``src/`` is edited.  Spans stay in memory as
``(id, parent, name, start, end, job)`` tuples; a span's parent is the
innermost open span on the same thread, so spans started in the estimators'
thread pool are roots of their own thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import threading
from collections import Counter, defaultdict
from time import perf_counter

from workloads import TWIN_OF, WORKLOADS

PACKAGE = "linopt_bp"
LAYERS = ("sampling", "special_functions", "closed_forms", "estimators",
          "linear_optics", "cost_functions", "validation", "trainer")
CLI_FUNCTIONS = ("main", "run_config", "render_csv", "render_jsonl")
# Methods called on objects rather than looked up as module globals.
METHODS = {
    "estimators": ("sample_gradients",),
    "trainer": ("evaluate",),
}


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _haar_counts(fn, args, kwargs, result) -> dict:
    size = int(result.shape[0])
    return {"haar_matrices": size, "haar_bytes": size * result.shape[1] * result.shape[2] * 8}


def _sample_counts(fn, args, kwargs, result) -> dict:
    return {"samples": int(_bound(fn, args, kwargs)["n_samples"])}


def _train_counts(fn, args, kwargs, result) -> dict:
    return {"accepted_steps": len(result) - 1, "train_calls": 1}


COUNTERS = {
    "sampling.haar_orthogonal_batch": _haar_counts,
    "estimators.estimate_grad_moments": _sample_counts,
    "estimators.estimate_abs_grad": _sample_counts,
    "trainer.train": _train_counts,
}


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.job))
            if counter is not None:
                with self._lock:
                    for key, value in counter(fn, args, kwargs, result).items():
                        self.counts[(self.job, key)] += value
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap every layer function at all its bindings; returns the number of bindings."""
    package = importlib.import_module(PACKAGE)
    modules = [package] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for name in CLI_FUNCTIONS:
        if hasattr(cli, name):
            wrappers[getattr(cli, name)] = tracer.wrap(f"cli.{name}", getattr(cli, name))

    bindings = 0
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                bindings += 1
    for layer, method_names in METHODS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for method in method_names:
                if inspect.isfunction(vars(cls).get(method)):
                    setattr(cls, method, tracer.wrap(f"{layer}.{method}", vars(cls)[method]))
                    bindings += 1
    return bindings


# -- aggregation ----------------------------------------------------------------

# name -> (unit, better); the per-job rates are added by ``per_layer_metrics``.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.run_config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "sampling.haar_calls": ("count", "lower"),
    "sampling.haar_matrices": ("count", "lower"),
    "sampling.haar_s": ("s", "lower"),
    "sampling.haar_bytes_computed": ("bytes", "lower"),
    "sampling.sphere_s": ("s", "lower"),
    "sampling.angles_s": ("s", "lower"),
    "estimators.samples": ("count", "higher"),
    "estimators.chunks": ("count", "lower"),
    "estimators.grad_eval_s": ("s", "lower"),
    "estimators.jobs2_speedup": ("ratio", "higher"),
    "special_functions.bessel_calls": ("count", "lower"),
    "special_functions.bessel_s": ("s", "lower"),
    "special_functions.bessel_us_per_call": ("us", "lower"),
    "closed_forms.prefactor_calls": ("count", "lower"),
    "closed_forms.self_s": ("s", "lower"),
    "linear_optics.gate_action_calls": ("count", "lower"),
    "linear_optics.gate_action_s": ("s", "lower"),
    "linear_optics.random_circuit_s": ("s", "lower"),
    "cost_functions.grad_calls": ("count", "lower"),
    "cost_functions.grad_s": ("s", "lower"),
    "validation.check_calls": ("count", "lower"),
    "validation.check_s": ("s", "lower"),
    "trainer.evaluations": ("count", "lower"),
    "trainer.accepted_steps": ("count", "higher"),
    "trainer.accept_ratio": ("ratio", "higher"),
    "trainer.evaluate_self_s": ("s", "lower"),
    "cli.blas1_wall_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
PREFACTORS = {f"closed_forms.{n}" for n in ("second_moment_prefactor", "second_moment_prefactor_upper",
                                             "heterodyne_prefactor", "heterodyne_prefactor_upper")}
ESTIMATES = {"estimators.estimate_grad_moments", "estimators.estimate_abs_grad"}
GRADS = {f"cost_functions.{n}" for n in ("measurement_grad", "quadratic_grad", "toy_grad")}


def _per_job_rates() -> dict:
    """Per-job rate metric name -> job name, for the sampling and training jobs."""
    mc = {f"estimators.{job.name}.samples_per_s": job.name for job in WORKLOADS["verify"].jobs
          if job.expect.get("mc")}
    train = {f"trainer.{job.name}.evals_per_s": job.name for job in WORKLOADS["train_descent"].jobs}
    return {**mc, **train}


def per_layer_metrics() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    rates = {name: ("1/s", "higher") for name in _per_job_rates()}
    return {**PER_LAYER, **rates}


class SpanTable:
    """Durations and self times of a list of span tuples."""

    def __init__(self, spans):
        self.spans = spans
        names = {s[0]: s[2] for s in spans}
        child_time = defaultdict(float)
        for span_id, parent, name, start, end, job in spans:
            if parent:
                child_time[parent] += end - start
        self.self_time = {s[0]: (s[4] - s[3]) - child_time[s[0]] for s in spans}
        self.parent_name = {s[0]: names.get(s[1], "") for s in spans}

    def select(self, names=None, prefix=None, job=None):
        return [s for s in self.spans
                if (names is None or s[2] in names)
                and (prefix is None or s[2].startswith(prefix))
                and (job is None or s[5] == job)]

    @staticmethod
    def total(spans) -> float:
        return math.fsum(s[4] - s[3] for s in spans)

    def self_total(self, spans) -> float:
        return math.fsum(self.self_time[s[0]] for s in spans)

    def outermost(self, spans, prefix):
        """Spans whose parent lies outside the layer, so nested calls count once."""
        return [s for s in spans if not self.parent_name[s[0]].startswith(prefix)]


def layer_metrics(job_names, spans, counts, twin=None) -> dict:
    """Per-layer metrics of one traced pass over ``job_names``.

    ``counts`` maps (job, key) to a number.  Layers and jobs the workload
    does not exercise report zero.  ``twin`` names the jobs=1 copy of
    ``het_m4_j2`` when the pass ran one.
    """
    jobs = set(job_names)
    table = SpanTable([s for s in spans if s[5] in jobs])
    by_job = SpanTable(spans)

    def count(key, job=None):
        return sum(v for (j, k), v in counts.items() if k == key and (j == job if job else j in jobs))

    def named(*names):
        return table.select(names=set(names))

    out = {}
    run_config_end = {s[1]: s[4] for s in named("cli.run_config")}
    out["cli.run_config_s"] = table.total(named("cli.run_config"))
    out["cli.write_s"] = math.fsum(s[4] - run_config_end[s[0]] for s in named("cli.main") if s[0] in run_config_end)

    haar = named("sampling.haar_orthogonal_batch")
    out["sampling.haar_calls"] = len(haar)
    out["sampling.haar_matrices"] = count("haar_matrices")
    out["sampling.haar_s"] = table.total(haar)
    out["sampling.haar_bytes_computed"] = count("haar_bytes")
    out["sampling.sphere_s"] = table.total(named("sampling.uniform_sphere_batch"))
    out["sampling.angles_s"] = table.total(named("sampling.uniform_angles_batch"))

    chunks = named("estimators.sample_gradients")
    out["estimators.samples"] = count("samples")
    out["estimators.chunks"] = len(chunks)
    out["estimators.grad_eval_s"] = table.self_total(chunks)

    bessel = named("special_functions.bessel_i")
    out["special_functions.bessel_calls"] = len(bessel)
    out["special_functions.bessel_s"] = table.total(bessel)
    out["special_functions.bessel_us_per_call"] = 1e6 * table.total(bessel) / len(bessel) if bessel else 0.0
    out["closed_forms.prefactor_calls"] = len(named(*PREFACTORS))
    out["closed_forms.self_s"] = table.self_total(table.select(prefix="closed_forms."))

    gates = named("linear_optics.gate_action")
    out["linear_optics.gate_action_calls"] = len(gates)
    out["linear_optics.gate_action_s"] = table.total(gates)
    out["linear_optics.random_circuit_s"] = table.total(named("linear_optics.random_circuit"))
    grads = table.outermost(named(*GRADS), "cost_functions.")
    out["cost_functions.grad_calls"] = len(grads)
    out["cost_functions.grad_s"] = table.total(grads)
    checks = table.outermost(table.select(prefix="validation."), "validation.")
    out["validation.check_calls"] = len(checks)
    out["validation.check_s"] = table.total(checks)

    evaluations = named("trainer.evaluate")
    accepted = count("accepted_steps")
    attempts = len(evaluations) - count("train_calls")
    out["trainer.evaluations"] = len(evaluations)
    out["trainer.accepted_steps"] = accepted
    out["trainer.accept_ratio"] = accepted / attempts if attempts > 0 else 0.0
    out["trainer.evaluate_self_s"] = table.self_total(evaluations)

    for metric, job in _per_job_rates().items():
        if metric.startswith("estimators."):
            done, busy = count("samples", job), by_job.select(names=ESTIMATES, job=job)
        else:
            done, busy = len(by_job.select(names={"trainer.evaluate"}, job=job)), \
                by_job.select(names={"trainer.train"}, job=job)
        elapsed = by_job.total(busy)
        out[metric] = done / elapsed if job in jobs and elapsed else 0.0

    out["estimators.jobs2_speedup"] = 0.0
    if twin is not None:
        j1 = by_job.total(by_job.select(names=ESTIMATES, job=twin))
        j2 = by_job.total(by_job.select(names=ESTIMATES, job=TWIN_OF))
        if j1 and j2:
            out["estimators.jobs2_speedup"] = j1 / j2
    return out


def top_self_times(spans, n: int = 8) -> dict:
    """Largest self-time span names per job, for reading a trace at a glance."""
    table = SpanTable(spans)
    per_job = defaultdict(Counter)
    for s in spans:
        per_job[s[5]][s[2]] += table.self_time[s[0]]
    return {job: [[name, round(t, 6)] for name, t in c.most_common(n)] for job, c in per_job.items()}
