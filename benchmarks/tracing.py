"""Span tracing of bolab from outside the package.

The tracer wraps public functions of the bolab modules *where they are
called*: modules import functions by name (``from .gauge import
rhs_exact_coeffs``), so every ``bolab.*`` module attribute that is the
original function is replaced by the wrapper, and restored on exit.

A span records its name, start, end and parent.  Spans are kept in memory in
compact arrays (an `exact-flow` round opens about 380,000 spans) and
written at the end with :meth:`Tracer.save`.  Self time is a span's duration
minus the time its direct child spans cover; the calls are single-threaded,
so children never overlap.

Two private names of :mod:`bolab.dynamics` are hooked when present,
``_ifrk4`` and ``_probe_dt``: their ``rhs`` argument is the right-side
callable, which has no public name for the direct flow.  Wrapping it gives
right-side evaluations split into stepping and stability-probe calls.  A
target that a refactor removed is skipped: the metrics that need it read 0
and the run lists it.
"""

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

# (module, attribute, span name); attribute "Class.method" patches a method.
TARGETS = (
    ("spectral", "coeffs_to_samples", "spectral.coeffs_to_samples"),
    ("spectral", "samples_to_coeffs", "spectral.samples_to_coeffs"),
    ("gauge", "gauge_forward", "gauge.gauge_forward"),
    ("gauge", "gauge_inverse", "gauge.gauge_inverse"),
    ("gauge", "rhs_exact_coeffs", "gauge.rhs_exact_coeffs"),
    ("gauge", "rhs_terms_total_coeffs", "gauge.rhs_terms_total_coeffs"),
    ("gauge", "rhs_quadratic", "gauge.rhs_quadratic"),
    ("gauge", "rhs_cubic", "gauge.rhs_cubic"),
    ("gauge", "profile_time_derivative_sup", "gauge.profile_time_derivative_sup"),
    ("dynamics", "evolve_bo", "dynamics.evolve_bo"),
    ("dynamics", "evolve_gauged", "dynamics.evolve_gauged"),
    ("dynamics", "Trajectory.save", "dynamics.Trajectory.save"),
    ("infr", "apply_T_alpha_M", "infr.apply_T_alpha_M"),
    ("infr", "apply_T_sigma", "infr.apply_T_sigma"),
    ("infr", "dyadic_sigma_from_restricted", "infr.dyadic_sigma_from_restricted"),
    ("infr", "term_values_on_lattice", "infr.term_values_on_lattice"),
    ("infr", "split_resonant", "infr.split_resonant"),
    ("integrals", "quad_integral_J", "integrals.quad_integral_J"),
    ("integrals", "cubic_integral_I", "integrals.cubic_integral_I"),
    ("nfe", "nfe_residual", "nfe.nfe_residual"),
    ("experiments", "smoothing_experiment", "experiments.smoothing_experiment"),
    ("experiments", "lipschitz_experiment", "experiments.lipschitz_experiment"),
    ("experiments", "lemma21_experiment", "experiments.lemma21_experiment"),
    ("experiments", "verify_operator_estimate", "experiments.verify_operator_estimate"),
    ("experiments", "rough_profile_data", "experiments.rough_profile_data"),
    ("experiments", "rough_real_data", "experiments.rough_real_data"),
    ("experiments", "unit_rough_field", "experiments.unit_rough_field"),
    ("experiments", "bump_shape", "experiments.bump_shape"),
    ("reports", "EstimateReport.write", "reports.EstimateReport.write"),
    ("cli", "resolve_config", "cli.resolve_config"),
)

# private stepping hooks: (attribute, span of the call, span of each rhs call)
RHS_HOOKS = (
    ("_ifrk4", "dynamics.ifrk4", "dynamics.step_rhs"),
    ("_probe_dt", "dynamics.probe", "dynamics.probe_rhs"),
)

TRANSFORMS = ("spectral.coeffs_to_samples", "spectral.samples_to_coeffs")
EVOLVES = ("dynamics.evolve_bo", "dynamics.evolve_gauged")
RHS_CALLS = ("dynamics.step_rhs", "dynamics.probe_rhs")
APPLIES = ("infr.apply_T_alpha_M", "infr.apply_T_sigma",
           "infr.dyadic_sigma_from_restricted")
ENUMERATES = ("infr.term_values_on_lattice", "infr.split_resonant")
INTEGRALS = ("integrals.quad_integral_J", "integrals.cubic_integral_I")
DATAGEN = ("experiments.rough_profile_data", "experiments.rough_real_data",
           "experiments.unit_rough_field", "experiments.bump_shape")
DRIVERS = {"smoothing": "experiments.smoothing_experiment",
           "lipschitz": "experiments.lipschitz_experiment",
           "lemma21": "experiments.lemma21_experiment",
           "operator": "experiments.verify_operator_estimate"}
CLI_COMMANDS = ("simulate", "gauge-check", "estimates", "smoothing",
                "lipschitz", "lemma21", "nfe")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.missing_hooks = []
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded bolab module."""
        modules = [importlib.import_module(f"bolab.{m}") for m in
                   ("spectral", "gauge", "dynamics", "infr", "integrals",
                    "nfe", "experiments", "reports", "cli")]
        after = {"dynamics.evolve_bo": _after_evolve,
                 "dynamics.evolve_gauged": _after_evolve,
                 "dynamics.Trajectory.save": _after_save,
                 "infr.term_values_on_lattice": _after_tuples,
                 "nfe.nfe_residual": _after_nfe,
                 "reports.EstimateReport.write": _after_write}
        for mod_name, attr, span in TARGETS:
            module = importlib.import_module(f"bolab.{mod_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(name)
            if original is None:
                self.missing_hooks.append(f"bolab.{mod_name}.{attr}")
                continue
            wrapped = self.wrap(span, original, after.get(span))
            if owner_name:
                self._set(owner, name, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        dyn = importlib.import_module("bolab.dynamics")
        for attr, span, rhs_span in RHS_HOOKS:
            original = getattr(dyn, attr, None)
            if original is None or "rhs" not in inspect.signature(original).parameters:
                self.missing_hooks.append(f"bolab.dynamics.{attr}")
                continue
            self._set(dyn, attr, self._rhs_hook(span, rhs_span, original))

    def _rhs_hook(self, span, rhs_span, fn):
        sig = inspect.signature(fn)
        wrapped_call = self.wrap(span, fn)

        def hooked(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["rhs"] = self.wrap(rhs_span, bound.arguments["rhs"])
            return wrapped_call(*bound.args, **bound.kwargs)

        return hooked

    def _set(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------------

    def arrays(self):
        """(names, name index, parent, start, end) as numpy arrays."""
        return (self.names, np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        names, nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=nid,
                            parent=parent, start=start, end=end)


def span_cost(calls=200_000):
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("bench.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _after_evolve(tracer, args, kwargs, traj):
    # the stepper lands exactly on T, so T / dt is the number of steps
    dt = traj.metadata.get("dt")
    if dt:
        tracer.count("dynamics.steps", int(round(float(traj.times[-1]) / dt)))


def _after_save(tracer, args, kwargs, result):
    directory = kwargs["directory"] if "directory" in kwargs else args[1]
    tracer.count("dynamics.save_bytes", _dir_bytes(directory))


def _after_tuples(tracer, args, kwargs, tv):
    tracer.count("infr.tuples", len(tv))


def _after_nfe(tracer, args, kwargs, report):
    kept = sum(c["nonresonant"] for c in report.counts.values())
    kept += sum(c.get("nonresonant", 0) for c in report.composed.values())
    tracer.count("nfe.nonresonant_tuples", kept)


def _after_write(tracer, args, kwargs, paths):
    tracer.count("reports.bytes", sum(os.path.getsize(p) for p in paths))


def _dir_bytes(directory):
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


class SpanTable:
    """Per-name aggregates of a span store: calls, busy time, self time."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self.self_time = dur - child
        k = len(self.names)
        self.calls = np.bincount(self.name_id, minlength=k)
        self.busy = np.bincount(self.name_id, weights=dur, minlength=k)
        self.self_by_name = np.bincount(self.name_id, weights=self.self_time,
                                        minlength=k)
        # a layer is busy during its outermost spans: those with no
        # ancestor in the same layer
        layers = sorted({n.split(".")[0] for n in self.names})
        name_layer = np.array([layers.index(n.split(".")[0]) for n in self.names],
                              dtype=np.int64)
        layer = name_layer[self.name_id]
        nested = self._ancestor_where(lambda idx, anc: layer[anc] == layer[idx])
        self.layer_busy = {lay: float(dur[(layer == i) & ~nested].sum())
                           for i, lay in enumerate(layers)}
        self.layer_self = {lay: float(self.self_time[layer == i].sum())
                           for i, lay in enumerate(layers)}
        self.layer_calls = {lay: int(np.count_nonzero(layer == i))
                            for i, lay in enumerate(layers)}

    def _ancestor_where(self, pred):
        """Per span: does any ancestor satisfy pred(span indices, ancestors)?"""
        hit = np.zeros(self.parent.size, dtype=bool)
        idx = np.arange(self.parent.size)
        p = self.parent.copy()
        while True:
            live = np.nonzero(p >= 0)[0]
            if live.size == 0:
                return hit
            hit[live] |= pred(idx[live], p[live])
            p[live] = self.parent[p[live]]

    @classmethod
    def of(cls, tracer):
        return cls(*tracer.arrays())

    def _ids(self, names):
        return [self.names.index(n) for n in names if n in self.names]

    def n(self, *names):
        return int(sum(self.calls[i] for i in self._ids(names)))

    def s(self, *names):
        return float(sum(self.busy[i] for i in self._ids(names)))

    def self_s(self, *names):
        return float(sum(self.self_by_name[i] for i in self._ids(names)))

    def under(self, inner, outer):
        """Number of spans named in ``inner`` with an ancestor named ``outer``."""
        if outer not in self.names:
            return 0
        want = self.names.index(outer)
        sel = np.isin(self.name_id, self._ids(inner))
        hit = self._ancestor_where(lambda idx, anc: self.name_id[anc] == want)
        return int(np.count_nonzero(sel & hit))

    def rows(self):
        """(name, calls, busy s, self s) per span name, busiest first."""
        out = [(name, int(self.calls[i]), float(self.busy[i]),
                float(self.self_by_name[i])) for i, name in enumerate(self.names)]
        return sorted(out, key=lambda r: -r[2])


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(table, counters):
    """Every per-layer metric of one traced round, keyed by its name."""
    t, c = table, counters
    transforms = t.n(*TRANSFORMS)
    transform_s = t.s(*TRANSFORMS)
    terms = "gauge.rhs_terms_total_coeffs"
    exact = "gauge.rhs_exact_coeffs"
    step_rhs = t.n("dynamics.step_rhs")
    rhs_evals = t.n(*RHS_CALLS)
    evolve_s = t.s(*EVOLVES)
    steps = c.get("dynamics.steps", 0)
    cells = t.n(*APPLIES)
    apply_s = t.s(*APPLIES)
    m = {
        "spectral.transforms": transforms,
        "spectral.transform_s": transform_s,
        "spectral.transform_us": 1e6 * _ratio(transform_s, transforms),
        "gauge.rhs_terms_calls": t.n(terms),
        "gauge.rhs_terms_s": t.s(terms),
        "gauge.transforms_per_rhs_terms":
            _ratio(t.under(TRANSFORMS, terms), t.n(terms)),
        "gauge.rhs_exact_calls": t.n(exact),
        "gauge.rhs_exact_s": t.s(exact),
        "gauge.transforms_per_rhs_exact":
            _ratio(t.under(TRANSFORMS, exact), t.n(exact)),
        "gauge.forward_calls": t.n("gauge.gauge_forward"),
        "gauge.forward_s": t.s("gauge.gauge_forward"),
        "dynamics.evolutions": t.n(*EVOLVES),
        "dynamics.steps": steps,
        "dynamics.rhs_evals": rhs_evals,
        "dynamics.useful_rhs_ratio": _ratio(step_rhs, rhs_evals),
        "dynamics.steps_per_s": _ratio(steps, evolve_s),
        "dynamics.self_s": evolve_s - t.s(*RHS_CALLS),
        "dynamics.save_s": t.s("dynamics.Trajectory.save"),
        "dynamics.save_bytes": c.get("dynamics.save_bytes", 0),
        "infr.window_cells": cells,
        "infr.apply_s": apply_s,
        "infr.cell_ms": 1e3 * _ratio(apply_s, cells),
        "infr.tuples": c.get("infr.tuples", 0),
        "infr.enumerate_s": t.s(*ENUMERATES),
        "integrals.calls": t.n(*INTEGRALS),
        "integrals.s": t.s(*INTEGRALS),
        "nfe.residual_s": t.s("nfe.nfe_residual"),
        "nfe.self_s": t.self_s("nfe.nfe_residual"),
        "nfe.nonresonant_tuples": c.get("nfe.nonresonant_tuples", 0),
        "nfe.rhs_evals": t.under((terms,), "nfe.nfe_residual"),
    }
    for driver, span in DRIVERS.items():
        m[f"experiments.{driver}_s"] = t.s(span)
    m["experiments.datagen_s"] = t.s(*DATAGEN)
    m["reports.write_s"] = t.s("reports.EstimateReport.write")
    m["reports.bytes"] = c.get("reports.bytes", 0)
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = t.s(f"cli.{command}")
    m["cli.config_s"] = t.s("cli.resolve_config")
    return m


def format_table(table):
    """Per-span and per-layer table of calls, busy time and self time."""
    head = f"{'calls':>9} {'busy s':>10} {'self s':>10}"
    lines = [f"{'layer':<44} {head}"]
    for layer in sorted(table.layer_busy, key=lambda k: -table.layer_busy[k]):
        lines.append(f"{layer:<44} {table.layer_calls[layer]:>9d} "
                     f"{table.layer_busy[layer]:>10.4f} "
                     f"{table.layer_self[layer]:>10.4f}")
    lines += ["", f"{'span':<44} {head}"]
    for name, calls, busy, self_s in table.rows():
        lines.append(f"{name:<44} {calls:>9d} {busy:>10.4f} {self_s:>10.4f}")
    return "\n".join(lines)
