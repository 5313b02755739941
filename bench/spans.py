"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public bellmax functions, at every import site the
CLI path calls them through, with wrappers that record a span: job id,
parent span, name, start and end. Spans stay in memory and are written
as JSON lines when the run ends. Attributes that need work to compute
(byte sizes, state keys, see-saw outcomes) are extracted after the job
has finished, so that work never falls inside a span.

A span's name is ``<layer>.<function>``; its layer is the bellmax module
that defines the function. Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import defaultdict


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _built_bytes(args, kwargs, result):
    # A density matrix passes through unchanged; anything else is built here.
    return {"bytes": 0 if result is args[0] else 16 * result.dim ** 4}


def _work_n3(args, kwargs, result):
    return {"n3": len(result) ** 3}


def _state_key(args, kwargs, result):
    state, k = args
    body = getattr(state, "rho", None)
    body = repr(state) if body is None else hashlib.blake2b(body.tobytes()).hexdigest()
    return {"key": f"{type(state).__name__}:{state.dim}:{body}:{k}"}


def _seesaw_outcome(args, kwargs, result):
    return {"restarts": result.restarts_used, "iterations": result.iterations_used,
            "converged": result.converged}


#: (module, attribute, span name, attribute extractor) for every import
#: site the CLI reaches. Module-level names are looked up at call time,
#: so replacing them catches the calls made from inside that module too.
SITES = (
    ("bellmax.cli", "load_state", "states.load_state", _bytes_in),
    ("bellmax.cli", "scan_k", "violation.scan_k", None),
    ("bellmax.cli", "best_k", "violation.best_k", None),
    ("bellmax.cli", "max_violation_closed_form", "violation.closed_form", _state_key),
    ("bellmax.cli", "noise_threshold", "violation.noise_threshold", None),
    ("bellmax.cli", "seesaw_maximize", "seesaw.seesaw_maximize", _seesaw_outcome),
    ("bellmax.cli", "make_gamma_set", "operators.make_gamma_set", None),
    ("bellmax.cli", "run_all_checks", "verify.run_all_checks", None),
    ("bellmax.reporting", "to_json", "reporting.to_json", _bytes_out),
    ("bellmax.reporting", "grid_csv", "reporting.grid_csv", _bytes_out),
    ("bellmax.reporting", "build_manifest", "reporting.build_manifest", None),
    ("bellmax.states", "DensityMatrix.assert_positive", "states.assert_positive", None),
    ("bellmax.linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", _work_n3),
    ("bellmax.linalg", "sym3_eig", "linalg.sym3_eig", None),
    ("bellmax.linalg", "tensor", "linalg.tensor", None),
    ("bellmax.violation", "as_density", "states.as_density", _built_bytes),
    ("bellmax.violation", "correlation_data", "violation.correlation_data", None),
    ("bellmax.violation", "max_violation_closed_form", "violation.closed_form", _state_key),
    ("bellmax.violation", "scan_k", "violation.scan_k", None),
    ("bellmax.violation", "best_k", "violation.best_k", None),
    ("bellmax.violation", "make_gamma_set", "operators.make_gamma_set", None),
    ("bellmax.violation", "sym3_eig", "linalg.sym3_eig", None),
    ("bellmax.seesaw", "seesaw_maximize", "seesaw.seesaw_maximize", _seesaw_outcome),
    ("bellmax.seesaw", "correlation_data", "violation.correlation_data", None),
    ("bellmax.seesaw", "optimal_settings", "violation.optimal_settings", None),
    ("bellmax.seesaw", "as_density", "states.as_density", _built_bytes),
    ("bellmax.seesaw", "make_gamma_set", "operators.make_gamma_set", None),
    ("bellmax.seesaw", "bell_operator", "operators.bell_operator", None),
    ("bellmax.seesaw", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", _work_n3),
    ("bellmax.verify", "tensor", "linalg.tensor", None),
    ("bellmax.verify", "hermitian_eig", "linalg.hermitian_eig", None),
    ("bellmax.verify", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", _work_n3),
    ("bellmax.verify", "make_gamma_set", "operators.make_gamma_set", None),
    ("bellmax.verify", "observable", "operators.observable", None),
    ("bellmax.verify", "seesaw_maximize", "seesaw.seesaw_maximize", _seesaw_outcome),
    ("bellmax.verify", "bell_value", "seesaw.bell_value", None),
    ("bellmax.verify", "bell_value_from_correlations",
     "seesaw.bell_value_from_correlations", None),
    ("bellmax.verify", "spectral_max", "seesaw.spectral_max", None),
    ("bellmax.verify", "correlation_data", "violation.correlation_data", None),
    ("bellmax.verify", "max_violation_closed_form", "violation.closed_form", _state_key),
    ("bellmax.verify", "partial_trace", "states.partial_trace", None),
    ("bellmax.verify", "schmidt_to_density", "states.schmidt_to_density", None),
    ("bellmax.verify", "isotropic_to_density", "states.isotropic_to_density", None),
)

ROOT_SPAN = "cli.main"


class Recorder:
    """Spans of one process, kept in memory until ``write``.

    A span is stored when it ends, as a flat tuple ``(id, job, parent,
    name, start, end)``; tuples of plain values drop out of the garbage
    collector's tracking, so a long trace does not slow collection down.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.job = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._pending: list[tuple] = []

    def wrap(self, name, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, self.job, parent, name, start, end))
            if extract is not None:
                self._pending.append((span_id, extract, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every function listed in ``SITES`` by its traced wrapper."""
        for module_name, attribute, name, extract in SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), extract))

    def end_job(self) -> None:
        """Compute the deferred attributes of the job that just ended."""
        for span_id, extract, args, kwargs, result in self._pending:
            self.attrs[span_id] = extract(args, kwargs, result)
        self._pending.clear()

    def write(self, path) -> None:
        """Write one JSON line per span, ordered by id (start order):
        ``[job, parent, name, start, end, attrs]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, job, parent, name, start, end in sorted(self.spans):
                row = [job, parent, name, start, end, self.attrs.get(span_id)]
                handle.write(json.dumps(row) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


#: Per-layer metrics of a traced run, in the order they are printed.
LAYER_METRICS = (
    ("states.load_state.calls", "count"),
    ("states.load_state.self_s", "s"),
    ("states.load_state.bytes_in", "bytes"),
    ("states.assert_positive.s", "s"),
    ("states.as_density.calls", "count"),
    ("states.as_density.s", "s"),
    ("states.as_density.bytes", "bytes"),
    ("violation.correlation_data.calls", "count"),
    ("violation.correlation_data.self_s", "s"),
    ("violation.closed_form.calls", "count"),
    ("violation.closed_form.distinct_ratio", "ratio"),
    ("violation.noise_threshold.s", "s"),
    ("violation.noise_threshold.closed_form_calls", "count"),
    ("linalg.sym3_eig.calls", "count"),
    ("linalg.sym3_eig.s", "s"),
    ("linalg.hermitian_eigenvalues.calls", "count"),
    ("linalg.hermitian_eigenvalues.s", "s"),
    ("linalg.hermitian_eigenvalues.work_n3", "n3"),
    ("linalg.hermitian_eig.calls", "count"),
    ("linalg.hermitian_eig.s", "s"),
    ("linalg.tensor.calls", "count"),
    ("linalg.tensor.s", "s"),
    ("operators.make_gamma_set.calls", "count"),
    ("operators.make_gamma_set.s", "s"),
    ("operators.bell_operator.calls", "count"),
    ("operators.bell_operator.s", "s"),
    ("seesaw.seesaw_maximize.calls", "count"),
    ("seesaw.seesaw_maximize.self_s", "s"),
    ("seesaw.seesaw_maximize.restarts", "count"),
    ("seesaw.seesaw_maximize.best_iterations", "count"),
    ("seesaw.seesaw_maximize.converged_ratio", "ratio"),
    ("seesaw.spectral_max.calls", "count"),
    ("seesaw.spectral_max.s", "s"),
    ("reporting.to_json.s", "s"),
    ("reporting.to_json.bytes_out", "bytes"),
    ("reporting.grid_csv.s", "s"),
    ("reporting.grid_csv.bytes_out", "bytes"),
    ("cli.self_s", "s"),
    ("verify.run_all_checks.self_s", "s"),
    ("states.self_s", "s"),
    ("violation.self_s", "s"),
    ("linalg.self_s", "s"),
    ("operators.self_s", "s"),
    ("seesaw.self_s", "s"),
    ("reporting.self_s", "s"),
)


def layer_metrics(spans: list[list], job_factors=None) -> dict[str, float]:
    """Aggregate spans into the values named in ``LAYER_METRICS``.

    With ``job_factors``, each span's duration is divided by the factor of
    its job (``job_factors[job]``), as the job latencies are.
    """
    durations = [(span[4] - span[3]) / (job_factors[span[0]] if job_factors else 1.0)
                 for span in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[1] >= 0:
            child_time[span[1]] += duration

    def ancestors(index):
        parent = spans[index][1]
        while parent >= 0:
            yield spans[parent][2]
            parent = spans[parent][1]

    calls = defaultdict(int)
    inclusive = defaultdict(float)  # outermost span of each name only
    own = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(int))
    distinct = set()
    threshold_closed_forms = 0
    for index, (job, _parent, name, _start, _end, extra) in enumerate(spans):
        above = set(ancestors(index))
        calls[name] += 1
        own[name] += durations[index] - child_time[index]
        if name not in above:
            inclusive[name] += durations[index]
        for key, value in (extra or {}).items():
            if key == "key":
                distinct.add((job, value))
            else:
                attrs[name][key] += value
        if name == "violation.closed_form" and "violation.noise_threshold" in above:
            threshold_closed_forms += 1

    values: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "self_s" and "." not in head:  # whole layer
            values[metric] = sum(t for name, t in own.items()
                                 if name.split(".")[0] == head)
        elif stat == "calls":
            values[metric] = calls[head]
        elif stat == "self_s":
            values[metric] = own[head]
        elif stat == "s":
            values[metric] = inclusive[head]
        elif stat in ("bytes", "bytes_in", "bytes_out"):
            values[metric] = attrs[head]["bytes"]
        elif stat == "work_n3":
            values[metric] = attrs[head]["n3"]
        elif stat == "restarts":
            values[metric] = attrs[head]["restarts"]
        elif stat == "best_iterations":
            values[metric] = attrs[head]["iterations"]
        elif stat == "converged_ratio":
            values[metric] = attrs[head]["converged"] / calls[head] if calls[head] else 0.0
        elif stat == "distinct_ratio":
            values[metric] = len(distinct) / calls[head] if calls[head] else 0.0
        elif stat == "closed_form_calls":
            values[metric] = threshold_closed_forms
        else:
            raise ValueError(f"no rule for layer metric {metric!r}")
    return values
