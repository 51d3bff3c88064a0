"""Spans around qthermo's public functions, recorded from outside the library.

:class:`Tracer` rebinds each traced function's name in every qthermo module
that holds it (``qthermo.cli.steady_state``, ``qthermo.fcs.build_liouvillian``,
...), so calls between modules and inside a module are both seen. Spans stay
in memory; :meth:`Tracer.uninstall` puts every original function back.
Trivial helpers (``dagger``, ``spre``, ``dissipator_apply``, ...) are not
traced: there are thousands of calls per pass and each span costs about a
microsecond.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("qcore", "thermo", "lindblad", "models", "fcs", "trajectories", "cli")


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _expm_ops(args, kwargs):
    n = _first(args, kwargs, 0, "m").shape[0]
    return n ** 3


def _steady_state_ops(args, kwargs):
    return _first(args, kwargs, 0, "gen").dim ** 6


def _config_stem(args, kwargs):
    return Path(_first(args, kwargs, 0, "config_path")).stem


# (layer, module, function, size of the call: an operation count computed
# from the matrix sizes, a number of trajectories or samples, or a label)
TRACED = (
    ("qcore", "qthermo.qcore", "expm_dense", _expm_ops),
    ("qcore", "qthermo.qcore", "dissipator_superop", None),
    ("qcore", "qthermo.qcore", "commutator_superop", None),
    ("thermo", "qthermo.thermo", "fermi_dirac", None),
    ("thermo", "qthermo.thermo", "bose_einstein", None),
    ("thermo", "qthermo.thermo", "gibbs_state", None),
    ("thermo", "qthermo.thermo", "concurrence", None),
    ("thermo", "qthermo.thermo", "effective_temperature", None),
    ("lindblad", "qthermo.lindblad", "build_liouvillian", None),
    ("lindblad", "qthermo.lindblad", "propagate", None),
    ("lindblad", "qthermo.lindblad", "steady_state", _steady_state_ops),
    ("lindblad", "qthermo.lindblad", "validate_ledger", None),
    ("lindblad", "qthermo.lindblad", "all_currents", None),
    ("lindblad", "qthermo.lindblad", "entropy_production_rate", None),
    ("models", "qthermo.models.single_dot", "single_dot_generator", None),
    ("models", "qthermo.models.single_dot", "engine_regime", None),
    ("models", "qthermo.models.double_dot", "double_dot_concurrence", None),
    ("models", "qthermo.models.double_dot", "entanglement_heat_threshold", None),
    ("models", "qthermo.models.fridge", "fridge_generator", None),
    ("models", "qthermo.models.fridge", "product_gibbs_state", None),
    ("models", "qthermo.models.fridge", "fridge_switchoff_protocol", None),
    ("models", "qthermo.models.fridge", "fridge_coherent_transient", None),
    ("fcs", "qthermo.fcs", "cumulants", None),
    ("fcs", "qthermo.fcs", "counting_liouvillian", None),
    ("fcs", "qthermo.fcs", "dominant_eigenvalue", None),
    ("fcs", "qthermo.fcs", "spectral_gap", None),
    ("fcs", "qthermo.fcs", "tur_audit", None),
    ("trajectories", "qthermo.trajectories", "unravel",
     lambda a, k: _first(a, k, 5, "n_traj")),
    ("trajectories", "qthermo.trajectories", "backward_ensemble", None),
    ("trajectories", "qthermo.trajectories", "ft_estimators", None),
    ("trajectories", "qthermo.trajectories", "tpm_distribution", None),
    ("trajectories", "qthermo.trajectories", "tpm_sample",
     lambda a, k: _first(a, k, 2, "n_samples")),
    ("cli", "qthermo.cli", "run", _config_stem),
    ("cli", "qthermo.cli", "load_config", None),
    ("cli", "qthermo.cli", "write_table", None),
)

RUN_SPAN = "cli.run"


class Tracer:
    """Records one span per call of each function in :data:`TRACED`.

    A span is ``(id, name, start, end, parent id, size)``. Each thread keeps
    its own parent stack; a span that opens with an empty stack on a thread
    other than the main one (a CLI sweep worker) gets the open ``cli.run``
    span as its parent.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._open_run = None
        self._bindings = []  # (module, attribute, original function)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qthermo" or n.startswith("qthermo."))]
        for layer, module_name, function, size in TRACED:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._wrap(f"{layer}.{function}", original, size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, function, size):
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        is_run = name == RUN_SPAN

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main:
                parent = self._open_run
            else:
                parent = None
            span_id = next(ids)
            label = size(args, kwargs) if size is not None else None
            stack.append(span_id)
            if is_run:
                self._open_run = span_id
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_run:
                    self._open_run = None
                self.spans.append((span_id, name, start, end, parent, label))

        traced.__wrapped__ = function
        traced.__name__ = function.__name__
        return traced


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per-function and per-layer statistics of the spans of one pass.

    Self time is a span's duration minus the union of its children's
    intervals, so sweep workers running side by side are not subtracted
    twice from ``cli.run``.
    """
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    functions = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                     "size": 0, "by_label": defaultdict(float)})
    layers = defaultdict(float)
    for span_id, name, start, end, _, label in spans:
        duration = end - start
        self_s = duration - _union_length(children.get(span_id, ()))
        stats = functions[name]
        stats["calls"] += 1
        stats["self_s"] += self_s
        stats["total_s"] += duration
        if isinstance(label, str):
            stats["by_label"][label] += duration
        elif label is not None:
            stats["size"] += label
        layers[name.split(".", 1)[0]] += self_s
    return functions, layers


# Per-layer metrics of a traced pass, as declared in BENCHMARK.json:
# (function span, statistics). "calls" and "op_count" are counts; "self_s"
# is seconds of self time summed over the pass.
FUNCTION_METRICS = (
    ("qcore.expm_dense", ("calls", "self_s", "op_count")),
    ("qcore.dissipator_superop", ("calls", "self_s")),
    ("qcore.commutator_superop", ("calls",)),
    ("lindblad.build_liouvillian", ("calls", "self_s")),
    ("lindblad.propagate", ("calls", "self_s")),
    ("lindblad.validate_ledger", ("calls", "self_s")),
    ("lindblad.all_currents", ("calls", "self_s")),
    ("lindblad.entropy_production_rate", ("calls", "self_s")),
    ("lindblad.steady_state", ("calls", "self_s", "op_count")),
    ("models.single_dot_generator", ("calls",)),
    ("models.entanglement_heat_threshold", ("self_s",)),
    ("models.fridge_switchoff_protocol", ("self_s",)),
    ("models.fridge_coherent_transient", ("calls", "self_s")),
    ("fcs.cumulants", ("calls", "self_s")),
    ("fcs.counting_liouvillian", ("calls",)),
    ("fcs.dominant_eigenvalue", ("calls", "self_s")),
    ("trajectories.unravel", ("calls", "self_s")),
    ("trajectories.tpm_sample", ("self_s",)),
    ("trajectories.ft_estimators", ("self_s",)),
    ("cli.run", ("self_s",)),
    ("cli.load_config", ("self_s",)),
    ("cli.write_table", ("self_s",)),
)
# (metric, traced function, its size is a count of these) -> inclusive
# seconds of the function per trajectory or sample
PER_ITEM_METRICS = (
    ("trajectories.unravel.s_per_traj", "trajectories.unravel"),
    ("trajectories.tpm_sample.s_per_sample", "trajectories.tpm_sample"),
)
CLI_CONFIGS = ("heat_engine_levels", "heat_engine_lasso", "double_dot_entanglement",
               "fcs_biased_dot", "trajectories_ft", "tpm_quench",
               "absorption_switchoff", "single_dot_series")
UNITS = {"calls": "count", "op_count": "count", "self_s": "s"}


def declared_metrics():
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for function, stats in FUNCTION_METRICS:
        out.extend((f"{function}.{stat}", UNITS[stat]) for stat in stats)
    out.extend((f"{layer}.self_s", "s") for layer in LAYERS)
    out.extend((name, "s") for name, _ in PER_ITEM_METRICS)
    out.extend((f"cli.run.{stem}.wall_s", "s") for stem in CLI_CONFIGS)
    out.append(("fcs.cumulants.max_rel_err", "1"))
    out.append(("trace.overhead_frac", "1"))
    return out


def pass_metrics(spans):
    """Values of the per-layer metrics measured by the spans of one pass
    (all but the oracle error and the tracing overhead)."""
    functions, layers = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0, "by_label": {}}
    out = {}
    for function, stats in FUNCTION_METRICS:
        f = functions.get(function, empty)
        for stat in stats:
            out[f"{function}.{stat}"] = f["size"] if stat == "op_count" else f[stat]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for name, function in PER_ITEM_METRICS:
        f = functions.get(function, empty)
        out[name] = f["total_s"] / f["size"] if f["size"] else 0.0
    runs = functions.get("cli.run", empty)["by_label"]
    for stem in CLI_CONFIGS:
        out[f"cli.run.{stem}.wall_s"] = runs.get(stem, 0.0)
    return out
