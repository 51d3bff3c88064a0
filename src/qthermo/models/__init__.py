"""Concrete thermal machines: single-dot engine, double-dot entanglement
generator, and three-qubit absorption refrigerator.

Each machine's module is executed on first use: a name of ``__all__``
resolves from ``single_dot``, ``double_dot`` or ``fridge`` when it is
first read (PEP 562), so a program that builds one machine loads only
that machine's code."""

from .. import _lazy_submodule
from .common import ValidityWarning, stack_sweep

single_dot, double_dot, fridge = (
    _lazy_submodule(__package__, name)
    for name in ("single_dot", "double_dot", "fridge"))

# the module that defines each name of __all__, in the order of __all__
_HOME = {name: module for module, names in (
    (single_dot, ("SingleDotParams", "single_dot_generator",
                  "single_dot_occupation", "engine_steady_power",
                  "engine_efficiency", "engine_cop", "engine_regime",
                  "stopping_voltage")),
    (double_dot, ("DoubleDotParams", "double_dot_generator",
                  "double_dot_correlators_ss", "double_dot_state_ss",
                  "double_dot_state_closed_form", "double_dot_concurrence",
                  "double_dot_sweep_concurrence",
                  "entanglement_heat_threshold")),
    (fridge, ("FridgeParams", "fridge_generator", "fridge_observables",
              "fridge_sweep_observables", "fridge_perturbative_I",
              "fridge_coherent_transient", "fridge_switchoff_protocol",
              "fridge_switchoff_transient")),
) for name in names}

__all__ = [*_HOME, "ValidityWarning", "stack_sweep"]


def __getattr__(name):
    """A name of ``__all__`` from its machine's module (PEP 562)."""
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
