"""Concrete thermal machines: single-dot engine, double-dot entanglement
generator, and three-qubit absorption refrigerator."""

from .single_dot import (SingleDotParams, engine_cop, engine_efficiency,
                         engine_regime, engine_steady_power, single_dot_generator,
                         single_dot_occupation, stopping_voltage)
from .double_dot import (DoubleDotParams, double_dot_concurrence,
                         double_dot_correlators_ss, double_dot_generator,
                         double_dot_state_closed_form, double_dot_state_ss,
                         double_dot_sweep_concurrence,
                         entanglement_heat_threshold)
from .fridge import (FridgeParams, fridge_coherent_transient, fridge_generator,
                     fridge_observables, fridge_perturbative_I,
                     fridge_sweep_observables, fridge_switchoff_protocol,
                     fridge_switchoff_transient)
from .common import ValidityWarning, stack_sweep

__all__ = [
    "SingleDotParams", "single_dot_generator", "single_dot_occupation",
    "engine_steady_power", "engine_efficiency", "engine_cop", "engine_regime",
    "stopping_voltage",
    "DoubleDotParams", "double_dot_generator", "double_dot_correlators_ss",
    "double_dot_state_ss", "double_dot_state_closed_form",
    "double_dot_concurrence", "double_dot_sweep_concurrence",
    "entanglement_heat_threshold",
    "FridgeParams", "fridge_generator", "fridge_observables",
    "fridge_sweep_observables",
    "fridge_perturbative_I", "fridge_coherent_transient",
    "fridge_switchoff_protocol", "fridge_switchoff_transient",
    "ValidityWarning", "stack_sweep",
]
