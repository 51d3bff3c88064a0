"""Spinless single-level quantum dot: equilibration and the two-terminal engine.

One fermionic level at energy eps_d, tunnel-coupled to one or two
reservoirs. With two reservoirs tagged "c" (cold) and "h" (hot) the dot
is the textbook quantum-dot heat engine: a single transport energy turns
a temperature bias into chemical work.
"""

import math
from dataclasses import dataclass
from typing import Mapping

from ..lindblad import GKLSGenerator, ThermoLedger, all_currents, steady_state
from ..thermo import ReservoirSpec, fermi_dirac
from .common import LOWER, NUMBER, thermal_pair, warn_margin

BORN_MARKOV_MARGIN = 0.1


@dataclass(frozen=True)
class SingleDotParams:
    """Dot level eps_d plus one or two fermionic reservoirs (by tag).

    Emits a ValidityWarning when kappa > BORN_MARKOV_MARGIN *
    max(k_B T, |eps_d - mu|) for any reservoir (weak coupling; no error).
    """

    eps_d: float
    reservoirs: Mapping[str, ReservoirSpec]

    def __post_init__(self):
        object.__setattr__(self, "reservoirs", dict(self.reservoirs))
        if not 1 <= len(self.reservoirs) <= 2:
            raise ValueError("single dot supports 1 or 2 reservoirs")
        for tag, res in self.reservoirs.items():
            if res.statistics != "fermionic":
                raise ValueError(f"reservoir {tag!r} must be fermionic")
            scale = max(res.temperature,
                        abs(self.eps_d - res.chemical_potential))
            warn_margin(f"reservoir {tag!r} coupling", res.coupling, scale,
                        BORN_MARKOV_MARGIN)


def single_dot_generator(params):
    """(generator, ledger) with channels d / d† per reservoir.

    Rates are kappa (1 - n_F(eps_d)) for emptying and kappa n_F(eps_d)
    for filling; the pair satisfies local detailed balance. H_TD is the
    bare eps_d d†d.
    """
    h = params.eps_d * NUMBER
    channels = [ch for tag, res in params.reservoirs.items()
                for ch in thermal_pair(LOWER, res.coupling,
                                       fermi_dirac(params.eps_d, res), tag,
                                       params.eps_d, 1)]
    gen = GKLSGenerator(h, channels)
    ledger = ThermoLedger(h, NUMBER, params.reservoirs)
    return gen, ledger


def single_dot_occupation(params, p1_initial, t):
    """Closed-form occupation p1(t) = p1(0) e^{-gamma t} + nbar (1 - e^{-gamma t}).

    gamma is the summed coupling and nbar the coupling-weighted mean
    reservoir occupation; with one reservoir these reduce to kappa and
    n_F(eps_d).
    """
    gamma = sum(r.coupling for r in params.reservoirs.values())
    nbar = sum(r.coupling * fermi_dirac(params.eps_d, r)
               for r in params.reservoirs.values()) / gamma
    decay = math.exp(-gamma * t)
    return p1_initial * decay + nbar * (1.0 - decay)


def _engine_reservoirs(params):
    if set(params.reservoirs) != {"c", "h"}:
        raise ValueError("engine operations require reservoirs tagged 'c' and 'h'")
    return params.reservoirs["c"], params.reservoirs["h"]


def engine_steady_power(params):
    """Steady output power kc kh/(kc+kh) (mu_c - mu_h) (n_F^h - n_F^c)."""
    cold, hot = _engine_reservoirs(params)
    nf_c = fermi_dirac(params.eps_d, cold)
    nf_h = fermi_dirac(params.eps_d, hot)
    kc, kh = cold.coupling, hot.coupling
    return (kc * kh / (kc + kh)
            * (cold.chemical_potential - hot.chemical_potential)
            * (nf_h - nf_c))


def engine_efficiency(params):
    """eta = (mu_c - mu_h)/(eps_d - mu_h); None at eps_d = mu_h (undefined),
    0.0 at mu_c = mu_h."""
    cold, hot = _engine_reservoirs(params)
    num = cold.chemical_potential - hot.chemical_potential
    den = params.eps_d - hot.chemical_potential
    if den == 0.0:
        return None
    return num / den


def engine_cop(params):
    """Refrigeration eta_COP = (eps_d - mu_c)/(mu_c - mu_h); None at mu_c = mu_h."""
    cold, hot = _engine_reservoirs(params)
    den = cold.chemical_potential - hot.chemical_potential
    if den == 0.0:
        return None
    return (params.eps_d - cold.chemical_potential) / den


def carnot_efficiency(params):
    cold, hot = _engine_reservoirs(params)
    return 1.0 - cold.temperature / hot.temperature


def carnot_cop(params):
    cold, hot = _engine_reservoirs(params)
    return cold.temperature / (hot.temperature - cold.temperature)


def engine_regime(params):
    """Operating regime from the signs of (P, J_c, J_h) at steady state.

    See :func:`regime_from_currents` for the classification.
    """
    gen, ledger = single_dot_generator(params)
    return regime_from_currents(all_currents(gen, ledger, steady_state(gen)))


def regime_from_currents(currents):
    """Operating regime from ``all_currents`` of the engine's steady state.

    heat_engine: P > 0; refrigerator: heat leaves the cold reservoir;
    joint_heating: both reservoirs absorb heat; dual_dissipation: power
    is dissipated while heat still flows hot -> cold.
    """
    j_c, p_c = currents["c"]
    j_h, p_h = currents["h"]
    if p_c + p_h > 0.0:
        return "heat_engine"
    if j_c < 0.0:
        return "refrigerator"
    if j_h >= 0.0:
        return "joint_heating"
    return "dual_dissipation"


def stopping_voltage(params):
    """mu_c at which the steady power vanishes: n_F^c(eps_d) = n_F^h(eps_d)
    gives mu_c = eps_d - (T_c/T_h)(eps_d - mu_h), where eta = eta_C.

    At T_c = T_h or eps_d = mu_h the power vanishes only at mu_c = mu_h,
    which is no stopping voltage: ValueError.
    """
    cold, hot = _engine_reservoirs(params)
    gap = params.eps_d - hot.chemical_potential
    if cold.temperature == hot.temperature or gap == 0.0:
        raise ValueError("no stopping voltage at T_c = T_h or eps_d = mu_h: "
                         "the power vanishes only at mu_c = mu_h")
    return params.eps_d - cold.temperature / hot.temperature * gap
