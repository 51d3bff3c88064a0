"""Three-qubit absorption refrigerator.

Qubits c (cold), h (hot), r (room) with gaps eps_c, eps_h,
eps_r = eps_c + eps_h (resonance enforced exactly), coupled by the
three-body exchange g(|001><110| + |110><001|) in the |c h r> product
basis. Each qubit exchanges photons with its own bosonic reservoir
(mu = 0); temperatures are expected ordered T_c <= T_r <= T_h.

A heat flow hot -> room drags heat out of the cold reservoir; the
tendency is captured by the single number I = 2g Im<sigma_r† sigma_c
sigma_h>, with J_c = -eps_c I, J_h = -eps_h I, J_r = +eps_r I. The
coherent switch-off protocol (interaction off at the first temperature
minimum) is ``fridge_switchoff_transient``. Every cold-qubit temperature
follows one rule: theta(p) where 0 < p < 1/2, else inf.
"""

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..lindblad import (GKLSGenerator, JumpChannel, ThermoLedger, all_currents,
                        build_liouvillian, propagate, steady_state)
from ..qcore import NumericalError, dagger, expm_dense, kron, vectorize
from ..thermo import (ReservoirSpec, bose_einstein, effective_temperature,
                      fermi_dirac, gibbs_state)
from .common import IDENT2, LOWER, stack_sweep

# Lowering operators in the |c h r> product basis (c most significant).
SIGMA_C = kron(LOWER, kron(IDENT2, IDENT2))
SIGMA_H = kron(IDENT2, kron(LOWER, IDENT2))
SIGMA_R = kron(IDENT2, kron(IDENT2, LOWER))
_NUM = {tag: dagger(op) @ op for tag, op in
        (("c", SIGMA_C), ("h", SIGMA_H), ("r", SIGMA_R))}

# Bookkeeping against structural currents, relative to max(|I| eps_r, 1).
TOL_CURRENT_CONSISTENCY = 1e-9
# Bracket width of the golden-section search for t_min, in units of 1/g,
# and the horizon of its coarse scan, in exchange periods pi/g.
T_MIN_WIDTH = 1e-10
T_MIN_HORIZON_PERIODS = 3.0


@dataclass(frozen=True)
class FridgeParams:
    """Gaps, three-body coupling, and three bosonic reservoirs by tag.

    ``reservoirs`` maps "c"/"h"/"r" to bosonic ReservoirSpec whose
    coupling is the *bare* rate (the one multiplying n_B and n_B + 1).
    ``eps_r`` defaults to eps_c + eps_h; passing anything else is an
    error (the resonance is exact by construction).
    """

    eps_c: float
    eps_h: float
    g: float
    reservoirs: Mapping[str, ReservoirSpec]
    eps_r: float = None

    def __post_init__(self):
        if self.eps_c <= 0 or self.eps_h <= 0:
            raise ValueError("qubit gaps must be positive")
        if self.eps_r is None:
            object.__setattr__(self, "eps_r", self.eps_c + self.eps_h)
        elif self.eps_r != self.eps_c + self.eps_h:
            raise ValueError(
                f"resonance violated: eps_r = {self.eps_r} != eps_c + eps_h "
                f"= {self.eps_c + self.eps_h} (must hold exactly)")
        object.__setattr__(self, "reservoirs", dict(self.reservoirs))
        if set(self.reservoirs) != {"c", "h", "r"}:
            raise ValueError("fridge requires reservoirs tagged 'c', 'h', 'r'")
        for tag, res in self.reservoirs.items():
            if res.statistics != "bosonic":
                raise ValueError(f"reservoir {tag!r} must be bosonic (mu = 0)")
            if not math.isfinite(bose_einstein(self.gap(tag), res)):
                raise ValueError(f"qubit {tag!r}: Bose occupation not finite "
                                 f"at eps/k_B T = {res.beta * self.gap(tag)}")

    def gap(self, tag):
        return {"c": self.eps_c, "h": self.eps_h, "r": self.eps_r}[tag]

    def qubit_occupation(self, tag):
        """Fermi-form occupation n_F = 1/(e^{eps/k_B T} + 1) of one qubit."""
        res = self.reservoirs[tag]
        return fermi_dirac(self.gap(tag),
                           ReservoirSpec(res.temperature, 0.0, "fermionic"))

    def effective_rate(self, tag):
        """kappa = kappa_bare * n_B / n_F, the rate in the Fermi form."""
        res, n_f = self.reservoirs[tag], self.qubit_occupation(tag)
        if n_f == 0.0:  # underflow at large eps/k_B T, where n_B / n_F -> 1
            return res.coupling
        return res.coupling * bose_einstein(self.gap(tag), res) / n_f


def hamiltonian(params):
    h0 = (params.eps_c * _NUM["c"] + params.eps_h * _NUM["h"]
          + params.eps_r * _NUM["r"])
    exchange = dagger(SIGMA_R) @ SIGMA_C @ SIGMA_H
    return h0 + params.g * (exchange + dagger(exchange)), h0


def fridge_generator(params):
    """(generator, ledger) on the 8-dimensional space.

    Channels sigma_a / sigma_a† with rates kappa_a (1 - n_F^a) and
    kappa_a n_F^a, where kappa_a = kappa_bare n_B^a / n_F^a; the pair is
    exactly the bosonic kappa_bare (n_B + 1) / kappa_bare n_B and obeys
    local detailed balance. Ledger: H_TD = H_0 (interaction neglected in
    the bookkeeping), no particle counting (photons, mu = 0).
    """
    h_s, h0 = hamiltonian(params)
    sigma = {"c": SIGMA_C, "h": SIGMA_H, "r": SIGMA_R}
    channels = []
    for tag in ("c", "h", "r"):
        kappa = params.effective_rate(tag)
        nf = params.qubit_occupation(tag)
        eps = params.gap(tag)
        channels.append(JumpChannel(sigma[tag], kappa * (1.0 - nf), tag,
                                    energy_quantum=eps, particle_quantum=0))
        channels.append(JumpChannel(dagger(sigma[tag]), kappa * nf, tag,
                                    energy_quantum=-eps, particle_quantum=0))
    gen = GKLSGenerator(h_s, tuple(channels))
    ledger = ThermoLedger(h0, np.zeros((8, 8)), params.reservoirs)
    return gen, ledger


def product_gibbs_state(params):
    """g = 0 steady state: product of the three single-qubit Gibbs states."""
    blocks = []
    for tag in ("c", "h", "r"):
        res = params.reservoirs[tag]
        h_qubit = params.gap(tag) * (dagger(LOWER) @ LOWER)
        blocks.append(gibbs_state(h_qubit, res))
    return kron(blocks[0], kron(blocks[1], blocks[2]))


def exchange_amplitude(params, rho):
    """I = 2g Im<sigma_r† sigma_c sigma_h> in the given state."""
    return float(_exchange_amplitude(params.g, rho))


def _exchange_amplitude(g, rho):
    """2g Im Tr(sigma_r† sigma_c sigma_h rho) of each state of a stack."""
    op = dagger(SIGMA_R) @ SIGMA_C @ SIGMA_H
    return 2.0 * g * np.trace(op @ rho, axis1=-2, axis2=-1).imag


def cooling_window_boundary(params):
    """Carnot COP of the absorption fridge,
    T_c (T_h - T_r) / (T_h (T_r - T_c)); cooling requires
    eps_c/eps_h <= this ratio."""
    t_c = params.reservoirs["c"].temperature
    t_h = params.reservoirs["h"].temperature
    t_r = params.reservoirs["r"].temperature
    return t_c * (t_h - t_r) / (t_h * (t_r - t_c))


def fridge_observables(params):
    """(I, J_c, J_h, J_r, theta, cooling?) at the steady state.

    The currents are evaluated twice, from the generic ledger bookkeeping
    and from the structural identities (-eps_c I, -eps_h I, +eps_r I);
    disagreement beyond TOL_CURRENT_CONSISTENCY (scaled) raises. theta is the
    effective temperature of the cold qubit.
    """
    return fridge_sweep_observables([params])[0]


def fridge_sweep_observables(sweep):
    """:func:`fridge_observables` at each point of a sequence of params.

    One stacked steady state and one stacked current evaluation serve all
    points (see :func:`~qthermo.models.common.stack_sweep`); each point
    keeps its bits, and the first failing point raises.
    """
    gen, ledger = stack_sweep([fridge_generator(p) for p in sweep])
    rho = steady_state(gen)
    amps = _exchange_amplitude(np.array([p.g for p in sweep]), rho).tolist()
    currents = {tag: j.tolist()
                for tag, (j, _) in all_currents(gen, ledger, rho).items()}
    occs = np.trace(_NUM["c"] @ rho, axis1=-2, axis2=-1).real.tolist()

    def point(i):
        params, amp = sweep[i], amps[i]
        structural = {"c": -params.eps_c * amp, "h": -params.eps_h * amp,
                      "r": params.eps_r * amp}
        bound = TOL_CURRENT_CONSISTENCY * max(abs(amp) * params.eps_r, 1.0)
        for tag in ("c", "h", "r"):
            if abs(currents[tag][i] - structural[tag]) > bound:
                raise NumericalError(
                    f"bookkeeping J_{tag} = {currents[tag][i]} disagrees with "
                    f"structural value {structural[tag]}")
        return (amp, currents["c"][i], currents["h"][i], currents["r"][i],
                _thetas([occs[i]], params.eps_c).item(), amp > 0.0)

    return [point(i) for i in range(len(sweep))]


def occupation_imbalance(params):
    """delta_n = n_c n_h (1 - n_r) - (1 - n_c)(1 - n_h) n_r at g = 0."""
    n_c = params.qubit_occupation("c")
    n_h = params.qubit_occupation("h")
    n_r = params.qubit_occupation("r")
    return n_c * n_h * (1.0 - n_r) - (1.0 - n_c) * (1.0 - n_h) * n_r


def fridge_perturbative_I(params):
    """Leading-order I = 4 g^2 delta_n / (kappa_c + kappa_h + kappa_r).

    Valid for g much smaller than the summed rates; the error is
    relative O(g/sum kappa)^... quadratic-in-g heat currents follow.
    """
    kappa_sum = sum(params.effective_rate(tag) for tag in ("c", "h", "r"))
    return 4.0 * params.g ** 2 * occupation_imbalance(params) / kappa_sum


def fridge_coherent_transient(params, t_max, n_steps):
    """(times, occupations, thetas) of the cold qubit from the product Gibbs
    state, the refrigerator-off fixed point. For kappa -> 0 the occupation
    converges pointwise to n_F^c - delta_n sin^2(g t)."""
    gen, _ = fridge_generator(params)
    times = np.linspace(0.0, t_max, n_steps)
    occs = _occupations(gen, product_gibbs_state(params), times)
    return times, occs, _thetas(occs, params.eps_c)


def _occupations(gen, rho, times):
    """Cold-qubit occupation from ``rho`` at the equally spaced ``times``."""
    occs = np.empty(len(times))
    if len(times) > 1:
        step_prop = expm_dense(build_liouvillian(gen), times[1] - times[0])
    vec = vectorize(rho.astype(complex))
    num_vec = vectorize(_NUM["c"]).conj()
    for j in range(len(times)):
        occs[j] = (num_vec @ vec).real
        if j + 1 < len(times):
            vec = step_prop @ vec
    return occs


def _thetas(occs, eps_c):
    """The one theta rule: theta of each occupation p in (0, 1/2), else inf."""
    return np.array([effective_temperature(p, eps_c) if 0.0 < p < 0.5
                     else math.inf for p in occs])


def _golden_section_min(f, lo, hi, tol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def switchoff_scan(params):
    """(horizon, step) of the coarse scan for the first temperature minimum:
    T_MIN_HORIZON_PERIODS exchange periods pi/g at step 0.01/g. A
    ``ValueError`` names g unless it is > 0 and both are finite."""
    g = params.g
    if not g > 0.0:
        raise ValueError(f"params.g = {g} must be > 0 for the "
                         "switch-off protocol")
    horizon, step = T_MIN_HORIZON_PERIODS * math.pi / g, 0.01 / g
    if not (math.isfinite(horizon) and math.isfinite(step)):
        raise ValueError(f"params.g = {g} is too small for the switch-off "
                         f"protocol: its scan of {T_MIN_HORIZON_PERIODS:g} "
                         "periods pi/g at step 0.01/g overflows")
    return horizon, step


def _first_minimum(params, gen, rho0):
    """(t_min, occupation) at the first minimum of the cold-qubit occupation
    from ``rho0``: coarse scan of :func:`switchoff_scan`, golden-section
    refinement to T_MIN_WIDTH/g. ``NumericalError`` when no interior
    minimum exists within the scan (e.g. delta_n <= 0)."""
    horizon, step = switchoff_scan(params)
    times = np.linspace(0.0, horizon, int(horizon / step) + 1)
    occs = _occupations(gen, rho0, times)
    for j in range(1, len(occs) - 1):
        if occs[j] <= occs[j - 1] and occs[j] <= occs[j + 1]:
            return _golden_section_min(
                lambda t: np.trace(_NUM["c"] @ propagate(gen, rho0, t)).real,
                times[j - 1], times[j + 1], T_MIN_WIDTH / params.g)
    raise NumericalError("no occupation minimum found within the horizon")


def fridge_switchoff_protocol(params):
    """(t_min, theta_min, theta_ss): the first minimum of the cold-qubit
    temperature from the product Gibbs state, and the steady state's."""
    gen, _ = fridge_generator(params)
    t_min, occ_min = _first_minimum(params, gen, product_gibbs_state(params))
    occ_ss = float(np.trace(_NUM["c"] @ steady_state(gen)).real)
    return (t_min, *_thetas([occ_min, occ_ss], params.eps_c).tolist())


def fridge_switchoff_transient(params, t_max, steps):
    """Columns (t, occupation, theta, interaction on) of ``steps`` rows
    from the product Gibbs state: the interaction is on up to the first
    temperature minimum t_min, then off (g = 0) up to ``t_max`` (3 t_min
    when None), which must exceed t_min."""
    gen_on, _ = fridge_generator(params)
    rho0 = product_gibbs_state(params)
    t_min, _ = _first_minimum(params, gen_on, rho0)
    if t_max is not None and t_max <= t_min:
        raise ValueError(f"params.t_max = {t_max} must exceed the first "
                         f"temperature minimum t_min = {t_min}")
    horizon = t_max if t_max is not None else 3.0 * t_min
    n_on = max(2, int(steps * t_min / horizon) + 1)
    n_off = max(2, steps - n_on)
    times_on = np.linspace(0.0, t_min, n_on)
    times_off = np.linspace(0.0, horizon - t_min, n_off)
    gen_off, _ = fridge_generator(replace(params, g=0.0))
    occs = np.concatenate([
        _occupations(gen_on, rho0, times_on),
        _occupations(gen_off, propagate(gen_on, rho0, t_min), times_off)[1:]])
    return (np.concatenate([times_on, t_min + times_off[1:]]), occs,
            _thetas(occs, params.eps_c), np.repeat([1, 0], [n_on, n_off - 1]))
