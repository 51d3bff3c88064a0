"""Serial double quantum dot: transport, coherence, and steady-state entanglement.

Two spinless levels at equal on-site energy eps with interdot tunneling
g, each dot tunnel-coupled to its own fermionic reservoir (tags "L" and
"R"). Two master-equation flavors:

- ``mode="local"``: singular-coupling limit; jumps act on the bare site
  operators d_L, d_R at energy eps; thermodynamic Hamiltonian
  eps (n_L + n_R). Coherences between the dots survive and an
  out-of-equilibrium bias generates entanglement.
- ``mode="secular"``: jumps act on the eigenmodes d_± at energies
  eps ± g with half rates; populations and coherences decouple.

Basis order throughout: |00>, |10>, |01>, |11> with |11> = d_L† d_R†|00>
(the fermionic order matters for the sign of the coherence).
"""

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..lindblad import GKLSGenerator, ThermoLedger
from ..qcore import dagger, kron
from ..thermo import ReservoirSpec, concurrence, fermi_dirac
from .common import IDENT2, LOWER, PARITY, thermal_pair, warn_margin

DOUBLE_DOT_MARGIN = 0.5

# Jordan-Wigner fermionic modes; the R mode is the most significant kron
# factor so the composite index is n_L + 2 n_R, i.e. |00>,|10>,|01>,|11>.
D_L = kron(IDENT2, LOWER)
D_R = kron(LOWER, PARITY)
N_L = dagger(D_L) @ D_L
N_R = dagger(D_R) @ D_R
N_TOT = N_L + N_R
# Delocalized eigenmodes d_± = (d_R ± d_L)/sqrt(2).
D_PLUS = (D_R + D_L) / math.sqrt(2.0)
D_MINUS = (D_R - D_L) / math.sqrt(2.0)


@dataclass(frozen=True)
class DoubleDotParams:
    """Equal on-site energy eps, tunneling g, reservoirs tagged "L"/"R".

    Validity warnings (never errors): local mode wants
    g <= DOUBLE_DOT_MARGIN * max(k_B T_a, |eps - mu_a|); secular mode
    wants kappa_a <= DOUBLE_DOT_MARGIN * g.
    """

    eps: float
    g: float
    reservoirs: Mapping[str, ReservoirSpec]
    mode: str = "local"

    def __post_init__(self):
        object.__setattr__(self, "reservoirs", dict(self.reservoirs))
        if set(self.reservoirs) != {"L", "R"}:
            raise ValueError("double dot requires reservoirs tagged 'L' and 'R'")
        if self.mode not in ("local", "secular"):
            raise ValueError(f"mode must be 'local' or 'secular', got {self.mode!r}")
        for tag, res in self.reservoirs.items():
            if res.statistics != "fermionic":
                raise ValueError(f"reservoir {tag!r} must be fermionic")
            if self.mode == "local":
                scale = max(res.temperature,
                            abs(self.eps - res.chemical_potential))
                warn_margin("local master equation, interdot tunneling",
                            self.g, scale, DOUBLE_DOT_MARGIN)
            else:
                warn_margin(f"secular approximation, reservoir {tag!r} coupling",
                            res.coupling, self.g, DOUBLE_DOT_MARGIN)


def hamiltonian(params):
    """eps (n_L + n_R) + g (d_L† d_R + d_R† d_L)."""
    hop = dagger(D_L) @ D_R
    return params.eps * N_TOT + params.g * (hop + dagger(hop))


def double_dot_generator(params):
    """(generator, ledger) in the requested mode.

    Local mode: channels d_a / d_a† at energy eps with rates
    kappa_a (1 - n_F^a(eps)) / kappa_a n_F^a(eps); ledger H_TD neglects
    the interdot coupling. Secular mode: channels d_± / d_±† at energies
    eps ± g with rates kappa_a/2 weighted by n_F^a(eps ± g); ledger
    H_TD = H_S.
    """
    h_s = hamiltonian(params)
    if params.mode == "local":
        site_ops = {"L": D_L, "R": D_R}
        channels = [ch for tag, res in params.reservoirs.items()
                    for ch in thermal_pair(site_ops[tag], res.coupling,
                                           fermi_dirac(params.eps, res), tag,
                                           params.eps, 1)]
        ledger = ThermoLedger(params.eps * N_TOT, N_TOT, params.reservoirs)
    else:
        mode_ops = ((D_PLUS, params.eps + params.g),
                    (D_MINUS, params.eps - params.g))
        channels = [ch for tag, res in params.reservoirs.items()
                    for op, energy in mode_ops
                    for ch in thermal_pair(op, 0.5 * res.coupling,
                                           fermi_dirac(energy, res), tag,
                                           energy, 1)]
        ledger = ThermoLedger(h_s, N_TOT, params.reservoirs)
    return GKLSGenerator(h_s, channels), ledger


def _local_inputs(params):
    if params.mode != "local":
        raise ValueError("closed-form steady state requires mode='local'")
    res_l = params.reservoirs["L"]
    res_r = params.reservoirs["R"]
    return (fermi_dirac(params.eps, res_l), fermi_dirac(params.eps, res_r),
            res_l.coupling, res_r.coupling)


def _correlator_system(params):
    """(A, b) of the correlator equations v' = A v + b of the local mode."""
    nf_l, nf_r, k_l, k_r = _local_inputs(params)
    g = params.g
    k_sum = 0.5 * (k_l + k_r)
    a = np.array([
        [-k_l, 0.0, -1j * g, 1j * g],
        [0.0, -k_r, 1j * g, -1j * g],
        [-1j * g, 1j * g, -k_sum, 0.0],
        [1j * g, -1j * g, 0.0, -k_sum],
    ], dtype=complex)
    b = np.array([k_l * nf_l, k_r * nf_r, 0.0, 0.0], dtype=complex)
    return a, b


def _solve_correlators(a, b):
    """v = A^{-1}(-b) for one system or a stack ``(..., 4, 4)``, ``(..., 4)``."""
    return np.linalg.solve(a, -b[..., None])[..., 0]


def _state_from_correlators(v):
    """(..., 4, 4) Gaussian states of correlator vectors (..., 4)."""
    n_l, n_r = v[..., 0].real, v[..., 1].real
    p_d = n_l * n_r - (v[..., 2] * v[..., 3]).real
    rho = np.zeros(v.shape[:-1] + (4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0 - n_l - n_r + p_d
    rho[..., 1, 1] = n_l - p_d
    rho[..., 2, 2] = n_r - p_d
    rho[..., 3, 3] = p_d
    rho[..., 1, 2] = v[..., 3]          # <10|rho|01> = <d_R† d_L>
    rho[..., 2, 1] = v[..., 2]
    return rho


def double_dot_correlators_ss(params):
    """Steady one-particle correlators (<n_L>, <n_R>, <d_L†d_R>, <d_R†d_L>).

    Solves the closed linear system v' = A v + b of the local master
    equation at v' = 0; fails only if A is singular, which cannot happen
    for positive couplings.
    """
    return _solve_correlators(*_correlator_system(params))


def double_dot_state_ss(params):
    """4x4 steady state assembled from the correlators via Wick's theorem.

    The double occupancy is <n_L><n_R> - <d_L†d_R><d_R†d_L> (Gaussian
    state); the single coherence sits on |10><01| and equals <d_R†d_L>.
    """
    return _state_from_correlators(double_dot_correlators_ss(params))


def double_dot_state_closed_form(params):
    """Steady state as the explicit two-Gibbs-plus-coherence closed form.

    (kappa_L kappa_R * product of per-dot Gibbs states
     + 4g^2 * Gibbs at the mean occupation nbar
     - i * 2g kappa_L kappa_R (n_F^L - n_F^R)/(kappa_L + kappa_R)
       * (d_L†d_R - d_R†d_L)) / (4g^2 + kappa_L kappa_R)
    """
    nf_l, nf_r, k_l, k_r = _local_inputs(params)
    g = params.g
    nbar = (k_l * nf_l + k_r * nf_r) / (k_l + k_r)

    def product_state(occ_l, occ_r):
        return np.diag([(1 - occ_l) * (1 - occ_r), occ_l * (1 - occ_r),
                        (1 - occ_l) * occ_r, occ_l * occ_r]).astype(complex)

    # sign of the coherence term fixed by the correlator equations of
    # motion (and the dense Liouvillian): <d_L†d_R> = -i w/(4g^2 + kL kR)
    coherence = dagger(D_L) @ D_R - dagger(D_R) @ D_L
    weight = 2.0 * g * k_l * k_r * (nf_l - nf_r) / (k_l + k_r)
    rho = (k_l * k_r * product_state(nf_l, nf_r)
           + 4.0 * g * g * product_state(nbar, nbar)
           + 1j * weight * coherence)
    return rho / (4.0 * g * g + k_l * k_r)


def double_dot_concurrence(params):
    """Concurrence of the local-mode steady state."""
    return concurrence(double_dot_state_ss(params))


def double_dot_sweep_concurrence(sweep):
    """Concurrence at each point of a sequence of local-mode params, as an
    array, from one stacked correlator solve; each point keeps the bits of
    :func:`double_dot_concurrence`."""
    a, b = (np.stack(x) for x in zip(*map(_correlator_system, sweep)))
    return concurrence(_state_from_correlators(_solve_correlators(a, b)))


def heat_current_closed_form(params):
    """Steady heat into the right reservoir,
    (eps - mu_R) 4g^2 kL kR (n_F^L - n_F^R) / ((kL + kR)(4g^2 + kL kR))."""
    nf_l, nf_r, k_l, k_r = _local_inputs(params)
    g = params.g
    mu_r = params.reservoirs["R"].chemical_potential
    return ((params.eps - mu_r) * 4.0 * g * g * k_l * k_r * (nf_l - nf_r)
            / ((k_l + k_r) * (4.0 * g * g + k_l * k_r)))


def critical_heat_current(params):
    """Entanglement threshold for |J_R|; the state is entangled iff
    |J_R| >= J_crit. Needs kappa_L kappa_R > 0."""
    nf_l, nf_r, k_l, k_r = _local_inputs(params)
    if k_l * k_r == 0.0:
        raise ValueError("critical heat current needs kappa_L kappa_R > 0")
    g = params.g
    mu_r = params.reservoirs["R"].chemical_potential
    nbar = (k_l * nf_l + k_r * nf_r) / (k_l + k_r)
    ratio = 4.0 * g * g / (k_l * k_r)
    bracket = (((1 - nf_l) * (1 - nf_r) + ratio * (1 - nbar) ** 2)
               * (nf_l * nf_r + ratio * nbar ** 2))
    return (abs(params.eps - mu_r) * abs(g) * 2.0 * k_l * k_r
            / (4.0 * g * g + k_l * k_r) * math.sqrt(bracket))


def entanglement_heat_threshold(params):
    """(J_R, J_crit, entangled?) with all three mutually consistent."""
    j_r = heat_current_closed_form(params)
    j_crit = critical_heat_current(params)
    return j_r, j_crit, abs(j_r) >= j_crit
