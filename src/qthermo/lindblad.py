"""GKLS generators, propagation, steady states, and thermodynamic bookkeeping.

A :class:`GKLSGenerator` is a Hermitian Hamiltonian plus a list of
:class:`JumpChannel`; attaching a :class:`ThermoLedger` (thermodynamic
Hamiltonian, particle-number operator, reservoir table) turns generator
action into heat currents, powers, and entropy production.

The superoperator of a generator is assembled once, on first use, and
cached on the generator as a read-only array; :func:`build_liouvillian`,
:func:`propagate`, :func:`steady_state` and the counting functions in
``fcs`` all share it. It lives as long as the generator: d^4 complex
entries, 16 MB at d = 32 and 268 MB at d = 64. The per-channel jump
superoperators that ``fcs`` tilts are cached the same way on first use
(d^4 entries per channel). A generator's arrays must therefore not be
modified in place once it has been used.

Sign convention: heat and power are positive when they flow *into* the
reservoir they are tagged with.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Tuple

import numpy as np

from .qcore import (KB, TOL_HERM, commutator_superop, dagger,
                    dissipator_superop, expm_dense, hermitize, is_hermitian,
                    kron, unvectorize, vectorize)
from .thermo import ReservoirSpec

# Floor for state eigenvalues inside logarithms of dS_vN/dt; rank-deficient
# states are clipped here instead of producing -inf.
ENTROPY_EIG_FLOOR = 1e-30


class MultistabilityError(RuntimeError):
    """The Liouvillian kernel is not one-dimensional."""


class LedgerError(ValueError):
    """Generator and thermodynamic ledger are inconsistent."""


@dataclass(frozen=True)
class JumpChannel:
    """One dissipative channel gamma * D[L].

    ``energy_quantum`` (omega) and ``particle_quantum`` (n) are the
    energy and particle number removed from the system per jump; against
    a ledger they must satisfy the ladder identities [L, H_TD] = omega L
    and [L, N_S] = n L.
    """

    operator: np.ndarray
    rate: float
    reservoir: str
    energy_quantum: float = 0.0
    particle_quantum: int = 0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"GKLS rate must be >= 0, got {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be square")
        object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class GKLSGenerator:
    """Hamiltonian + jump channels of a time-independent GKLS generator."""

    hamiltonian: np.ndarray
    channels: Tuple[JumpChannel, ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if not is_hermitian(h, TOL_HERM):
            raise ValueError("Hamiltonian must be Hermitian within 1e-10")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(self.channels))
        for ch in self.channels:
            if ch.operator.shape != h.shape:
                raise ValueError("channel dimension does not match Hamiltonian")

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    def reservoirs(self):
        seen = []
        for ch in self.channels:
            if ch.reservoir not in seen:
                seen.append(ch.reservoir)
        return seen

    @cached_property
    def _liouvillian(self):
        """Read-only -i[H, .] + sum_k gamma_k D[L_k], assembled on first use."""
        d2 = self.dim ** 2
        dissipative = np.zeros((d2, d2), dtype=complex)
        for ch in self.channels:
            dissipative += ch.rate * dissipator_superop(ch.operator)
        liou = commutator_superop(self.hamiltonian) + dissipative
        liou.flags.writeable = False
        return liou

    @cached_property
    def _jump_superops(self):
        """Read-only L-bar (x) L of every channel, in channel order."""
        jumps = tuple(kron(ch.operator.conj(), ch.operator)
                      for ch in self.channels)
        for jump in jumps:
            jump.flags.writeable = False
        return jumps


@dataclass(frozen=True)
class ThermoLedger:
    """Thermodynamic Hamiltonian, particle-number operator, reservoir table."""

    h_td: np.ndarray
    n_s: np.ndarray
    reservoirs: Mapping[str, ReservoirSpec] = field(default_factory=dict)

    def __post_init__(self):
        h = np.asarray(self.h_td, dtype=complex)
        n = np.asarray(self.n_s, dtype=complex)
        comm = h @ n - n @ h
        if np.max(np.abs(comm)) > 1e-9:
            raise LedgerError("[H_TD, N_S] != 0 within 1e-9")
        object.__setattr__(self, "h_td", h)
        object.__setattr__(self, "n_s", n)
        object.__setattr__(self, "reservoirs", dict(self.reservoirs))


def validate_ledger(gen, ledger, tol=1e-9):
    """Check the ladder identities of every channel against the ledger.

    [L, H_TD] = omega L and [L, N_S] = n L within ``tol``; every channel
    must be tagged with a reservoir present in the ledger.
    """
    for ch in gen.channels:
        if ch.reservoir not in ledger.reservoirs:
            raise LedgerError(f"channel tagged {ch.reservoir!r} has no "
                              "reservoir entry in the ledger")
        op = ch.operator
        scale = max(float(np.max(np.abs(op))), 1.0)
        err_h = np.max(np.abs(op @ ledger.h_td - ledger.h_td @ op
                              - ch.energy_quantum * op))
        err_n = np.max(np.abs(op @ ledger.n_s - ledger.n_s @ op
                              - ch.particle_quantum * op))
        if err_h > tol * scale or err_n > tol * scale:
            raise LedgerError(
                f"channel ({ch.reservoir}, omega={ch.energy_quantum}) violates "
                f"the ladder identities (errors {err_h:.2e}, {err_n:.2e})")


def dissipator_apply(op, rho):
    """L rho L† - {L†L, rho}/2 by direct operator arithmetic."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    ld_l = dagger(op) @ op
    return op @ rho @ dagger(op) - 0.5 * (ld_l @ rho + rho @ ld_l)


def build_liouvillian(gen):
    """Vectorized generator: -i[H, .] + sum_k gamma_k D[L_k].

    The array is assembled once per generator and returned read-only on
    every call; copy it before modifying it.
    """
    return gen._liouvillian


def generator_apply(gen, rho):
    """Action of the full generator on a state, by direct arithmetic."""
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for ch in gen.channels:
        out = out + ch.rate * dissipator_apply(ch.operator, rho)
    return out


def propagate(gen, rho0, t):
    """Evolve a state for time t >= 0 under the generator.

    The returned matrix is re-hermitized against numerical dust; trace is
    preserved by construction of the GKLS form.
    """
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    liou = build_liouvillian(gen)
    rho_t = unvectorize(expm_dense(liou, t) @ vectorize(rho0))
    return hermitize(rho_t)


def steady_state(gen, kernel_tol=1e-10):
    """Unique steady state from the null space of the Liouvillian.

    The kernel dimension is detected via singular values below
    ``kernel_tol * ||L||``; a degenerate kernel raises
    :class:`MultistabilityError`. The result is trace-normalized and
    hermitized.
    """
    liou = build_liouvillian(gen)
    _, svals, vh = np.linalg.svd(liou)
    scale = svals[0] if svals[0] > 0 else 1.0
    n_null = int(np.sum(svals <= kernel_tol * scale))
    if n_null == 0:
        raise MultistabilityError("no Liouvillian null vector found within "
                                  f"tolerance {kernel_tol:.1e}*||L||")
    if n_null > 1:
        raise MultistabilityError(
            f"Liouvillian kernel is {n_null}-dimensional; steady state is not "
            "unique (multistability)")
    rho = hermitize(unvectorize(vh[-1].conj()))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise MultistabilityError("null vector is traceless; no normalizable "
                                  "steady state")
    rho = rho / tr
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-8:
        raise MultistabilityError(f"steady-state candidate not PSD "
                                  f"(min eigenvalue {evals.min():.2e})")
    return rho


def _reservoir_currents(gen, ledger, rho, reservoir):
    """(heat current, power) into one reservoir; the ledger is not checked.

    D[L]rho is formed once per channel and serves both traces.
    """
    mu = ledger.reservoirs[reservoir].chemical_potential
    obs = ledger.h_td - mu * ledger.n_s
    heat = work = 0.0
    for ch in gen.channels:
        if ch.reservoir != reservoir:
            continue
        d_rho = dissipator_apply(ch.operator, rho)
        heat -= ch.rate * np.trace(obs @ d_rho).real
        work -= mu * ch.rate * np.trace(ledger.n_s @ d_rho).real
    return float(heat), float(work)


def _checked_reservoir_currents(gen, ledger, rho, reservoir):
    validate_ledger(gen, ledger)
    if reservoir not in gen.reservoirs():
        raise LedgerError(f"generator has no channels tagged {reservoir!r}")
    return _reservoir_currents(gen, ledger, rho, reservoir)


def heat_current(gen, ledger, rho, reservoir):
    """Heat current into the reservoir: -Tr{(H_TD - mu N_S) L_alpha rho}."""
    return _checked_reservoir_currents(gen, ledger, rho, reservoir)[0]


def power(gen, ledger, rho, reservoir):
    """Chemical power into the reservoir: -mu_alpha Tr{N_S L_alpha rho}."""
    return _checked_reservoir_currents(gen, ledger, rho, reservoir)[1]


def all_currents(gen, ledger, rho):
    """dict reservoir -> (heat current, power), both positive into it.

    The ledger is validated once for all reservoirs.
    """
    validate_ledger(gen, ledger)
    return {alpha: _reservoir_currents(gen, ledger, rho, alpha)
            for alpha in gen.reservoirs()}


def entropy_rate(gen, rho):
    """dS_vN/dt = -Tr{(L rho) ln rho}, evaluated in the eigenbasis of rho.

    Eigenvalues are clipped at ENTROPY_EIG_FLOOR before the log; this is
    the implemented convention for momentarily rank-deficient states.
    """
    rho = hermitize(np.asarray(rho, dtype=complex))
    rho_dot = generator_apply(gen, rho)
    p, v = np.linalg.eigh(rho)
    p = np.clip(p, ENTROPY_EIG_FLOOR, None)
    diag = np.real(np.einsum("ij,jk,ki->i", dagger(v), rho_dot, v))
    return float(-np.sum(diag * np.log(p)))


def entropy_production_rate(gen, ledger, rho):
    """Entropy production rate k_B dS_vN/dt + sum_alpha J_alpha / T_alpha.

    Non-negative (within numerical dust) for every valid GKLS generator
    with thermal channels; exactly zero in equilibrium.
    """
    validate_ledger(gen, ledger)
    sdot = KB * entropy_rate(gen, rho)
    for alpha in gen.reservoirs():
        res = ledger.reservoirs[alpha]
        heat, _ = _reservoir_currents(gen, ledger, rho, alpha)
        # J/T with T stored as k_B T: physical J/T = k_B J / (k_B T)
        sdot += KB * heat / res.temperature
    return float(sdot)


def local_detailed_balance_check(channel_in, channel_out, res, rel_tol=1e-8):
    """True iff gamma_out/gamma_in = e^{beta(omega - mu n)} of the out channel.

    ``channel_out`` is the emission channel (quanta (omega, n) leave the
    system), ``channel_in`` its absorption partner with quanta
    (-omega, -n). Returns None (indeterminate) if either rate is zero.
    """
    if (channel_in.energy_quantum != -channel_out.energy_quantum
            or channel_in.particle_quantum != -channel_out.particle_quantum):
        raise ValueError("channels are not a (L, L†) pair with opposite quanta")
    if channel_in.rate == 0.0 or channel_out.rate == 0.0:
        return None
    exponent = res.beta * (channel_out.energy_quantum
                           - res.chemical_potential * channel_out.particle_quantum)
    if exponent > 700.0:
        return None  # ratio overflows double precision: indeterminate
    expected = math.exp(exponent)
    ratio = channel_out.rate / channel_in.rate
    return abs(ratio - expected) <= rel_tol * expected
