"""GKLS generators, propagation, steady states, and thermodynamic bookkeeping.

A :class:`GKLSGenerator` is a Hermitian Hamiltonian plus a list of
:class:`JumpChannel`; attaching a :class:`ThermoLedger` (thermodynamic
Hamiltonian, particle-number operator, reservoir table) turns generator
action into heat currents, powers, and entropy production.

A generator keeps its k channels as one :class:`ChannelStack`, formed on
first use: the operators L_k, their adjoints and L_k†L_k as ``(k, d, d)``
arrays, plus the rates and quanta. The ladder check, D[L_k]rho for the
currents, entropy production and :func:`generator_apply` each act on the
whole stack with a few batched numpy calls; sums over channels are still
taken one channel at a time, in channel order, from the same start as a
per-channel loop, so every result keeps its bits.

The superoperator of a generator is assembled once, on first use, and
cached on the generator as a read-only array; :func:`build_liouvillian`,
:func:`propagate`, :func:`steady_state` and the counting functions in
``fcs`` all share it. It lives as long as the generator: d^4 complex
entries, 16 MB at d = 32 and 268 MB at d = 64. Assembly adds one
channel's d^4 terms at a time, so it holds a fixed number of d^4
temporaries whatever the channel count. The jump superoperators
L-bar (x) L that ``fcs`` tilts are one ``(k, d^2, d^2)`` array, cached the
same way on first use (d^4 entries per channel). A generator's arrays
must therefore not be modified in place once it has been used.

Sign convention: heat and power are positive when they flow *into* the
reservoir they are tagged with.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Tuple

import numpy as np

from .qcore import (KB, TOL_HERM, commutator_superop, dagger, dissipate,
                    dissipator_apply, dissipator_superop, expm_dense,
                    hermitize, is_hermitian, kron, unvectorize, vectorize)
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
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"GKLS rate must be finite and >= 0, "
                             f"got {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be square")
        object.__setattr__(self, "operator", op)


class ChannelStack(NamedTuple):
    """The channels of a generator along a leading axis k, in channel order."""

    ops: np.ndarray              # (k, d, d) jump operators L_k
    daggers: np.ndarray          # (k, d, d) L_k†
    ld_l: np.ndarray             # (k, d, d) L_k† L_k
    rates: np.ndarray            # (k,) gamma_k
    energy_quanta: np.ndarray    # (k,) omega_k
    particle_quanta: np.ndarray  # (k,) n_k

    def dissipate(self, rho):
        """D[L_k] rho for every channel, shape (k, d, d)."""
        return dissipate(self.ops, self.daggers, self.ld_l,
                         np.asarray(rho, dtype=complex))


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
    def _stack(self):
        """Read-only :class:`ChannelStack` of the channels, formed on first use."""
        d = self.dim
        ops = np.array([ch.operator for ch in self.channels],
                       dtype=complex).reshape(-1, d, d)
        daggers = dagger(ops)
        stack = ChannelStack(
            ops, daggers, daggers @ ops,
            np.array([ch.rate for ch in self.channels], dtype=float),
            np.array([ch.energy_quantum for ch in self.channels], dtype=float),
            np.array([ch.particle_quantum for ch in self.channels], dtype=int))
        for arr in stack:
            arr.flags.writeable = False
        return stack

    @cached_property
    def _liouvillian(self):
        """Read-only -i[H, .] + sum_k gamma_k D[L_k], assembled on first use.

        One channel's d^4 terms at a time: stacking them over channels
        would hold k d^4 temporaries.
        """
        d2 = self.dim ** 2
        dissipative = np.zeros((d2, d2), dtype=complex)
        for rate, op in zip(self._stack.rates, self._stack.ops):
            dissipative += rate * dissipator_superop(op)
        liou = commutator_superop(self.hamiltonian) + dissipative
        liou.flags.writeable = False
        return liou

    @cached_property
    def _jump_superops(self):
        """Read-only L-bar (x) L of every channel, shape (k, d^2, d^2)."""
        ops = self._stack.ops
        jumps = kron(ops.conj(), ops)
        jumps.flags.writeable = False
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

    [L, H_TD] = omega L and [L, N_S] = n L within ``tol * max(max|L|, 1)``,
    each channel against its own scale; every channel must be tagged with
    a reservoir present in the ledger. The residuals of all channels are
    formed at once; the first failing channel, in channel order, raises,
    and a missing reservoir is reported before that channel's residuals.
    """
    stack = gen._stack
    ops = stack.ops
    err_h = _max_abs(ops @ ledger.h_td - ledger.h_td @ ops
                     - stack.energy_quanta[:, None, None] * ops)
    err_n = _max_abs(ops @ ledger.n_s - ledger.n_s @ ops
                     - stack.particle_quanta[:, None, None] * ops)
    bound = tol * np.maximum(_max_abs(ops), 1.0)
    violated = (err_h > bound) | (err_n > bound)
    for k, ch in enumerate(gen.channels):
        if ch.reservoir not in ledger.reservoirs:
            raise LedgerError(f"channel tagged {ch.reservoir!r} has no "
                              "reservoir entry in the ledger")
        if violated[k]:
            raise LedgerError(
                f"channel ({ch.reservoir}, omega={ch.energy_quantum}) violates "
                f"the ladder identities (errors {err_h[k]:.2e}, "
                f"{err_n[k]:.2e})")


def _max_abs(stack):
    """max |entry| of each matrix in a (k, d, d) stack."""
    return np.abs(stack).max(axis=(1, 2))


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
    stack = gen._stack
    for term in stack.rates[:, None, None] * stack.dissipate(rho):
        out = out + term
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


def _reservoir_currents(gen, ledger, rho):
    """dict reservoir -> (heat current, power); the ledger is not checked.

    D[L_k]rho of every channel is formed in one batch and serves both
    traces; each reservoir's sums run over its channels in channel order.
    """
    stack = gen._stack
    mus = np.array([ledger.reservoirs[ch.reservoir].chemical_potential
                    for ch in gen.channels], dtype=float)
    d_rho = stack.dissipate(rho)
    obs = ledger.h_td - mus[:, None, None] * ledger.n_s
    heat_terms = stack.rates * _traces(obs, d_rho)
    work_terms = (mus * stack.rates) * _traces(ledger.n_s, d_rho)
    totals = {alpha: [0.0, 0.0] for alpha in gen.reservoirs()}
    for ch, heat, work in zip(gen.channels, heat_terms, work_terms):
        total = totals[ch.reservoir]
        total[0] -= heat
        total[1] -= work
    return {alpha: (float(heat), float(work))
            for alpha, (heat, work) in totals.items()}


def _traces(a, b):
    """Re Tr(A_k B_k) for every k; a single A broadcasts over the stack."""
    return np.trace(a @ b, axis1=1, axis2=2).real


def _checked_reservoir_currents(gen, ledger, rho, reservoir):
    validate_ledger(gen, ledger)
    if reservoir not in gen.reservoirs():
        raise LedgerError(f"generator has no channels tagged {reservoir!r}")
    return _reservoir_currents(gen, ledger, rho)[reservoir]


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
    return _reservoir_currents(gen, ledger, rho)


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
    for alpha, (heat, _) in _reservoir_currents(gen, ledger, rho).items():
        # J/T with T stored as k_B T: physical J/T = k_B J / (k_B T)
        sdot += KB * heat / ledger.reservoirs[alpha].temperature
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
