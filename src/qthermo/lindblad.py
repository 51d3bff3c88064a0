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

Sweep axis: a generator may carry leading sweep axes ``...``, one point
per entry, with a ``(..., d, d)`` Hamiltonian and rates and energy quanta
of shape ``...``; a jump operator is one ``(d, d)`` matrix shared by every
point. Its channel stack then holds ``(..., k)`` rates and ``(k, d, d)``
operators, and its ledger per-point arrays (``models.common.stack_sweep``
builds the pair from per-point pairs).
Everything here but :func:`propagate` and
:func:`local_detailed_balance_check` acts on every point at once and puts
the batch shape in front of its results; an ordinary generator is the
case with no sweep axes, run by the same code. Stacked numpy and
LAPACK calls round as one call per matrix does, so each point keeps its
bits. When points fail, the first failing one in sweep order (row-major)
raises its own error.

The superoperator of a generator is assembled once, on first use, and
cached on the generator as a read-only array; :func:`build_liouvillian`,
:func:`propagate`, :func:`steady_state` and the counting functions in
``fcs`` all share it. It lives as long as the generator: d^4 complex
entries per point, 16 MB at d = 32 and 268 MB at d = 64. Assembly adds
one channel's d^4 terms at a time, so it holds a fixed number of d^4
temporaries whatever the channel count. The jump superoperators
L-bar (x) L that ``fcs`` tilts are one ``(k, d^2, d^2)`` array, shared by
every point and cached the same way on first use (d^4 entries per
channel). A generator's arrays must therefore not be modified in place
once it has been used.
:func:`steady_state` and ``fcs.cumulants`` run a long sweep in chunks of
at most :data:`BATCH_BYTES` of such arrays, each chunk a generator with
caches of its own.

Sign convention: heat and power are positive when they flow *into* the
reservoir they are tagged with.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Tuple

import numpy as np

from .qcore import (KB, TOL_COMMUTE, TOL_HERM, TOL_PSD_STEADY, NumericalError,
                    commutator_superop, dagger, dissipate, dissipator_superop,
                    expm_dense, hermitize, is_hermitian, kron,
                    raise_first_failure, unvectorize, vectorize)
from .thermo import EXP_MAX, ReservoirSpec

# Floor for state eigenvalues inside logarithms of dS_vN/dt; rank-deficient
# states are clipped here instead of producing -inf.
ENTROPY_EIG_FLOOR = 1e-30

# Byte budget of one chunk of a sweep in steady_state and fcs.cumulants,
# counted as k + 8 complex d^2 x d^2 arrays per point (the Liouvillian, the
# solver's copies and factors, the counting terms; k is headroom, as the jump
# superoperators are shared): about 10^5 points at d = 2, one at d = 32.
BATCH_BYTES = 2 ** 28

# Ladder identities [L, H_TD] = omega L, [L, N_S] = n L, relative to
# max(max|L|, 1).
TOL_LADDER = 1e-9
# kernel_bound(gen): TOL_KERNEL times the dissipative scale of L.
TOL_KERNEL = 1e-10
# A null vector with |Tr| below this has no normalizable steady state.
TOL_TRACELESS = 1e-12
# Local detailed balance: |gamma_out/gamma_in - e^x| relative to e^x.
TOL_LDB = 1e-8


class MultistabilityError(NumericalError):
    """The Liouvillian kernel is not one-dimensional."""


class LedgerError(ValueError):
    """Generator and thermodynamic ledger are inconsistent."""


@dataclass(frozen=True)
class JumpChannel:
    """One dissipative channel gamma * D[L].

    ``energy_quantum`` (omega) and ``particle_quantum`` (n) are the
    energy and particle number removed from the system per jump; against
    a ledger they must satisfy the ladder identities [L, H_TD] = omega L
    and [L, N_S] = n L. On a sweep axis, rate and omega may carry the
    generator's batch shape; the ``(d, d)`` operator, reservoir and n are
    shared by every point.
    """

    operator: np.ndarray
    rate: float
    reservoir: str
    energy_quantum: float = 0.0
    particle_quantum: int = 0

    def __post_init__(self):
        for rate in _entries(self.rate):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"GKLS rate must be finite and >= 0, "
                                 f"got {rate}")
        for omega in _entries(self.energy_quantum):
            if not math.isfinite(omega):
                raise ValueError(f"energy quantum must be finite, got {omega}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be a square matrix")
        object.__setattr__(self, "operator", op)


def _entries(value):
    """The entries of a scalar or of a sweep array."""
    return value.ravel() if isinstance(value, np.ndarray) else (value,)


class ChannelStack(NamedTuple):
    """The channels of a generator along an axis k, in channel order."""

    ops: np.ndarray              # (k, d, d) jump operators L_k
    daggers: np.ndarray          # L_k†, shaped as ops
    ld_l: np.ndarray             # L_k† L_k, shaped as ops
    rates: np.ndarray            # (..., k) gamma_k
    energy_quanta: np.ndarray    # (..., k) omega_k
    particle_quanta: np.ndarray  # (k,) n_k

    def dissipate(self, rho):
        """D[L_k] rho for every channel, shape (..., k, d, d)."""
        rho = np.asarray(rho, dtype=complex)[..., None, :, :]
        return dissipate(self.ops, self.daggers, self.ld_l, rho)


def _channel_axis(values, dtype):
    """Per-channel values stacked on a last axis."""
    stacked = np.array(np.broadcast_arrays(*values), dtype=dtype)
    return np.ascontiguousarray(np.moveaxis(stacked, 0, -1))


@dataclass(frozen=True)
class GKLSGenerator:
    """Hamiltonian + jump channels of a time-independent GKLS generator."""

    hamiltonian: np.ndarray
    channels: Tuple[JumpChannel, ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if not is_hermitian(h):
            raise ValueError(f"Hamiltonian not Hermitian within {TOL_HERM}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(self.channels))
        for ch in self.channels:
            if ch.operator.shape != h.shape[-2:]:
                raise ValueError("channel dimension does not match Hamiltonian")

    @property
    def dim(self):
        return self.hamiltonian.shape[-1]

    @property
    def batch_shape(self):
        """The sweep axes; () for an ordinary generator."""
        return self.hamiltonian.shape[:-2]

    def reservoirs(self):
        seen = []
        for ch in self.channels:
            if ch.reservoir not in seen:
                seen.append(ch.reservoir)
        return seen

    def _rows(self, rows):
        """The points in ``rows``, a slice of the first sweep axis."""
        def cut(value):
            return value[rows] if np.ndim(value) else value
        return GKLSGenerator(self.hamiltonian[rows], tuple(
            replace(ch, rate=cut(ch.rate),
                    energy_quantum=cut(ch.energy_quantum))
            for ch in self.channels))

    @cached_property
    def _stack(self):
        """Read-only :class:`ChannelStack` of the channels, formed on first use.

        Raises ValueError when a channel's sweep axes are neither absent
        nor those of the Hamiltonian.
        """
        d, chs = self.dim, self.channels
        ops = np.array([ch.operator for ch in chs],
                       dtype=complex).reshape(-1, d, d)
        daggers = dagger(ops)
        stack = ChannelStack(
            ops, daggers, daggers @ ops,
            _channel_axis([ch.rate for ch in chs], float),
            _channel_axis([ch.energy_quantum for ch in chs], float),
            _channel_axis([ch.particle_quantum for ch in chs], int))
        if not {stack.rates.shape[:-1],
                stack.energy_quanta.shape[:-1]} <= {(), self.batch_shape}:
            raise ValueError("channel shape does not match Hamiltonian")
        for arr in stack:
            arr.flags.writeable = False
        return stack

    @cached_property
    def _liouvillian(self):
        """Read-only -i[H, .] + sum_k gamma_k D[L_k], assembled on first use.

        One channel's d^4 terms at a time: stacking them over channels
        would hold k d^4 temporaries.
        """
        stack = self._stack
        d2 = self.dim ** 2
        dissipative = np.zeros(self.batch_shape + (d2, d2), dtype=complex)
        for k in range(len(self.channels)):
            dissipative += (stack.rates[..., k, None, None]
                            * dissipator_superop(stack.ops[k]))
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
        if np.abs(comm).max() > TOL_COMMUTE:
            raise LedgerError(f"[H_TD, N_S] != 0 within {TOL_COMMUTE}")
        object.__setattr__(self, "h_td", h)
        object.__setattr__(self, "n_s", n)
        object.__setattr__(self, "reservoirs", dict(self.reservoirs))


def in_chunks(solve, gen, *args):
    """``solve(gen, *args)``, run on chunks of the first sweep axis that fit
    :data:`BATCH_BYTES` and joined along that axis."""
    batch = gen.batch_shape
    per_row = math.prod(batch[1:])
    rows = max(1, BATCH_BYTES // (16 * gen.dim ** 4 * (len(gen.channels) + 8)
                                  * per_row))
    if not batch or batch[0] <= rows:
        return solve(gen, *args)
    return np.concatenate([solve(gen._rows(slice(start, start + rows)), *args)
                           for start in range(0, batch[0], rows)])


def validate_ledger(gen, ledger):
    """Check the ladder identities of every channel against the ledger.

    [L, H_TD] = omega L and [L, N_S] = n L within TOL_LADDER * max(max|L|,
    1), each channel against its own scale; the ledger must act on the
    generator's space and have a reservoir entry for every channel's tag.
    The residuals of all channels and points are formed at once; the
    first failing point raises, at its first failing channel in channel
    order, and a missing reservoir is reported before that channel's
    residuals.
    """
    if ledger.h_td.shape[-1] != gen.dim:
        raise LedgerError(f"ledger dimension {ledger.h_td.shape[-1]} does "
                          f"not match generator dimension {gen.dim}")
    if not gen.channels:
        return
    stack = gen._stack
    ops = stack.ops
    h_td = ledger.h_td[..., None, :, :]
    n_s = ledger.n_s[..., None, :, :]
    err_h = _max_abs(ops @ h_td - h_td @ ops
                     - stack.energy_quanta[..., None, None] * ops)
    err_n = _max_abs(ops @ n_s - n_s @ ops
                     - stack.particle_quanta[..., None, None] * ops)
    bound = TOL_LADDER * np.maximum(_max_abs(ops), 1.0)
    missing = np.array([ch.reservoir not in ledger.reservoirs
                        for ch in gen.channels])
    err_h, err_n, bound, omega = (
        a.reshape(-1, len(gen.channels)) for a in np.broadcast_arrays(
            err_h, err_n, bound, stack.energy_quanta))
    failed = missing | (err_h > bound) | (err_n > bound)

    def error(point):
        k = int(np.argmax(failed[point]))
        ch = gen.channels[k]
        if missing[k]:
            return LedgerError(f"channel tagged {ch.reservoir!r} has no "
                               "reservoir entry in the ledger")
        return LedgerError(
            f"channel ({ch.reservoir}, omega={omega[point, k]}) violates the "
            f"ladder identities (errors {err_h[point, k]:.2e}, "
            f"{err_n[point, k]:.2e})")

    raise_first_failure([(failed.any(axis=-1), error)])


def _max_abs(stack):
    """max |entry| of each matrix in a (..., d, d) stack."""
    return np.abs(stack).max(axis=(-2, -1))


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
    terms = stack.rates[..., None, None] * stack.dissipate(rho)
    for k in range(terms.shape[-3]):
        out = out + terms[..., k, :, :]
    return out


def propagate(gen, rho0, t):
    """Evolve a state for time t >= 0 under the generator.

    ``t`` may be a 1-D array of n times; the result is then the
    ``(n, d, d)`` stack of the states at those times. The propagators of
    each chunk of times whose n d^4 entries fit :data:`BATCH_BYTES` come
    from one stacked ``expm`` and act through one stacked matmul, and
    each state has the bits of its scalar call. The states are
    re-hermitized against numerical dust, except at t = 0, where
    ``rho0`` is returned unchanged; trace is preserved by construction of
    the GKLS form.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"propagation times must be one time or a 1-D "
                         f"array, got shape {times.shape}")
    rho0 = np.asarray(rho0, dtype=complex)
    liou, vec = build_liouvillian(gen), vectorize(rho0)
    flat = times.reshape(-1)
    rows = max(1, BATCH_BYTES // (16 * vec.size ** 2))
    rho = np.empty(flat.shape + rho0.shape, dtype=complex)
    for s in range(0, flat.size, rows):
        props = expm_dense(liou, flat[s:s + rows])
        rho[s:s + rows] = hermitize(unvectorize(props @ vec))
    rho[flat == 0] = rho0
    return rho.reshape(times.shape + rho0.shape)


def kernel_bound(gen):
    """Modulus at or below which L has a kernel direction, per point.

    max(TOL_KERNEL * Gamma, n^2 eps max|L_ij|): Gamma = sum_k gamma_k
    ||L_k||_F^2 is the dissipative scale, the rest the rounding floor of an
    n x n solve, n = d^2. Both scale with the units, and Gamma with the
    coupling; max|L_ij| cannot overflow where a norm of L would.
    """
    stack = gen._stack
    gamma = (stack.rates * np.einsum("...ii", stack.ld_l).real).sum(-1)
    floor = gen.dim ** 4 * np.finfo(float).eps * _max_abs(gen._liouvillian)
    return np.maximum(TOL_KERNEL * gamma, floor)


def steady_state(gen):
    """Unique steady state from the null space of the Liouvillian.

    The kernel dimension is the number of singular values at or below
    :func:`kernel_bound`; a degenerate kernel raises
    :class:`MultistabilityError`. The result is trace-normalized and
    hermitized. Over a sweep axis one stacked SVD and one stacked
    ``eigvalsh`` serve every point of a chunk, and each point is checked
    on its own; the first failing point raises.
    """
    return in_chunks(_steady_state, gen)


def _steady_state(gen):
    liou = build_liouvillian(gen)
    _, svals, vh = np.linalg.svd(liou)
    tau = kernel_bound(gen)
    n_null = np.sum(svals <= tau[..., None], axis=-1)
    rho = hermitize(unvectorize(vh[..., -1, :].conj()))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    traceless = np.abs(tr) < TOL_TRACELESS
    # a traceless point has failed; dividing it by 1 keeps it finite, so
    # that eigvalsh still serves the other points
    rho = rho / np.where(traceless, 1.0, tr)[..., None, None]
    min_eval = np.linalg.eigvalsh(rho).min(axis=-1)
    raise_first_failure([
        (n_null == 0, lambda i: MultistabilityError(
            "no Liouvillian null vector found: no singular value at or "
            f"below the kernel bound {tau.flat[i]:.2e}")),
        (n_null > 1, lambda i: MultistabilityError(
            f"Liouvillian kernel is {n_null.flat[i]}-dimensional; steady "
            "state is not unique (multistability)")),
        (traceless, lambda i: MultistabilityError(
            "null vector is traceless; no normalizable steady state")),
        (min_eval < -TOL_PSD_STEADY, lambda i: MultistabilityError(
            "steady-state candidate not PSD (min eigenvalue "
            f"{min_eval.flat[i]:.2e} < -{TOL_PSD_STEADY:.0e})")),
    ])
    return rho


def _reservoir_currents(gen, ledger, rho):
    """dict reservoir -> (heat current, power); the ledger is not checked.

    D[L_k]rho of every channel is formed in one batch and serves both
    traces; each reservoir's sums run over its channels in channel order.
    """
    stack = gen._stack
    mus = _channel_axis([ledger.reservoirs[ch.reservoir].chemical_potential
                         for ch in gen.channels], float)
    d_rho = stack.dissipate(rho)
    h_td = ledger.h_td[..., None, :, :]
    n_s = ledger.n_s[..., None, :, :]
    heat_terms = stack.rates * _traces(h_td - mus[..., None, None] * n_s,
                                       d_rho)
    work_terms = (mus * stack.rates) * _traces(n_s, d_rho)
    totals = {alpha: [0.0, 0.0] for alpha in gen.reservoirs()}
    for k, ch in enumerate(gen.channels):
        total = totals[ch.reservoir]
        total[0] = total[0] - heat_terms[..., k]
        total[1] = total[1] - work_terms[..., k]
    return {alpha: tuple(total) for alpha, total in totals.items()}


def _traces(a, b):
    """Re Tr(A_k B_k) for every k; a single A broadcasts over the stack."""
    return np.trace(a @ b, axis1=-2, axis2=-1).real


def all_currents(gen, ledger, rho):
    """dict reservoir -> (heat current, power), both positive into it:
    J_alpha = -Tr{(H_TD - mu_alpha N_S) L_alpha rho} and
    P_alpha = -mu_alpha Tr{N_S L_alpha rho}.

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
    diag = np.real(np.einsum("...ij,...jk,...ki->...i", dagger(v), rho_dot, v))
    return -np.sum(diag * np.log(p), axis=-1)


def entropy_production_rate(gen, ledger, rho):
    """Entropy production rate k_B dS_vN/dt + sum_alpha J_alpha / T_alpha.

    Non-negative (within numerical dust) for every valid GKLS generator
    with thermal channels; exactly zero in equilibrium.
    """
    validate_ledger(gen, ledger)
    sdot = KB * entropy_rate(gen, rho)
    for alpha, (heat, _) in _reservoir_currents(gen, ledger, rho).items():
        # J/T with T stored as k_B T: physical J/T = k_B J / (k_B T)
        sdot = sdot + KB * heat / ledger.reservoirs[alpha].temperature
    return sdot


def local_detailed_balance_check(channel_in, channel_out, res):
    """True iff gamma_out/gamma_in = e^{beta(omega - mu n)} of the out channel.

    ``channel_out`` is the emission channel (quanta (omega, n) leave the
    system), ``channel_in`` its absorption partner (-omega, -n); relative
    tolerance TOL_LDB. Returns None (indeterminate) if either rate is zero.
    """
    if (channel_in.energy_quantum != -channel_out.energy_quantum
            or channel_in.particle_quantum != -channel_out.particle_quantum):
        raise ValueError("channels are not a (L, L†) pair with opposite quanta")
    if channel_in.rate == 0.0 or channel_out.rate == 0.0:
        return None
    exponent = res.beta * (channel_out.energy_quantum
                           - res.chemical_potential * channel_out.particle_quantum)
    if exponent > EXP_MAX:
        return None  # ratio overflows double precision: indeterminate
    expected = math.exp(exponent)
    ratio = channel_out.rate / channel_in.rate
    return abs(ratio - expected) <= TOL_LDB * expected
