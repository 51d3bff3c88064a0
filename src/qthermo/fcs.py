"""Full counting statistics: tilted Liouvillians, cumulants, and the TUR.

A counting field chi multiplies the jump part L rho L† of channel k by
e^{i chi w_k}, where w is an array of one weight per channel (net
particles, heat quanta omega - mu n, or chemical work mu n; see
:func:`particle_weights` and :func:`heat_and_work_weights`). Several
fields add up to one phase per channel, sum_f chi_f w_f. The dominant
eigenvalue nu(chi) of the tilted Liouvillian is the scaled cumulant
generating function in the long-time limit; its derivatives in s = i chi
at 0 are the current cumulants. Every eigenvalue here comes from
``qcore.eig_general``, which checks its residual contract.

:func:`cumulants` computes those derivatives exactly, without finite
differences, by the Rayleigh-Schroedinger recursion for the eigenpair of
L(s) = L0 + sum_k s^k/k! L_k around the steady state. Each order costs
one solve with the bordered matrix [[L0, rho_ss], [<<1|, 0]], which is
nonsingular exactly when the kernel of L0 is one-dimensional (a unique
steady state, judged by ``lindblad.kernel_bound``); otherwise the
expansion is not unique and :class:`CountingError` is raised.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (KB, NumericalError, eig_general, expm_dense,
                    raise_first_failure, trace_vector, vectorize)
from .lindblad import build_liouvillian, in_chunks, kernel_bound


class CountingError(NumericalError):
    """A counting computation missed its numerical contract."""


def particle_weights(gen, reservoir):
    """Net particles entering ``reservoir`` in each channel's jump, one
    weight per channel (0 on the channels of other reservoirs)."""
    weights = np.array([float(ch.particle_quantum)
                        if ch.reservoir == reservoir else 0.0
                        for ch in gen.channels])
    if not weights.any():
        raise ValueError(f"no counted transitions for reservoir "
                         f"{reservoir!r}")
    return weights


def heat_and_work_weights(gen, ledger, reservoir):
    """Heat omega - mu n and chemical work mu n that each channel's jump
    brings into ``reservoir``, as the arrays ``(heat, work)`` (0 on the
    channels of other reservoirs)."""
    if reservoir not in ledger.reservoirs:
        raise ValueError(f"reservoir {reservoir!r} is not in the ledger")
    mu = ledger.reservoirs[reservoir].chemical_potential
    ours = [ch.reservoir == reservoir for ch in gen.channels]
    work = np.where(ours, [mu * ch.particle_quantum for ch in gen.channels],
                    0.0)
    energy = np.where(ours, [ch.energy_quantum for ch in gen.channels], 0.0)
    return energy - work, work


def _per_channel(gen, values, name, dtype):
    """``values`` as a 1-D array with one entry per channel of ``gen``."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (len(gen.channels),):
        raise ValueError(f"{name} has shape {values.shape}, need "
                         f"({len(gen.channels)},): one per channel")
    return values


def counting_liouvillian(gen, phases):
    """Tilted Liouvillian with the jump term of channel k multiplied by
    e^{i phases[k]}.

    One counting field chi with weights w gives ``phases = chi * w``;
    several give the sum of chi_f w_f. Anticommutator and Hamiltonian
    parts are untouched; with every phase zero the result is
    bitwise-equal to ``build_liouvillian(gen)``. On a sweep axis the
    result has the batch shape in front.
    """
    phases = _per_channel(gen, phases, "phases", complex)
    tilted = build_liouvillian(gen)
    rates, jumps = gen._stack.rates, gen._jump_superops
    for k, phase in enumerate(phases):
        if phase != 0.0:
            factor = cmath.exp(1j * phase) - 1.0
            tilted = tilted + (rates[..., k, None, None] * factor
                               * jumps[k])
    return tilted


def cgf(gen, phases, t, rho0):
    """Finite-time cumulant generating function ln Tr{e^{L(chi) t} rho0}.

    The complex log is accumulated stepwise along the evolution (with
    trace renormalization), so the imaginary part is continuously
    unwrapped instead of being folded into (-pi, pi]; without this the
    long-time slope of S would be meaningless. Exactly zero at all-zero
    ``phases`` (trace preservation is exact by construction). A
    numerically vanishing trace raises with diagnostics.
    """
    phases = _per_channel(gen, phases, "phases", complex)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time t must be finite and >= 0, got {t}")
    if t == 0 or not phases.any():
        return 0.0 + 0.0j
    tilted = counting_liouvillian(gen, phases)
    # keep the per-step phase advance well below pi; the Frobenius norm
    # upper-bounds the spectral radius and is cheap
    n_steps = max(8, int(math.ceil(np.linalg.norm(tilted) * t)))
    step = expm_dense(tilted, t / n_steps)
    vec = vectorize(np.asarray(rho0, dtype=complex))
    tr_vec = trace_vector(gen.dim)
    total = 0.0 + 0.0j
    for j in range(n_steps):
        vec = step @ vec
        z = complex(tr_vec @ vec)
        if z == 0 or not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise CountingError(
                f"characteristic function Tr = {z} after step {j + 1}/"
                f"{n_steps} at t = {t}; cannot take log")
        total += cmath.log(z)
        vec = vec / z
    return total


def dominant_eigenvalue(matrix):
    """Eigenvalue with the largest real part."""
    return complex(eig_general(matrix)[0][0])


def spectral_gap(matrix):
    """|Re| of the second-slowest eigenvalue (decay rate toward the kernel)."""
    return float(-eig_general(matrix)[0][1].real)


def cumulants(gen, weights, max_order=4):
    """Scaled cumulants c_m = (-i d/dchi)^m nu(0), m = 1..max_order, of
    the field with per-channel ``weights``, as a real array of shape
    ``(max_order, *batch)``.

    Exact to rounding by Rayleigh-Schroedinger perturbation theory in
    s = i chi (Flindt et al., PRB 82, 155407 (2010)): with
    L(s) = L0 + sum_k s^k/k! L_k, L_k = sum_ch rate w_ch^k (L-bar x L),
    rho_0 = rho_ss and lambda_0 = 0, for m >= 1

        lambda_m = sum_{k=1..m} C(m,k) <<1|L_k|rho_{m-k}>>,
        L0 rho_m = Q sum_{k=1..m} C(m,k) (lambda_k - L_k) rho_{m-k},
        Tr rho_m = 0,

    and c_m = Re lambda_m. Every rho_m comes from a solve with the
    bordered matrix [[L0, rho_ss], [<<1|, 0]], whose last row fixes the
    trace and whose last column absorbs the trace of the right-hand
    side, i.e. applies Q = 1 - |rho_ss>><<1|. The matrix is nonsingular
    exactly when the kernel of L0 is one-dimensional; a dominant
    eigenvalue nu of modulus above ``lindblad.kernel_bound``, or a
    spectral gap at or below it, at chi = 0 raises :class:`CountingError`.

    On a sweep axis (see ``lindblad``) the eigen-decomposition and the
    solves are stacked, each point keeping its bits.
    """
    weights = _per_channel(gen, weights, "weights", float)
    lams = in_chunks(_cumulants, gen, weights, max_order)
    return np.moveaxis(lams.real, -1, 0)


def _cumulants(gen, weights, max_order):
    """lambda_1..lambda_max_order of every point, shape (..., max_order)."""
    bare = build_liouvillian(gen)
    values, vectors = eig_general(bare)
    nu, gap, tau = values[..., 0], -values[..., 1].real, kernel_bound(gen)
    raise_first_failure([(
        (np.abs(nu) > tau) | (gap <= tau),
        lambda i: CountingError(
            f"dominant eigenvalue not unique/zero at chi = 0 "
            f"(nu = {nu.flat[i]:.2e}, gap = {gap.flat[i]:.2e}, kernel "
            f"bound {tau.flat[i]:.2e})"))])
    one = trace_vector(gen.dim)
    rho_ss = vectors[..., 0] / _trace(one, vectors[..., 0])[..., None]
    n = bare.shape[-1]
    bordered = np.zeros(bare.shape[:-2] + (n + 1, n + 1), dtype=complex)
    bordered[..., :n, :n] = bare
    bordered[..., :n, n] = rho_ss
    bordered[..., n, :n] = one

    stack = gen._stack
    jumps = [(stack.rates[..., c, None, None], w, gen._jump_superops[c])
             for c, w in enumerate(weights) if w != 0.0]
    pert = [None] + [sum((rate * w ** k * jump for rate, w, jump in jumps),
                         np.zeros_like(bare)) for k in range(1, max_order + 1)]
    rhos, lams = [rho_ss], [0.0]
    for m in range(1, max_order + 1):
        kicks = sum(math.comb(m, k) * (pert[k] @ rhos[m - k][..., None])[..., 0]
                    for k in range(1, m + 1))
        lams.append(_trace(one, kicks))
        if m < max_order:
            rhs = sum(math.comb(m, k) * lams[k][..., None] * rhos[m - k]
                      for k in range(1, m + 1)) - kicks
            rhs = np.concatenate([rhs, np.zeros(rhs.shape[:-1] + (1,))], -1)
            rhos.append(np.linalg.solve(bordered, rhs[..., None])[..., :-1, 0])
    return np.stack(lams[1:], axis=-1)


def _trace(one, vecs):
    """<<1|v>> of each vector of a stack, with the bits of ``one @ v``."""
    return (one @ vecs[..., None])[..., 0]


@dataclass(frozen=True)
class TURAudit:
    ratio: float
    bound: float
    satisfied: bool  # None when the bound is indeterminate (sigma_dot <= 0)


def tur_audit(mean_current, variance_rate, sigma_dot):
    """Thermodynamic uncertainty relation check.

    ratio = <<I^2>>/<I>^2, bound = 2 k_B / Sigma_dot, satisfied iff
    ratio >= bound. Provable for classical Markov dynamics; reported, not
    enforced, since quantum-coherent generators may violate it. At
    Sigma_dot <= 0 the bound is infinite and ``satisfied`` is None. A
    mean current whose square is 0 or overflows raises :class:`CountingError`.
    """
    try:
        square = float(mean_current) ** 2
    except OverflowError:
        raise CountingError("TUR audit: mean current ** 2 overflows") from None
    if square == 0.0:
        raise CountingError("TUR audit needs a nonzero mean current")
    ratio = variance_rate / square
    if sigma_dot <= 0.0:
        return TURAudit(ratio, math.inf, None)
    return TURAudit(ratio, 2.0 * KB / sigma_dot,
                    bool(ratio >= 2.0 * KB / sigma_dot))


def tur_engine_form(power_out, eta, eta_carnot, t_cold, power_variance_rate):
    """Heat-engine TUR combination P eta/(eta - eta_C) k_B T_c / <<P^2>>.

    Evaluated literally as printed (denominator eta - eta_C, negative in
    the engine regime); the classical bound is <= 1/2.
    """
    if power_variance_rate <= 0.0:
        raise ValueError("power noise must be positive")
    if eta == eta_carnot:
        raise ValueError("eta = eta_C makes the combination singular")
    return (power_out * eta / (eta - eta_carnot)
            * KB * t_cold / power_variance_rate)
