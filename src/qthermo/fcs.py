"""Full counting statistics: tilted Liouvillians, cumulants, and the TUR.

A counting field chi multiplies the jump part L rho L† of selected
channels by e^{i chi w} where w is the per-channel weight (net particles,
heat quanta omega - mu n, or chemical work mu n). The dominant eigenvalue
nu(chi) of the tilted Liouvillian is the scaled cumulant generating
function in the long-time limit; its derivatives in s = i chi at 0 are
the current cumulants.

:func:`cumulants` computes those derivatives exactly, without finite
differences, by the Rayleigh-Schroedinger recursion for the eigenpair of
L(s) = L0 + sum_k s^k/k! L_k around the steady state. Each order costs
one solve with a single LU factorisation of the bordered matrix
[[L0, rho_ss], [<<1|, 0]], which is nonsingular exactly when the kernel
of L0 is one-dimensional (a unique steady state); otherwise the
expansion is not unique and :class:`CountingError` is raised.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np
import scipy.linalg

from .qcore import (KB, NumericalError, eig_general, expm_dense,
                    raise_first_failure, trace_vector, vectorize)
from .lindblad import build_liouvillian, in_chunks


class CountingError(NumericalError):
    """A counting computation missed its numerical contract."""


@dataclass(frozen=True)
class CountingField:
    """One named counting field with its per-channel weight vector."""

    name: str
    weights: Tuple[float, ...]


@dataclass(frozen=True)
class CountingConfig:
    """A set of counting fields for one generator.

    All fields at zero reproduce the bare Liouvillian exactly (bitwise:
    the assembly path is shared with :func:`build_liouvillian`).
    """

    fields: Tuple[CountingField, ...]

    def field(self, name):
        for f in self.fields:
            if f.name == name:
                return f
        raise ValueError(f"unknown counting field {name!r}")

    @staticmethod
    def particle(gen, reservoir):
        """Field ``n_<reservoir>``: net particles entering ``reservoir``."""
        weights = tuple(
            float(ch.particle_quantum) if ch.reservoir == reservoir else 0.0
            for ch in gen.channels)
        if all(w == 0.0 for w in weights):
            raise ValueError(f"no counted transitions for reservoir "
                             f"{reservoir!r}")
        return CountingConfig((CountingField(f"n_{reservoir}", weights),))

    @staticmethod
    def heat_and_work(gen, ledger):
        """Joint heat/work fields chi_a, lambda_a for every reservoir.

        Heat weight per jump is omega - mu_a n, work weight is mu_a n.
        """
        fields = []
        for alpha in gen.reservoirs():
            mu = ledger.reservoirs[alpha].chemical_potential
            q = tuple((ch.energy_quantum - mu * ch.particle_quantum)
                      if ch.reservoir == alpha else 0.0
                      for ch in gen.channels)
            w = tuple(mu * ch.particle_quantum if ch.reservoir == alpha else 0.0
                      for ch in gen.channels)
            fields.append(CountingField(f"chi_{alpha}", q))
            fields.append(CountingField(f"lambda_{alpha}", w))
        return CountingConfig(tuple(fields))


def counting_liouvillian(gen, cfg, values: Mapping[str, complex]):
    """Tilted Liouvillian with jump terms multiplied by e^{i sum chi_f w_f}.

    Anticommutator and Hamiltonian parts are untouched; with every field
    zero the result is bitwise-equal to ``build_liouvillian(gen)``. On a
    sweep axis the result has the batch shape in front.
    """
    unknown = set(values) - {f.name for f in cfg.fields}
    if unknown:
        raise ValueError(f"unknown counting fields {sorted(unknown)}")
    phases = np.zeros(len(gen.channels), dtype=complex)
    for f in cfg.fields:
        chi = values.get(f.name, 0.0)
        if chi != 0.0:
            phases = phases + chi * np.asarray(f.weights)
    tilted = build_liouvillian(gen)
    rates, jumps = gen._stack.rates, gen._jump_superops
    for k, phase in enumerate(phases):
        if phase != 0.0:
            factor = cmath.exp(1j * phase) - 1.0
            tilted = tilted + (rates[..., k, None, None] * factor
                               * jumps[..., k, :, :])
    return tilted


def cgf(gen, cfg, values, t, rho0):
    """Finite-time cumulant generating function ln Tr{e^{L(chi) t} rho0}.

    The complex log is accumulated stepwise along the evolution (with
    trace renormalization), so the imaginary part is continuously
    unwrapped instead of being folded into (-pi, pi]; without this the
    long-time slope of S would be meaningless. Exactly zero at all-zero
    fields (trace preservation is exact by construction). A numerically
    vanishing trace raises with diagnostics.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time t must be finite and >= 0, got {t}")
    if t == 0 or all(complex(v) == 0 for v in values.values()):
        return 0.0 + 0.0j
    tilted = counting_liouvillian(gen, cfg, values)
    # keep the per-step phase advance well below pi; the Frobenius norm
    # upper-bounds the spectral radius and is cheap
    n_steps = max(8, int(math.ceil(np.linalg.norm(tilted) * t)))
    step = expm_dense(tilted, t / n_steps)
    vec = vectorize(np.asarray(rho0, dtype=complex))
    tr_vec = vectorize(np.eye(gen.dim)).conj()
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
    values = np.linalg.eigvals(np.asarray(matrix, dtype=complex))
    return complex(values[np.argmax(values.real)])


def spectral_gap(matrix):
    """|Re| of the second-slowest eigenvalue (decay rate toward the kernel)."""
    values = np.linalg.eigvals(np.asarray(matrix, dtype=complex))
    real = np.sort(values.real)[::-1]
    return float(-real[1])


def dominant_eigenvalue_path(gen, cfg, name, chis):
    """nu(chi) along a grid, tracked by continuity from chi = chis[0].

    Uses nearest-eigenvalue continuation so branch crossings do not make
    the curve jump between Liouvillian bands.
    """
    out = np.empty(len(chis), dtype=complex)
    prev = None
    for j, chi in enumerate(chis):
        values = np.linalg.eigvals(counting_liouvillian(gen, cfg, {name: chi}))
        if prev is None:
            pick = values[np.argmax(values.real)]
        else:
            pick = values[np.argmin(np.abs(values - prev))]
        out[j] = pick
        prev = pick
    return out


# A spectral gap below TOL_GAP, or a dominant eigenvalue of modulus above
# TOL_NU_ZERO, at chi = 0 means the kernel of L0 is not one-dimensional,
# so the dominant eigenvalue has no unique expansion.
TOL_GAP = 1e-12
TOL_NU_ZERO = 1e-8


@dataclass(frozen=True)
class CumulantReport:
    """One scaled cumulant <<n^k>>/t."""

    order: int
    value: float


def cumulants(gen, cfg, name, max_order=4):
    """Scaled cumulants c_m = (-i d/dchi)^m nu(0) for m = 1..max_order.

    Exact to rounding by Rayleigh-Schroedinger perturbation theory in
    s = i chi (Flindt et al., PRB 82, 155407 (2010)): with
    L(s) = L0 + sum_k s^k/k! L_k, L_k = sum_ch rate w_ch^k (L-bar x L),
    rho_0 = rho_ss and lambda_0 = 0, for m >= 1

        lambda_m = sum_{k=1..m} C(m,k) <<1|L_k|rho_{m-k}>>,
        L0 rho_m = Q sum_{k=1..m} C(m,k) (lambda_k - L_k) rho_{m-k},
        Tr rho_m = 0,

    and c_m = Re lambda_m. Every rho_m comes from one LU factorisation
    of the bordered matrix [[L0, rho_ss], [<<1|, 0]], whose last row
    fixes the trace and whose last column absorbs the trace of the
    right-hand side, i.e. applies Q = 1 - |rho_ss>><<1|. The matrix is
    nonsingular exactly when the kernel of L0 is one-dimensional; a
    spectral gap below ``TOL_GAP`` (or |nu| above ``TOL_NU_ZERO``) at
    chi = 0 raises :class:`CountingError`.

    On a sweep axis (see ``lindblad``) the eigen-decomposition, the LU
    factorisation and the solves are stacked, each point keeping its
    bits, and each ``value`` has the batch shape.
    """
    lams = in_chunks(_cumulants, gen, cfg.field(name).weights, max_order)
    return [CumulantReport(m, lams[..., m - 1].real)
            for m in range(1, max_order + 1)]


def _cumulants(gen, weights, max_order):
    """lambda_1..lambda_max_order of every point, shape (..., max_order)."""
    bare = build_liouvillian(gen)
    values, vectors = eig_general(bare)
    nu, gap = values[..., 0], -values[..., 1].real
    raise_first_failure([(
        (np.abs(nu) > TOL_NU_ZERO) | (gap < TOL_GAP),
        lambda i: CountingError(
            f"dominant eigenvalue not unique/zero at chi = 0 "
            f"(nu = {nu.flat[i]:.2e}, gap = {gap.flat[i]:.2e})"))])
    one = trace_vector(gen.dim)
    rho_ss = vectors[..., 0] / _trace(one, vectors[..., 0])[..., None]
    n = bare.shape[-1]
    bordered = np.zeros(bare.shape[:-2] + (n + 1, n + 1), dtype=complex)
    bordered[..., :n, :n] = bare
    bordered[..., :n, n] = rho_ss
    bordered[..., n, :n] = one
    lu = scipy.linalg.lu_factor(bordered)

    stack = gen._stack
    jumps = [(stack.rates[..., c, None, None], w,
              gen._jump_superops[..., c, :, :])
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
            rhos.append(scipy.linalg.lu_solve(lu, rhs[..., None])[..., :-1, 0])
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
    mean current whose square is 0 raises :class:`CountingError`.
    """
    if mean_current ** 2 == 0.0:
        raise CountingError("TUR audit needs a nonzero mean current")
    ratio = variance_rate / mean_current ** 2
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
