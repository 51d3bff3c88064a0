"""Equilibrium states, occupation functions, and information measures.

Reservoirs are described by :class:`ReservoirSpec`; everything else is a
pure function of numpy arrays. Entropies are in nats unless a base-2
switch is offered explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (KB, TOL_COMMUTE, TOL_PSD, TOL_TRACE, dagger, hermitize,
                    is_hermitian, kron, partial_trace)

# sigma-weight of rho above which rho leaves the support of sigma
TOL_SUPPORT = 1e-10
# passivity: commutator and level degeneracy (both times max(||H||_2, 1)),
# and population ordering
TOL_PASSIVE = 1e-9
# central-difference step Delta T / T of the heat capacity
HEAT_CAPACITY_STEP = 1e-5

FERMIONIC = "fermionic"
BOSONIC = "bosonic"


@dataclass(frozen=True)
class ReservoirSpec:
    """A thermal reservoir in local equilibrium.

    Along a sweep axis (see ``models.common.stack_sweep``) the three numbers
    may be arrays with one entry per point.

    Parameters
    ----------
    temperature : float
        k_B*T in energy units (reference-rate units); must be > 0.
    chemical_potential : float
        mu in the same energy units. Bosonic reservoirs must have mu = 0
        (photons carry no chemical potential).
    statistics : {"fermionic", "bosonic"}
    coupling : float
        Reservoir-system rate kappa >= 0. For bosonic reservoirs this is
        the bare rate (the one multiplying n_B and n_B + 1).
    """

    temperature: float
    chemical_potential: float = 0.0
    statistics: str = FERMIONIC
    coupling: float = 0.0

    def __post_init__(self):
        fields = (self.temperature, self.chemical_potential, self.coupling)
        # on a sweep axis every point is checked on its own
        points = (zip(*np.broadcast_arrays(*fields))
                  if isinstance(self.temperature, np.ndarray) else (fields,))
        for point in points:
            for name, value in zip(("temperature", "chemical_potential",
                                    "coupling"), point):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            temperature, chemical_potential, coupling = point
            if temperature <= 0:
                raise ValueError(f"temperature must be > 0, got {temperature}")
            if coupling < 0:
                raise ValueError(f"coupling must be >= 0, got {coupling}")
            if self.statistics not in (FERMIONIC, BOSONIC):
                raise ValueError(f"unknown statistics {self.statistics!r}")
            if self.statistics == BOSONIC and chemical_potential != 0.0:
                raise ValueError("bosonic reservoirs require "
                                 "chemical_potential = 0")

    @property
    def beta(self):
        """Inverse temperature 1/(k_B T); temperature is stored as k_B T."""
        return 1.0 / self.temperature


def fermi_dirac(omega, res):
    """Fermi-Dirac occupation 1/(e^{(omega-mu)/k_B T} + 1)."""
    if res.statistics != FERMIONIC:
        raise ValueError("fermi_dirac requires a fermionic reservoir")
    x = -res.beta * (omega - res.chemical_potential)
    try:  # scipy.special.expit(x) bit for bit; its 1/(1 + inf) is 0
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def bose_einstein(omega, res):
    """Bose-Einstein occupation 1/(e^{omega/k_B T} - 1); omega must be > 0."""
    if res.statistics != BOSONIC:
        raise ValueError("bose_einstein requires a bosonic reservoir")
    if omega <= 0:
        raise ValueError(f"bose_einstein diverges for omega <= 0 (got {omega})")
    z = res.beta * omega
    if z > 700.0:  # expm1 overflows; occupation is zero to double precision
        return math.exp(-z)
    return 1.0 / math.expm1(z)


def gibbs_state(h, res, number_op=None):
    """Grand-canonical Gibbs state e^{-beta(H - mu N)}/Z.

    ``number_op=None`` means the canonical ensemble (mu is ignored).
    H and N must commute within ``qcore.TOL_COMMUTE``.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("Hamiltonian must be Hermitian")
    if number_op is None:
        k = h
    else:
        number_op = np.asarray(number_op, dtype=complex)
        comm = h @ number_op - number_op @ h
        if np.max(np.abs(comm)) > TOL_COMMUTE:
            raise ValueError(f"H and N do not commute within {TOL_COMMUTE}; "
                             "grand-canonical Gibbs state undefined")
        k = h - res.chemical_potential * number_op
    evals, vecs = np.linalg.eigh(hermitize(k))
    w = np.exp(-res.beta * (evals - evals.min()))
    w /= w.sum()
    return (vecs * w[None, :]) @ dagger(vecs)


# Eigenvalues in [-TOL_PSD, 0) are numerical dust and clipped to 0 before
# any logarithm.
def _clipped_eigvals(rho):
    p = np.linalg.eigvalsh(hermitize(np.asarray(rho)))
    if p.min() < -TOL_PSD:
        raise ValueError(f"state has eigenvalue {p.min()} below -{TOL_PSD}")
    return np.clip(p, 0.0, None)


def von_neumann_entropy(rho):
    """S_vN = -Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    p = _clipped_eigvals(rho)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def shannon_entropy(p, base="e"):
    """Shannon entropy of a probability vector, in nats (base 'e') or bits."""
    p = np.asarray(p, dtype=float)
    if p.min() < 0:
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > TOL_TRACE:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    if base not in ("e", 2):
        raise ValueError("base must be 'e' or 2")
    nz = p[p > 0]
    h = float(-np.sum(nz * np.log(nz)))
    return h / math.log(2) if base == 2 else h


def relative_entropy(rho, sigma):
    """Quantum relative entropy S(rho || sigma) = Tr(rho ln rho - rho ln sigma).

    Non-negative; returns +inf (a legitimate value, deliberately flagged
    rather than raised) when the support of rho is not contained in the
    support of sigma (a weight above TOL_SUPPORT on its kernel).
    """
    rho = np.asarray(rho, dtype=complex)
    p = _clipped_eigvals(rho)
    s, w = np.linalg.eigh(hermitize(np.asarray(sigma)))
    s = np.clip(s, 0.0, None)
    weights = np.real(np.einsum("ij,jk,ki->i", dagger(w), rho, w))
    dead = s <= 0
    if np.any(dead) and np.any(weights[dead] > TOL_SUPPORT):
        return math.inf
    nz = p[p > 0]
    term1 = float(np.sum(nz * np.log(nz)))
    alive = ~dead
    term2 = float(np.sum(weights[alive] * np.log(s[alive])))
    return max(term1 - term2, 0.0)


def mutual_information(rho_ab, dim_a, dim_b):
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB) in nats."""
    rho_a = partial_trace(rho_ab, dim_a, dim_b, keep="A")
    rho_b = partial_trace(rho_ab, dim_a, dim_b, keep="B")
    return (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(rho_ab))


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def concurrence(rho):
    """Two-qubit concurrence max{0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)}.

    The 4x4 state must be given in the ordered basis |00>, |10>, |01>,
    |11| with the fermionic sign convention |11> = d_L† d_R† |00> (the
    order matters for states with a single one-particle coherence, the
    only fermionic case handled here). l_j are the decreasingly sorted
    eigenvalues of rho @ rho_tilde with the spin-flipped auxiliary state
    rho_tilde = (sy (x) sy) rho* (sy (x) sy). A stack ``(..., 4, 4)`` gives
    the concurrence of each state.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("concurrence is defined for 4x4 two-qubit states")
    yy = kron(_SIGMA_Y, _SIGMA_Y)
    rho_tilde = yy @ rho.conj() @ yy
    lam = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.clip(lam.real, 0.0, None), axis=-1)[..., ::-1]
    root = np.sqrt(lam)
    excess = root[..., 0] - root[..., 1] - root[..., 2] - root[..., 3]
    return np.where(excess > 0.0, excess, 0.0)[()]


def effective_temperature(p1, epsilon):
    """Temperature theta > 0 whose Fermi occupation at gap epsilon equals p1.

    theta = epsilon / (k_B ln((1 - p1)/p1)); restricted to 0 < p1 < 1/2
    (population inversion / negative temperatures are out of scope).
    """
    if not 0.0 < p1 < 0.5:
        raise ValueError(f"occupation must lie strictly in (0, 1/2), got {p1}")
    return epsilon / (KB * math.log((1.0 - p1) / p1))


def is_passive(rho, h):
    """True iff rho commutes with H and populations do not increase with energy.

    Ties between populations at the same energy are allowed; degenerate
    energy levels are compared as groups, all within TOL_PASSIVE.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    comm = rho @ h - h @ rho
    bound = TOL_PASSIVE * max(np.linalg.norm(h, 2), 1.0)
    if np.max(np.abs(comm)) > bound:
        return False
    energies, vecs = np.linalg.eigh(hermitize(h))
    pops = np.real(np.einsum("ij,jk,ki->i", dagger(vecs), rho, vecs))
    # group by (near-)degenerate energy, compare group extremes
    groups = []
    start = 0
    for j in range(1, energies.size + 1):
        if j == energies.size or energies[j] - energies[start] > bound:
            groups.append(pops[start:j])
            start = j
    for lo, hi in zip(groups, groups[1:]):
        if np.max(hi) > np.min(lo) + TOL_PASSIVE:
            return False
    return True


def energy_variance_identity(h, res):
    """Both sides of <H^2> - <H>^2 = k_B T^2 * C with C = dT <H>.

    Canonical setting (mu absorbed or zero). The heat capacity is formed
    by a central finite difference with Delta T = HEAT_CAPACITY_STEP * T.
    Returns ``(lhs, rhs)``.
    """
    h = np.asarray(h, dtype=complex)

    def mean_energy(temp):
        r = ReservoirSpec(temperature=temp, statistics=res.statistics)
        g = gibbs_state(h, r)
        return float(np.real(np.trace(h @ g)))

    g = gibbs_state(h, res)
    e1 = float(np.real(np.trace(h @ g)))
    e2 = float(np.real(np.trace(h @ h @ g)))
    lhs = e2 - e1 * e1
    t = res.temperature
    dt = HEAT_CAPACITY_STEP * t
    heat_capacity = (mean_energy(t + dt) - mean_energy(t - dt)) / (2 * dt)
    # k_B T^2 dT<H> = tau^2 dtau<H> with tau = k_B T the stored field
    rhs = t * t * heat_capacity
    return lhs, rhs
