"""Stochastic sampling: two-point-measurement work statistics and
jump-trajectory unraveling with per-trajectory thermodynamic bookkeeping.

Two layers:

- TPM: projective energy measurements before and after a piecewise-
  constant drive of an isolated system; the outcome difference is the
  trajectory work. Exact enumeration for small dimensions, seeded
  Monte Carlo sampling, time reversal, and the Crooks/Jarzynski checks.
- Open-system unraveling: Gillespie sampling of the classical jump
  process of a population-closed GKLS generator, accumulating stochastic
  heat, chemical work, system entropy change, and entropy production per
  trajectory; integral/detailed fluctuation-theorem estimators. Every
  per-trajectory field is a column, and so are the recorded jumps: CSR
  columns ``offsets``, ``times`` and ``channels``, trajectory i's jumps
  being the slice ``offsets[i]:offsets[i + 1]`` of the other two.

Time reversal is restricted to Theta = complex conjugation, so all TPM
Hamiltonians must be real-symmetric (no magnetic fields).

RNG: counter-based Philox4x64-10 streams (Salmon et al., SC'11), so
identical (seed, params) give bit-identical records regardless of
execution order or batch size. Seeds are integers in [0, 2**64 - 1].

- ``tpm_sample`` draws the whole sample from one Philox stream, key
  [seed, 0].
- ``unravel``: trajectory i reads the blocks at counters [b, 0, 0, i],
  b = 1, 2, ..., under key [seed, 0]. The uint64 words of those blocks
  in order form its draw stream, each word x giving u = (x >> 11) * 2**-53
  (numpy's ``random()`` of that Philox state). Draw 0 picks the initial
  state. Jumps read the stream in batches of 64 draws: each jump takes the
  next two draws (waiting time, channel) and moves on to the next batch
  when fewer than two are left, so draw 63 is never used. The waiting
  time out of a state of escape rate r is -log(1 - u) / r, with the C
  library's log (the one ``math.log`` calls) applied as a ufunc by
  ``_libm_log``, so ensembles are bit-reproducible for a given libm. The
  sampler reads the streams block by block: block b of every trajectory
  still alive, in slices of at most ``_CHUNK`` trajectories, then block
  b + 1 for the survivors.
"""

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .lindblad import validate_ledger
from .qcore import KB, TOL_TRACE, dagger, expm_dense, hermitize

_SEED_MAX = 2**64 - 1
# TPM Hamiltonians: max|Im H| and max|H - H^T|
TOL_REAL_SYMMETRIC = 1e-12
# TPM work values this close are one atom of the work distribution
TOL_WORK_MERGE = 1e-12
# Population closure (unravel): H_TD is taken as diagonal when its
# off-diagonal entries are at most TOL_DIAGONAL; H must be diagonal in the
# H_TD eigenbasis within TOL_CLOSURE * max(max|H|, 1); a jump operator
# entry above TOL_JUMP_SUPPORT * max|L| is a move.
TOL_DIAGONAL = 1e-12
TOL_CLOSURE = 1e-10
TOL_JUMP_SUPPORT = 1e-9
# Initial populations may dip to -TOL_POPULATION (then clipped to 0).
TOL_POPULATION = 1e-12
# ft_estimators: Sigma values equal to this many decimals are one atom; it
# bins above FT_MAX_ATOMS atoms; a fit point needs FT_MIN_COUNT per side
ATOM_DECIMALS = 9
FT_MAX_ATOMS = 20000
FT_MIN_COUNT = 10


class PopulationClosureError(ValueError):
    """Generator is not population-closed; use the fcs module instead."""


def _integer(name, value):
    """``value`` as an int, or a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed):
    seed = _integer("seed", seed)
    if not 0 <= seed <= _SEED_MAX:
        raise ValueError(f"seed must be an integer in [0, 2**64 - 1], "
                         f"got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Two-point measurement scheme
# ---------------------------------------------------------------------------

def _check_real_symmetric(h):
    h = np.asarray(h)
    if np.max(np.abs(np.imag(h))) > TOL_REAL_SYMMETRIC:
        raise ValueError("TPM Hamiltonians must be real (time reversal is "
                         "complex conjugation)")
    h = np.real(h).astype(float)
    if np.max(np.abs(h - h.T)) > TOL_REAL_SYMMETRIC:
        raise ValueError("TPM Hamiltonians must be symmetric")
    return h


@dataclass(frozen=True)
class TPMProtocol:
    """Piecewise-constant drive H(t) on [0, tau] with a Gibbs initial state.

    ``segments`` is an ordered tuple of (start_time, H) pairs; the first
    start must be 0 and starts must be non-decreasing (zero-length
    segments encode sudden quenches). H(0) fixes the initial Gibbs state
    and measurement basis, the last H fixes the final measurement basis.
    """

    segments: Tuple[Tuple[float, np.ndarray], ...]
    beta: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        segs = tuple((float(t), _check_real_symmetric(h))
                     for t, h in self.segments)
        if not segs:
            raise ValueError("protocol needs at least one segment")
        starts = [t for t, _ in segs]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be non-decreasing")
        if starts[-1] > self.tau:
            raise ValueError("segment starts must lie within [0, tau]")
        object.__setattr__(self, "segments", segs)

    @property
    def h_initial(self):
        return self.segments[0][1]

    @property
    def h_final(self):
        return self.segments[-1][1]

    def unitary(self):
        """Time-ordered propagator: product of segment exponentials,
        time increasing from right to left."""
        dim = self.h_initial.shape[0]
        u = np.eye(dim, dtype=complex)
        starts = [t for t, _ in self.segments] + [self.tau]
        for j, (_, h) in enumerate(self.segments):
            duration = starts[j + 1] - starts[j]
            if duration == 0.0:
                continue
            evals, vecs = np.linalg.eigh(h)
            seg = (vecs * np.exp(-1j * evals * duration)[None, :]) @ vecs.T
            u = seg @ u
        return u


def backward_protocol(protocol):
    """Time-reversed protocol H~(t) = H(tau - t) (real Hamiltonians).

    Microreversibility ties its transition probabilities to the forward
    ones; see :func:`microreversibility_defect`.
    """
    starts = [t for t, _ in protocol.segments] + [protocol.tau]
    rev = []
    for j in range(len(protocol.segments) - 1, -1, -1):
        rev.append((protocol.tau - starts[j + 1], protocol.segments[j][1]))
    return TPMProtocol(tuple(rev), protocol.beta, protocol.tau)


def _gibbs_probs(energies, beta):
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


@dataclass(frozen=True)
class TPMDistribution:
    """Exact joint distribution of the two measured eigenindices.

    ``joint[n, m]`` is p(m <- n); ``work[n, m] = E_m(tau) - E_n(0)``.
    """

    energies_initial: np.ndarray
    energies_final: np.ndarray
    p_initial: np.ndarray
    transition: np.ndarray  # transition[m, n] = |<m_tau|U|n_0>|^2
    beta: float

    @property
    def joint(self):
        return (self.transition * self.p_initial[None, :]).T

    @property
    def work(self):
        return self.energies_final[None, :] - self.energies_initial[:, None]

    def mean_work(self):
        return float(np.sum(self.joint * self.work))

    def work_distribution(self):
        """(unique work values, probabilities), merged within TOL_WORK_MERGE;
        zero-probability transitions are dropped."""
        w = self.work.ravel()
        p = self.joint.ravel()
        order = np.argsort(w)
        w, p = w[order], p[order]
        values, probs = [], []
        for wi, pi in zip(w, p):
            if pi <= 0.0:
                continue
            if values and abs(wi - values[-1]) <= TOL_WORK_MERGE:
                probs[-1] += pi
            else:
                values.append(wi)
                probs.append(pi)
        return np.array(values), np.array(probs)

    def delta_free_energy(self):
        """F(tau) - F(0) from the two partition functions."""

        def free_energy(energies):
            e0 = energies.min()
            z = np.sum(np.exp(-self.beta * (energies - e0)))
            return e0 - math.log(z) / self.beta

        return (free_energy(self.energies_final)
                - free_energy(self.energies_initial))

    def jarzynski_exact(self):
        """sum p(m<-n) e^{-beta W}; equals e^{-beta DeltaF} identically."""
        return float(np.sum(self.joint * np.exp(-self.beta * self.work)))


def tpm_distribution(protocol):
    """Exact enumeration of p(m <- n) = p_n |<m_tau|U|n_0>|^2.

    Degenerate eigenbases use numpy's deterministic eigh ordering.
    """
    e0, v0 = np.linalg.eigh(protocol.h_initial)
    e1, v1 = np.linalg.eigh(protocol.h_final)
    u = protocol.unitary()
    amp = dagger(v1.astype(complex)) @ u @ v0.astype(complex)
    transition = np.abs(amp) ** 2
    return TPMDistribution(e0, e1, _gibbs_probs(e0, protocol.beta),
                           transition, protocol.beta)


@dataclass(frozen=True)
class TPMSamples:
    """Columnar record of sampled TPM trajectories."""

    initial: np.ndarray
    final: np.ndarray
    work: np.ndarray

    def __len__(self):
        return self.work.size


def tpm_sample(protocol, seed, n_samples):
    """Monte Carlo TPM runs: sample n from the Gibbs weights, then m from
    the conditional transition probabilities. Same seed, same stream."""
    seed = _check_seed(seed)
    n_samples = _integer("n_samples", n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if n_samples > np.iinfo(np.intp).max:
        raise ValueError(f"n_samples must be <= {np.iinfo(np.intp).max}, "
                         f"got {n_samples}")
    dist = tpm_distribution(protocol)
    # a uint64 array key: numpy converts a list key lossily from 2**63 up
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64)))
    dim = dist.p_initial.size
    n_idx = rng.choice(dim, size=n_samples, p=dist.p_initial)
    cum = np.cumsum(dist.transition, axis=0)  # cum[m, n]
    u = rng.random(n_samples)
    m_idx = np.empty(n_samples, dtype=np.int64)
    for n_val in range(dim):
        mask = n_idx == n_val
        if np.any(mask):
            m_idx[mask] = np.searchsorted(cum[:, n_val], u[mask], side="right")
    m_idx = np.minimum(m_idx, dim - 1)
    work = dist.energies_final[m_idx] - dist.energies_initial[n_idx]
    return TPMSamples(n_idx.astype(np.int64), m_idx, work)


def microreversibility_defect(protocol):
    """max |p(m<-n) transition prob - backward p(n<-m) transition prob|.

    Zero (to rounding) for real-symmetric schedules; a direct numerical
    statement of the microreversibility condition.
    """
    fwd = tpm_distribution(protocol).transition
    bwd = tpm_distribution(backward_protocol(protocol)).transition
    return float(np.max(np.abs(fwd - bwd.T)))


@dataclass(frozen=True)
class JarzynskiEstimate:
    estimate: float
    stderr: float
    mean_work: float
    free_energy_estimate: float  # -ln<e^{-beta W}>/beta; <= mean_work always

    @property
    def dissipated_work(self):
        return self.mean_work - self.free_energy_estimate


def jarzynski_estimate(work, beta):
    """Sample estimate of <e^{-beta W}> with its standard error."""
    work = np.asarray(work, dtype=float)
    if work.size == 0:
        raise ValueError("Jarzynski estimate needs at least one work sample")
    x = np.exp(-beta * work)
    est = float(x.mean())
    stderr = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return JarzynskiEstimate(est, stderr, float(work.mean()),
                             -math.log(est) / beta)


@dataclass(frozen=True)
class CrooksReport:
    slope: float
    slope_stderr: float
    intercept: float
    intercept_stderr: float
    slope_expected: float      # -beta
    intercept_expected: float  # beta * DeltaF
    bin_centers: np.ndarray
    log_ratio: np.ndarray
    skipped_bins: int


def _log_ratio_line(x, nf, nb, n_forward, n_backward):
    """y = ln[(n_b/N_b)/(n_f/N_f)] per point, and the weighted least-squares
    line of y against x with the log-ratio variance 1/n_f + 1/n_b."""
    y = np.log((nb / n_backward) / (nf / n_forward))
    w = 1.0 / (1.0 / nf + 1.0 / nb)
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    slope = (w * (x - xm) * (y - ym)).sum() / sxx
    intercept = ym - slope * xm
    slope_err = math.sqrt(1.0 / sxx)
    intercept_err = math.sqrt(1.0 / sw + xm ** 2 / sxx)
    return y, slope, slope_err, intercept, intercept_err


def _binned(forward, backward, edges):
    """Counts of both samples in shared bins, and the forward centroids."""
    nf, _ = np.histogram(forward, bins=edges)
    nb, _ = np.histogram(backward, bins=edges)
    sums, _ = np.histogram(forward, bins=edges, weights=forward)
    centers = np.where(nf > 0, sums / np.maximum(nf, 1),
                       0.5 * (edges[:-1] + edges[1:]))
    return nf, nb, centers


def crooks_check(forward_work, backward_work, beta, delta_f, edges):
    """Per-bin Crooks ratio ln[p~(-W)/p(W)] fitted against W.

    The expected line is -beta (W - DeltaF): slope -beta, intercept
    beta DeltaF. The bin ``edges`` are shared between p(W) and p~(-W);
    bins empty on either side are skipped and counted. The abscissa of
    each bin is the centroid of the forward samples it holds (discrete
    work spectra rarely sit at bin centers). Weighted least squares with
    the usual 1/n_f + 1/n_b log-ratio variance.
    """
    fw = np.asarray(forward_work, dtype=float)
    bw = -np.asarray(backward_work, dtype=float)
    nf, nb, centers = _binned(fw, bw, np.asarray(edges, dtype=float))
    ok = (nf > 0) & (nb > 0)
    skipped = int(np.sum(~ok & ((nf > 0) | (nb > 0))))
    if ok.sum() < 2:
        raise ValueError("fewer than two usable bins for the Crooks fit")
    y, slope, slope_err, intercept, intercept_err = _log_ratio_line(
        centers[ok], nf[ok], nb[ok], fw.size, bw.size)
    return CrooksReport(slope, slope_err, intercept, intercept_err,
                        -beta, beta * delta_f, centers[ok], y, skipped)


# ---------------------------------------------------------------------------
# Jump-trajectory unraveling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Columnar storage of N unraveled trajectories.

    ``heat[alpha]`` and ``work[alpha]`` are per-trajectory arrays
    (positive into reservoir alpha); ``entropy_production`` is
    Sigma = k_B DeltaS + sum_alpha Q_alpha/T_alpha per trajectory.
    ``p_final`` is the ensemble (rate-equation) population at tau used
    for the boundary term of DeltaS. ``events`` is None unless events
    were recorded; then it is the CSR triple (offsets, times, channels):
    int64 ``offsets`` of length N + 1, float64 jump ``times`` and int64
    jump ``channels``, trajectory i's jumps being
    ``times[offsets[i]:offsets[i + 1]]`` in time order and the
    ``channels`` of the same slice.
    """

    initial: np.ndarray
    final: np.ndarray
    heat: dict
    work: dict
    entropy_change: np.ndarray
    entropy_production: np.ndarray
    events: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    p_initial: np.ndarray
    p_final: np.ndarray
    tau: float
    seed: int
    basis: np.ndarray
    rate_matrix: np.ndarray

    def __len__(self):
        return self.initial.size


def _jump_tables(gen, ledger):
    """Diagonalize H_TD, verify population closure, tabulate the jumps.

    Returns (basis, classical rate matrix, reservoirs, state tables,
    quanta). Row j of the state tables ``cum``, ``targets`` and
    ``channels`` lists the moves out of state j in channel order:
    cumulative rates (summed left to right), target states and channel
    indices, padded with +inf / -1 up to the widest row. ``totals[j]`` is
    the escape rate, ``cum[j]``'s last finite entry. The quanta
    ``(reservoir index, heat, work)`` are indexed by channel. Raises
    PopulationClosureError with guidance when coherences are dynamically
    coupled to populations.
    """
    h_td = ledger.h_td
    dim = h_td.shape[0]
    offdiag = h_td - np.diag(np.diag(h_td))
    if np.max(np.abs(offdiag)) <= TOL_DIAGONAL:
        basis = np.eye(dim, dtype=complex)
    else:
        _, basis = np.linalg.eigh(hermitize(h_td))
    h_s = dagger(basis) @ gen.hamiltonian @ basis
    scale = max(float(np.max(np.abs(h_s))), 1.0)
    if np.max(np.abs(h_s - np.diag(np.diag(h_s)))) > TOL_CLOSURE * scale:
        raise PopulationClosureError(
            "Hamiltonian is not diagonal in the H_TD eigenbasis; the "
            "unraveling would mix coherences into populations. Use the fcs "
            "module for counting statistics of coherent generators.")
    reservoirs = gen.reservoirs()
    n_ch = max(1, len(gen.channels))
    rate_matrix = np.zeros((dim, dim))
    totals = np.zeros(dim)
    cum = np.full((dim, n_ch), np.inf)
    targets = np.full((dim, n_ch), -1, dtype=np.int64)
    channels = np.full((dim, n_ch), -1, dtype=np.int64)
    width = np.zeros(dim, dtype=np.int64)  # moves out of each state so far
    res_idx, dq, dw = [], [], []
    for k, ch in enumerate(gen.channels):
        op = dagger(basis) @ ch.operator @ basis
        mags = np.abs(op)
        col_scale = mags.max() if mags.max() > 0 else 1.0
        for j in range(dim):
            nz = np.where(mags[:, j] > TOL_JUMP_SUPPORT * col_scale)[0]
            if nz.size > 1:
                raise PopulationClosureError(
                    f"channel {k} maps basis state {j} to a superposition; "
                    "generator is not population-closed. Use the fcs module "
                    "instead.")
            if nz.size == 1:
                rate = ch.rate * mags[nz[0], j] ** 2
                rate_matrix[nz[0], j] += rate
                rate_matrix[j, j] -= rate
                if rate > 0:
                    totals[j] += rate
                    c = width[j]
                    cum[j, c] = totals[j]
                    targets[j, c], channels[j, c] = nz[0], k
                    width[j] += 1
        mu = ledger.reservoirs[ch.reservoir].chemical_potential
        res_idx.append(reservoirs.index(ch.reservoir))
        dq.append(float(ch.energy_quantum - mu * ch.particle_quantum))
        dw.append(float(mu * ch.particle_quantum))
    keep = max(1, int(width.max()))
    tables = (totals, *(a[:, :keep].copy() for a in (cum, targets, channels)))
    quanta = (np.array(res_idx, dtype=np.int64), np.array(dq), np.array(dw))
    return basis, rate_matrix, reservoirs, tables, quanta


# Philox4x64-10 multipliers and Weyl key increments (Random123).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2**64 - 1
_LO32 = np.uint64(0xFFFFFFFF)

# Trajectories in one Philox slice: the sampler computes each block for
# at most this many live trajectories at a time. It bounds the working
# arrays of a slice (a few hundred bytes per trajectory), not the
# ensemble, and does not change the draws.
_CHUNK = 16384


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of the constant ``a`` and the
    uint64 array or scalar ``b``, from 32-bit halves."""
    a_hi, a_lo = np.uint64(a >> 32), np.uint64(a & 0xFFFFFFFF)
    b_hi, b_lo = b >> 32, b & _LO32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> 32) + (hi_lo & _LO32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> 32) + (cross >> 32)


def _philox4x64(counter, key):
    """Philox4x64-10 block function, vectorised over counters.

    ``counter`` is the four counter words, lowest first: uint64 arrays
    or scalars, broadcast together (words shared by every counter stay
    scalars through the first rounds, which is cheaper). ``key`` is two
    Python ints. Returns the four output words, the values
    ``np.random.Philox`` produces for the same key and counter.
    """
    c0, c1, c2, c3 = counter
    k0, k1 = key
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    with np.errstate(over="ignore"):  # products wrap modulo 2**64
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & _MASK64
                k1 = (k1 + _PHILOX_W[1]) & _MASK64
            c0, c1, c2, c3 = (_mulhi(_PHILOX_M[1], c2) ^ c1 ^ np.uint64(k0),
                              c2 * m1,
                              _mulhi(_PHILOX_M[0], c0) ^ c3 ^ np.uint64(k1),
                              c0 * m0)
    return c0, c1, c2, c3


def _role(position):
    """What stream position ``position`` of a trajectory is read for:
    "init", "wait" (waiting time), "move" (channel) or "unused"."""
    if position in (0, 63):
        return "init" if position == 0 else "unused"
    return "wait" if position % 2 == (position < 63) else "move"


def _libm_log(x):
    """libm's log (math.log's) as a ufunc; np.log's SIMD kernel may differ."""
    from scipy.special import xlogy
    return xlogy(1.0, x)


def unravel(gen, ledger, p0, tau, seed, n_traj, record_events=True):
    """Gillespie sampling of a population-closed generator.

    ``p0`` are initial populations over the H_TD eigenbasis (ascending
    energy; the computational basis when H_TD is already diagonal).
    Per jump of channel k tagged alpha the bookkeeping adds
    omega_k - mu_alpha n_k to Q_alpha and mu_alpha n_k to W_alpha (both
    positive into the reservoir); the boundary entropy term uses the
    ensemble rate-equation populations at 0 and tau. Trajectory i draws
    from its own Philox stream (see the module docstring), so it depends
    only on (seed, i). ``n_traj`` must be an integer of at least 1 and
    ``tau`` finite and >= 0. With ``record_events`` the ensemble's
    ``events`` are the CSR columns (offsets, times, channels) of every jump
    (see :class:`TrajectoryEnsemble`); without it they are None, which
    saves their memory and the sort that orders them by trajectory.
    """
    seed = _check_seed(seed)
    n_traj = _integer("n_traj", n_traj)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    validate_ledger(gen, ledger)
    basis, rate_matrix, reservoirs, tables, quanta = _jump_tables(gen, ledger)
    dim = rate_matrix.shape[0]
    p0 = np.asarray(p0, dtype=float)
    if (p0.shape != (dim,) or not np.isfinite(p0).all()
            or p0.min() < -TOL_POPULATION or abs(p0.sum() - 1) > TOL_TRACE):
        raise ValueError("p0 must be a population vector over the basis")
    p0 = np.clip(p0, 0.0, None)
    p0 = p0 / p0.sum()
    p_tau = expm_dense(rate_matrix, tau).real @ p0
    p_tau = np.clip(p_tau, 0.0, None)
    p_tau /= p_tau.sum()

    n_res = len(reservoirs)
    initial = np.empty(n_traj, dtype=np.int64)
    final = np.empty(n_traj, dtype=np.int64)
    heat = np.zeros((n_res, n_traj))
    work = np.zeros((n_res, n_traj))
    # (traj, t, k) of every move in block order, starting from a move of
    # no trajectories so that an ensemble without jumps has columns too
    jumps = ([(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
             if record_events else None)
    args = (seed, np.cumsum(p0), tables, quanta, tau,
            initial, final, heat, work, jumps)
    # block 1 starts every trajectory, sliced from index ranges; each later
    # block reads the survivors of the one before
    block = 1
    out = (_unravel_slice(block, (np.arange(s, min(s + _CHUNK, n_traj)),
                                  None, None), *args)
           for s in range(0, n_traj, _CHUNK))
    while True:
        traj, state, t = map(np.concatenate, zip(*out))
        if not traj.size:
            break
        block += 1
        out = [_unravel_slice(block, (traj[s:s + _CHUNK], state[s:s + _CHUNK],
                                      t[s:s + _CHUNK]), *args)
               for s in range(0, traj.size, _CHUNK)]
    events = None
    if jumps is not None:
        traj, times, channels = map(np.concatenate, zip(*jumps))
        jumps.clear()  # frees the per-move arrays before the sort
        # a trajectory's moves come in block order, which is its time order,
        # and a stable sort by trajectory keeps that order
        order = np.argsort(traj, kind="stable")
        offsets = np.zeros(n_traj + 1, dtype=np.int64)
        np.cumsum(np.bincount(traj, minlength=n_traj), out=offsets[1:])
        events = (offsets, times.take(order), channels.take(order))

    entropy_change = np.log(p0[initial]) - np.log(p_tau[final])
    sigma = KB * entropy_change.copy()
    temps = np.array([ledger.reservoirs[a].temperature for a in reservoirs])
    for r in range(n_res):
        sigma += KB * heat[r] / temps[r]
    return TrajectoryEnsemble(
        initial=initial, final=final,
        heat={a: heat[r] for r, a in enumerate(reservoirs)},
        work={a: work[r] for r, a in enumerate(reservoirs)},
        entropy_change=entropy_change, entropy_production=sigma,
        events=events,
        p_initial=p0, p_final=p_tau, tau=tau, seed=seed,
        basis=basis, rate_matrix=rate_matrix)


def _unravel_slice(block, live, seed, cum_p0, tables, quanta, tau,
                   initial, final, heat, work, jumps):
    """Read Philox block ``block`` of the trajectories in ``live``.

    ``live`` is (traj, state, t): trajectory indices and their states and
    times after block ``block - 1`` (state and t are None in block 1).
    Each of the block's four stream positions is read by its ``_role``.
    A trajectory leaves when its state has no way out or its next jump
    would fall after ``tau``. Writes rows of ``initial``, ``final``,
    ``heat`` and ``work``, appends (traj, t, k) of each move to ``jumps``
    when it is not None, and returns the survivors' (traj, state, t).
    """
    totals, cum, targets, channels = tables
    res_idx, dq, dw = quanta
    last_move = np.count_nonzero(targets >= 0, axis=1) - 1
    # flat views of the C-contiguous (reservoir, trajectory) accumulators;
    # a move adds to one distinct cell per live trajectory
    heat_cells, work_cells = heat.reshape(-1), work.reshape(-1)
    res_offset = res_idx * heat.shape[1]
    traj, state, t = live
    zero = np.uint64(0)
    words = np.array(_philox4x64((np.uint64(block), zero, zero,
                                  traj.astype(np.uint64)), (seed, 0)))
    for p in range(4):
        if not traj.size:
            break
        role = _role(4 * (block - 1) + p)
        if role == "unused":
            continue
        u = (words[p] >> 11) * 2.0**-53
        if role == "init":
            state = np.searchsorted(cum_p0, u, side="right")
            state = np.minimum(state, cum_p0.size - 1)
            initial[traj] = state
            t = np.zeros(traj.size)
        elif role == "wait":
            dt = -_libm_log(1.0 - u) / totals.take(state)
            t = t + dt
        else:
            x = u * totals.take(state)
            local = sum(col.take(state) <= x for col in cum.T)
            move = (state * cum.shape[1]
                    + np.minimum(local, last_move.take(state)))
            k = channels.take(move)
            cell = res_offset.take(k) + traj
            np.add.at(heat_cells, cell, dq.take(k))
            np.add.at(work_cells, cell, dw.take(k))
            state = targets.take(move)
            if jumps is not None:
                jumps.append((traj, t, k))
        # a jump after tau ends a trajectory; so does a state with no way out
        done = t > tau if role == "wait" else totals.take(state) <= 0.0
        if done.any():
            final[traj[done]] = state[done]
            on = np.flatnonzero(~done)
            traj, state, t = traj.take(on), state.take(on), t.take(on)
            words = words.take(on, axis=1)
    return traj, state, t


def backward_ensemble(gen, ledger, forward, seed):
    """Backward experiment: system restarts from the forward final
    populations, reservoirs fresh; same (time-independent, real)
    generator."""
    return unravel(gen, ledger, forward.p_final, forward.tau, seed,
                   len(forward), record_events=forward.events is not None)


@dataclass(frozen=True)
class FTReport:
    integral_estimate: float
    integral_stderr: float
    negative_fraction: float
    detailed_slope: Optional[float]
    detailed_slope_stderr: Optional[float]


def ft_estimators(forward, backward=None):
    """Integral and detailed fluctuation-theorem estimators.

    Integral: <e^{-Sigma/k_B}> with standard error (consistent with 1).
    Detailed (needs a backward ensemble): weighted fit of
    ln[P~(-Sigma)/P(Sigma)] against Sigma; expected slope -1/k_B. Since
    jump-trajectory Sigma values live on a lattice (finitely many jump
    counts and boundary states), the ratio is taken per distinct value
    (to ATOM_DECIMALS decimals), which avoids the aggregation bias of wide
    histogram bins; only above FT_MAX_ATOMS distinct values does the
    estimator fall back to 200 equal-width bins with forward-centroid
    abscissae. A point enters the fit with FT_MIN_COUNT samples on each
    side; insufficient negative-Sigma statistics leave ``detailed_slope``
    None (inconclusive), never silently passed.
    """
    for ens in (forward, backward):
        if ens is not None and len(ens) < 2:
            raise ValueError("fluctuation-theorem estimators need at least "
                             f"2 trajectories per ensemble, got {len(ens)}")
    x = np.exp(-forward.entropy_production / KB)
    est = float(x.mean())
    stderr = float(x.std(ddof=1) / math.sqrt(x.size))
    frac_neg = float(np.mean(forward.entropy_production < 0.0))
    slope = slope_err = None
    if backward is not None:
        sf = np.round(forward.entropy_production, ATOM_DECIMALS)
        sb = np.round(-backward.entropy_production, ATOM_DECIMALS)
        uf, cf = np.unique(sf, return_counts=True)
        if uf.size <= FT_MAX_ATOMS:
            ub, cb = np.unique(sb, return_counts=True)
            pos = np.searchsorted(ub, uf)
            pos = np.minimum(pos, ub.size - 1)
            nb = np.where(ub[pos] == uf, cb[pos], 0)
            xs, nf = uf, cf
        else:  # continuous-looking Sigma: binned fallback
            lim = max(np.abs(sf).max(), np.abs(sb).max()) * (1 + 1e-9)
            nf, nb, xs = _binned(sf, sb, np.linspace(-lim, lim, 201))
        ok = (nf >= FT_MIN_COUNT) & (nb >= FT_MIN_COUNT)
        if ok.sum() >= 2 and np.any(xs[ok] < 0):
            _, slope, slope_err, _, _ = _log_ratio_line(
                xs[ok], nf[ok], nb[ok], sf.size, sb.size)
    return FTReport(est, stderr, frac_neg, slope, slope_err)
