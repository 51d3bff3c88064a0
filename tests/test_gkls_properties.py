"""Randomised thermodynamic properties of GKLS generators (hypothesis).

Every generator here obeys local detailed balance with each of its
reservoirs, so the second law, the steady-state first law and the
relaxation to the unique steady state must hold for any draw. Its steady
state stays unique under a change of units and at weak coupling, and the
first cumulant of its entropy-production field is the entropy production
rate. Its generating function at chi equals that of the time-reversed
generator (H replaced by H*) at i - chi. With a diagonal Hamiltonian the
time reversal is trivial, so the field has the Gallavotti-Cohen symmetry
itself; then every current also obeys the thermodynamic uncertainty
relation, and the jump sampler's mean heat is the exact first cumulant.
A coherent Hamiltonian can break the uncertainty relation. The sampled
particle counts of the biased single dot and of diagonal-H draws follow
their exact finite-time laws.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from qthermo import qcore
from qthermo.fcs import (counting_liouvillian, cumulants, dominant_eigenvalue,
                         heat_and_work_weights, particle_weights)
from qthermo.lindblad import (GKLSGenerator, JumpChannel, ThermoLedger,
                              all_currents, build_liouvillian,
                              entropy_production_rate, propagate,
                              steady_state)
from qthermo.models import SingleDotParams, single_dot_generator
from qthermo.thermo import ReservoirSpec, fermi_dirac
from qthermo.trajectories import unravel


def ldb_generator(dim, seed):
    """(generator, ledger) with random levels, reservoirs and transitions.

    H_TD and N_S are diagonal with levels on a coarse grid, so degenerate
    levels occur; the Hamiltonian adds a random coupling inside each
    degenerate block of H_TD, so it commutes with H_TD and the steady
    state can carry coherences. Each reservoir drives a random set of
    level pairs (|i><j|, |j><i|) with rates in the ratio
    e^{beta (omega - mu n)}; the first one also links neighbouring levels,
    which makes the steady state unique.
    """
    rng = np.random.default_rng(seed)
    energies = 0.7 * rng.integers(0, 3, dim)
    numbers = rng.integers(0, 3, dim)
    h_td = np.diag(energies).astype(complex)
    degenerate = energies[:, None] == energies[None, :]
    h = h_td + degenerate * qcore.random_hermitian(dim, rng, scale=0.3)
    reservoirs, channels = {}, []
    for k in range(int(rng.integers(1, 4))):
        tag = f"r{k}"
        res = ReservoirSpec(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                            "fermionic", rng.uniform(0.1, 1.0))
        reservoirs[tag] = res
        pairs = {(i, j) for i in range(dim) for j in range(i + 1, dim)
                 if rng.random() < 0.5}
        if k == 0:
            pairs |= {(i, i + 1) for i in range(dim - 1)}
        for i, j in sorted(pairs):
            omega = float(energies[j] - energies[i])
            n = int(numbers[j] - numbers[i])
            x = (omega - res.chemical_potential * n) / res.temperature
            lower = np.zeros((dim, dim))
            lower[i, j] = 1.0
            channels.append(JumpChannel(lower, res.coupling / (1 + math.exp(-x)),
                                        tag, omega, n))
            channels.append(JumpChannel(lower.T, res.coupling / (1 + math.exp(x)),
                                        tag, -omega, -n))
    gen = GKLSGenerator(h, tuple(channels))
    return gen, ThermoLedger(h_td, np.diag(numbers), reservoirs)


generators = st.builds(ldb_generator, st.sampled_from([2, 3, 4]),
                       st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(pair=generators, state_seed=st.integers(0, 2**32 - 1))
def test_second_law(pair, state_seed):
    gen, ledger = pair
    rho = qcore.random_density_matrix(gen.dim,
                                      np.random.default_rng(state_seed))
    assert entropy_production_rate(gen, ledger, rho) >= -1e-12
    assert entropy_production_rate(gen, ledger, steady_state(gen)) >= -1e-12


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_first_law_at_steady_state(pair):
    gen, ledger = pair
    currents = all_currents(gen, ledger, steady_state(gen))
    assert set(currents) == set(gen.reservoirs())
    assert abs(sum(j + p for j, p in currents.values())) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_steady_state_is_long_time_limit(pair):
    gen, _ = pair
    rates = np.sort(np.linalg.eigvals(build_liouvillian(gen)).real)
    t_relax = 40.0 / -rates[-2]
    rho0 = np.eye(gen.dim, dtype=complex) / gen.dim
    late = propagate(gen, rho0, t_relax)
    assert np.max(np.abs(late - steady_state(gen))) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_zero_field_counting_liouvillian_is_bitwise_bare(pair):
    gen, ledger = pair
    for tag in gen.reservoirs():
        for weights in heat_and_work_weights(gen, ledger, tag):
            assert np.array_equal(counting_liouvillian(gen, 0.0 * weights),
                                  build_liouvillian(gen))


def entropy_field(gen, ledger):
    """w_k = (omega_k - mu_alpha n_k) / T_alpha of each channel k of
    reservoir alpha: the entropy each jump brings into the reservoirs."""
    return sum(heat_and_work_weights(gen, ledger, tag)[0]
               / ledger.reservoirs[tag].temperature
               for tag in gen.reservoirs())


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_entropy_production_is_the_first_cumulant(pair):
    gen, ledger = pair
    sigma_dot = entropy_production_rate(gen, ledger, steady_state(gen))
    c1 = qcore.KB * cumulants(gen, entropy_field(gen, ledger), 1)[0]
    assert abs(c1 - sigma_dot) <= 1e-12 * max(1.0, sigma_dot)


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_gallavotti_cohen_symmetry(pair):
    # with H = H_TD the draw is population-closed, and local detailed
    # balance makes the tilted rate matrix at i - chi the transpose of the
    # one at chi (Lebowitz & Spohn, J. Stat. Phys. 95, 333 (1999))
    gen, ledger = pair
    gen = GKLSGenerator(ledger.h_td, gen.channels)
    weights = entropy_field(gen, ledger)
    bound = 1e-12 * max(1.0, np.abs(build_liouvillian(gen)).max())
    for chi in np.linspace(-1.5, 2.5, 9):
        nu = dominant_eigenvalue(counting_liouvillian(gen, chi * weights))
        mirror = dominant_eigenvalue(
            counting_liouvillian(gen, (1j - chi) * weights))
        assert abs(nu - mirror) <= bound


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_time_reversed_gallavotti_cohen_symmetry(pair):
    # the draws' jump operators are real, so complex conjugation reverses
    # time by replacing H with H*; imaginary couplings in H act as a
    # magnetic field does (Saito & Utsumi, PRB 78, 115429 (2008))
    gen, ledger = pair
    reversed_gen = GKLSGenerator(gen.hamiltonian.conj(), gen.channels)
    weights = entropy_field(gen, ledger)
    bound = 1e-12 * max(1.0, np.abs(build_liouvillian(gen)).max())
    for chi in np.linspace(-1.5, 2.5, 9):
        nu = dominant_eigenvalue(counting_liouvillian(gen, chi * weights))
        mirror = dominant_eigenvalue(
            counting_liouvillian(reversed_gen, (1j - chi) * weights))
        assert abs(nu - mirror) <= bound


def current_fields(gen, ledger):
    """Per-channel weights of the heat current into each reservoir, and
    of its particle current where the reservoir exchanges particles."""
    for tag in gen.reservoirs():
        yield heat_and_work_weights(gen, ledger, tag)[0]
        if any(ch.particle_quantum for ch in gen.channels
               if ch.reservoir == tag):
            yield particle_weights(gen, tag)


def tur_ratios(gen, ledger):
    """c2 sigma_dot / (2 k_B c1^2) of each current with |c1| >= 1e-9, the
    TUR's variance over its bound, and the entropy production rate."""
    sigma_dot = entropy_production_rate(gen, ledger, steady_state(gen))
    ratios = []
    for weights in current_fields(gen, ledger):
        c1, c2 = cumulants(gen, weights, 2)
        if abs(c1) >= 1e-9:
            ratios.append(c2 * sigma_dot / (2 * qcore.KB * c1 ** 2))
    return ratios, sigma_dot


@settings(max_examples=40, deadline=None)
@given(pair=generators)
def test_tur_for_diagonal_hamiltonians(pair):
    # c2 / c1^2 >= 2 k_B / sigma_dot (Barato & Seifert, PRL 114, 158101
    # (2015)), with sigma_dot allowed the rounding of
    # test_entropy_production_is_the_first_cumulant: near equilibrium the
    # bound is saturated to within it
    gen, ledger = pair
    gen = GKLSGenerator(ledger.h_td, gen.channels)
    ratios, sigma_dot = tur_ratios(gen, ledger)
    if sigma_dot > 1e-12:
        margin = 1e-12 * max(1.0, sigma_dot) / sigma_dot
        assert all(ratio >= 1.0 - margin for ratio in ratios)


def test_coherent_draw_breaks_the_tur():
    # the classical TUR need not hold with coherence (Ptaszynski, PRB 98,
    # 085425 (2018)): this d = 2 draw has a complex coupling between its
    # degenerate levels, and its heat and particle currents violate it
    gen, ledger = ldb_generator(2, 399)
    assert np.abs(gen.hamiltonian.imag).max() > 0.0
    ratios, sigma_dot = tur_ratios(gen, ledger)
    assert sigma_dot == pytest.approx(0.0654083342746696, rel=1e-9)
    assert ratios == pytest.approx([0.948967969763074] * 2, rel=1e-9)


def single_dot(kappa):
    """The biased single dot of ``fcs_biased_dot`` with kappa_L = kappa_R."""
    return single_dot_generator(SingleDotParams(1.0, {
        "L": ReservoirSpec(0.5, 0.8, "fermionic", kappa),
        "R": ReservoirSpec(0.5, -0.8, "fermionic", kappa)}))


def rescaled(gen, s=1.0, r=1.0):
    """``gen`` with every energy multiplied by s and every rate by s r."""
    return GKLSGenerator(gen.hamiltonian * s, tuple(
        replace(ch, rate=ch.rate * s * r, energy_quantum=ch.energy_quantum * s)
        for ch in gen.channels))


def heat_field(gen, ledger):
    """Per-channel heat weights into the first reservoir."""
    return heat_and_work_weights(gen, ledger, gen.reservoirs()[0])[0]


@settings(max_examples=40, deadline=None)
@given(pair=st.one_of(generators, st.builds(single_dot, st.just(0.01))),
       exponent=st.floats(-12.0, 12.0))
def test_change_of_units(pair, exponent):
    # s L has the kernel of L and s times its cumulants, to rounding
    gen, ledger = pair
    s = 10.0 ** exponent
    weights = heat_field(gen, ledger)
    scaled = rescaled(gen, s)
    assert np.abs(steady_state(scaled) - steady_state(gen)).max() <= 1e-12
    # order m against its scale sum_k gamma_k |w_k|^m, as some c_m are 0
    rates = np.array([ch.rate for ch in gen.channels])
    scale = np.array([rates @ np.abs(weights) ** m for m in range(1, 5)])
    error = np.abs(cumulants(scaled, weights) / s - cumulants(gen, weights))
    assert np.all(error <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(pair=generators, exponent=st.floats(-10.0, 0.0))
def test_weak_coupling(pair, exponent):
    # rates far below the level spacings leave the kernel one-dimensional
    gen, ledger = pair
    weak = rescaled(gen, r=10.0 ** exponent)
    rho = steady_state(weak)
    assert np.linalg.eigvalsh(rho).min() >= -qcore.TOL_PSD_STEADY
    assert np.all(np.isfinite(cumulants(weak, heat_field(gen, ledger))))


def test_single_dot_at_weak_coupling():
    kappa = 1e-13
    gen, ledger = single_dot(kappa)
    n_l, n_r = (fermi_dirac(1.0, res) for res in ledger.reservoirs.values())
    assert abs(steady_state(gen)[1, 1] - (n_l + n_r) / 2) <= 1e-12
    current = cumulants(gen, particle_weights(gen, "R"), 1)[0]
    assert abs(current / (kappa * (n_l - n_r) / 2) - 1) <= 1e-12


# draws with two or three reservoirs, each carrying a heat current
@pytest.mark.parametrize("dim, seed", [(2, 4), (2, 12), (3, 5), (3, 12),
                                       (4, 1), (4, 8)])
def test_sampled_mean_heat_is_the_first_cumulant(dim, seed):
    # with H = H_TD the draw is population-closed; started from its steady
    # populations, the mean heat into each reservoir grows as c1 tau
    gen, ledger = ldb_generator(dim, seed)
    gen = GKLSGenerator(ledger.h_td, gen.channels)
    tau = 3.0
    ens = unravel(gen, ledger, np.real(np.diag(steady_state(gen))), tau,
                  seed, 20_000, record_events=False)
    for tag in gen.reservoirs():
        c1 = cumulants(gen, heat_and_work_weights(gen, ledger, tag)[0], 1)[0]
        heat = ens.heat[tag]
        stderr = heat.std(ddof=1) / math.sqrt(heat.size)
        assert abs(heat.mean() - c1 * tau) <= 5 * stderr


def count_chi2(gen, ens, weights, p0, tau, m=64):
    """chi^2 and its degrees of freedom of the counts sum_k w_k over the
    recorded jumps of each trajectory of ``ens``, started from the
    populations ``p0``, against the exact law
    P(n) = (1/M) sum_j G(chi_j) e^{-i n chi_j}, G(chi) = Tr e^{L(chi w) tau}
    diag(p0), on M = m points chi_j = 2 pi j / M (Esposito, Harbola &
    Mukamel, Rev. Mod. Phys. 81, 1665 (2009)), over the bins that expect
    at least 5 counts. The law must be real, sum to 1 and vanish for
    |n| >= m/4, where no sampled count may fall."""
    tilted = np.stack([counting_liouvillian(gen, chi * weights)
                       for chi in 2.0 * np.pi * np.arange(m) / m])
    g = (qcore.expm_dense(tilted, tau) @ qcore.vectorize(np.diag(p0))
         @ qcore.trace_vector(gen.dim))
    # P[k] is P(n) at n = k for k < m/2 and at n = k - m above
    law = np.fft.fft(g) / m
    assert np.max(np.abs(law.imag)) <= 1e-12
    law = law.real
    assert abs(law.sum() - 1.0) <= 1e-12
    assert law.min() >= -1e-12 and law[m // 4:3 * m // 4].max() <= 1e-12
    offsets, _, channels = ens.events
    total = np.concatenate([[0.0], np.cumsum(weights[channels])])
    counts = (total[offsets[1:]] - total[offsets[:-1]]).astype(np.int64)
    assert np.abs(counts).max() < m // 4
    observed = np.bincount(counts % m, minlength=m)
    expected = len(ens) * law
    bins = expected >= 5
    chi2 = float(np.sum((observed[bins] - expected[bins]) ** 2
                        / expected[bins]))
    return chi2, int(bins.sum()) - 1


def test_sampled_particle_count_follows_the_exact_law():
    # the fcs_biased_dot dot (kappa_L + kappa_R = 1) at its sweep's largest
    # bias, from its steady state over tau = 2: the net electrons into R of
    # each sampled trajectory against their exact law. At this size every
    # escape rate x 1.02 gives p < 1e-17 on each of 20 seeds
    reservoirs = {"L": ReservoirSpec(0.5, 2.0, "fermionic", 0.6),
                  "R": ReservoirSpec(0.5, -0.8, "fermionic", 0.4)}
    gen, ledger = single_dot_generator(SingleDotParams(1.0, reservoirs))
    p0 = np.real(np.diag(steady_state(gen)))
    ens = unravel(gen, ledger, p0, 2.0, 2027, 500_000)
    chi2, dof = count_chi2(gen, ens, particle_weights(gen, "R"), p0, 2.0)
    assert scipy.stats.chi2.sf(chi2, dof) >= 1e-6, chi2


# diagonal-H draws whose every reservoir exchanges particles; at d = 3 and
# 4 the initial draw picks one of more than two states, and states have
# several moves
@pytest.mark.parametrize("dim, seed", [(2, 9), (3, 17), (4, 3)])
def test_sampled_particle_counts_of_draws_follow_the_exact_law(dim, seed):
    # from the steady populations over tau = 6, the net particles into each
    # reservoir against their exact law
    gen, ledger = ldb_generator(dim, seed)
    gen = GKLSGenerator(ledger.h_td, gen.channels)
    tau = 6.0
    p0 = np.real(np.diag(steady_state(gen)))
    ens = unravel(gen, ledger, p0, tau, seed, 200_000)
    for tag in gen.reservoirs():
        chi2, dof = count_chi2(gen, ens, particle_weights(gen, tag), p0, tau,
                               m=128)
        assert scipy.stats.chi2.sf(chi2, dof) >= 1e-6, (tag, chi2)
