"""Randomised thermodynamic properties of GKLS generators (hypothesis).

Every generator here obeys local detailed balance with each of its
reservoirs, so the second law, the steady-state first law and the
relaxation to the unique steady state must hold for any draw.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qthermo import qcore
from qthermo.fcs import counting_liouvillian, heat_and_work_weights
from qthermo.lindblad import (GKLSGenerator, JumpChannel, ThermoLedger,
                              all_currents, build_liouvillian,
                              entropy_production_rate, propagate,
                              steady_state)
from qthermo.thermo import ReservoirSpec


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
