"""A generator with a sweep axis against its points run one at a time.

``models.common.stack_sweep`` stacks n per-point (generator, ledger) pairs
into one pair with a leading sweep axis. Every batched result must equal,
byte for byte, the result of the same function on each point alone: the
CLI table bodies, which are pinned bit for bit, are now computed as one
batch per sweep. The draws share one random structure per example and
vary everything else per point, with operators shared by every point or
scaled by a per-point phase; they also run in chunks of a few points.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qthermo import lindblad, qcore
from qthermo.fcs import (CountingError, counting_liouvillian, cumulants,
                         particle_weights)
from qthermo.lindblad import (GKLSGenerator, JumpChannel, MultistabilityError,
                              ThermoLedger, all_currents,
                              entropy_production_rate, steady_state)
from qthermo.models import SingleDotParams, single_dot_generator, stack_sweep
from qthermo.thermo import ReservoirSpec


def ldb_sweep(dim, seed, n_points):
    """n (generator, ledger) pairs of one random structure, with counting
    weights for its channels.

    As ``ldb_generator`` in test_gkls_properties: levels on a coarse grid,
    a Hamiltonian coupling inside degenerate blocks, and for each reservoir
    level pairs driven with rates that obey local detailed balance (the
    first reservoir links neighbouring levels, so the steady state is
    unique). The levels, numbers and level pairs are shared; the energy
    unit, Hamiltonian, reservoir parameters and, half of the time, the
    phases of the jump operators change from point to point.
    """
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 3, dim)
    numbers = rng.integers(0, 3, dim)
    degenerate = levels[:, None] == levels[None, :]
    pairs = []
    for k in range(int(rng.integers(1, 4))):
        chosen = {(i, j) for i in range(dim) for j in range(i + 1, dim)
                  if rng.random() < 0.5}
        if k == 0:
            chosen |= {(i, i + 1) for i in range(dim - 1)}
        pairs.append(sorted(chosen))
    phased = rng.random() < 0.5
    machines = []
    for _ in range(n_points):
        energies = rng.uniform(0.3, 1.0) * levels
        h_td = np.diag(energies).astype(complex)
        h = h_td + degenerate * qcore.random_hermitian(dim, rng, scale=0.3)
        reservoirs, channels = {}, []
        for k, chosen in enumerate(pairs):
            tag = f"r{k}"
            res = ReservoirSpec(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                                "fermionic", rng.uniform(0.1, 1.0))
            reservoirs[tag] = res
            for i, j in chosen:
                omega = float(energies[j] - energies[i])
                n = int(numbers[j] - numbers[i])
                x = (omega - res.chemical_potential * n) / res.temperature
                lower = np.zeros((dim, dim), dtype=complex)
                lower[i, j] = np.exp(2j * np.pi * rng.random()) if phased else 1
                channels.append(JumpChannel(
                    lower, res.coupling / (1 + math.exp(-x)), tag, omega, n))
                channels.append(JumpChannel(
                    lower.conj().T, res.coupling / (1 + math.exp(x)), tag,
                    -omega, -n))
        machines.append((GKLSGenerator(h, tuple(channels)),
                         ThermoLedger(h_td, np.diag(numbers), reservoirs)))
    weights = tuple(float(w) for w in rng.integers(-2, 3, len(channels)))
    return machines, weights


def assert_bitwise(out, ref):
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       n_points=st.integers(1, 5), chunk=st.sampled_from([None, 1, 2]))
def test_batch_equals_slices(dim, seed, n_points, chunk):
    machines, weights = ldb_sweep(dim, seed, n_points)
    gen, ledger = stack_sweep(machines)
    budget = lindblad.BATCH_BYTES if chunk is None else \
        chunk * 16 * dim ** 4 * (len(gen.channels) + 8)
    with mock.patch.object(lindblad, "BATCH_BYTES", budget):
        rho = steady_state(gen)
        cs = cumulants(gen, weights)
    currents = all_currents(gen, ledger, rho)
    sigma_dot = entropy_production_rate(gen, ledger, rho)
    assert gen.batch_shape == (n_points,)
    assert cs.shape == (4, n_points)
    for i, (one_gen, one_ledger) in enumerate(machines):
        one_rho = steady_state(one_gen)
        assert_bitwise(rho[i], one_rho)
        for tag, (heat, work) in all_currents(one_gen, one_ledger,
                                              one_rho).items():
            assert_bitwise(currents[tag][0][i], heat)
            assert_bitwise(currents[tag][1][i], work)
        assert_bitwise(sigma_dot[i],
                       entropy_production_rate(one_gen, one_ledger, one_rho))
        for c, one in zip(cs, cumulants(one_gen, weights)):
            assert_bitwise(c[i], one)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       n_states=st.integers(1, 6))
def test_state_stack_equals_states(dim, seed, n_states):
    # a generator with no sweep axis acting on a (n, d, d) stack of states,
    # as the single-dot time series evaluates its propagated states
    [(gen, ledger)], _ = ldb_sweep(dim, seed, 1)
    rng = np.random.default_rng(seed)
    rhos = np.stack([qcore.random_density_matrix(dim, rng)
                     for _ in range(n_states)])
    currents = all_currents(gen, ledger, rhos)
    sigma_dot = entropy_production_rate(gen, ledger, rhos)
    assert gen.batch_shape == ()
    for i, rho in enumerate(rhos):
        for tag, (heat, work) in all_currents(gen, ledger, rho).items():
            assert_bitwise(currents[tag][0][i], heat)
            assert_bitwise(currents[tag][1][i], work)
        assert_bitwise(sigma_dot[i], entropy_production_rate(gen, ledger, rho))


def engine_points(n):
    cold = ReservoirSpec(0.3, 1.0, "fermionic", 0.01)
    hot = ReservoirSpec(0.8, 0.0, "fermionic", 0.01)
    return [single_dot_generator(SingleDotParams(eps, {"c": cold, "h": hot}))
            for eps in np.linspace(1.5, 2.5, n)]


def test_operators_shared_only_when_bitwise_equal():
    machines = engine_points(3)
    assert stack_sweep(machines)[0]._stack.ops.shape == (4, 2, 2)
    gen, ledger = machines[1]
    ch = gen.channels[0]
    signed = replace(ch, operator=np.where(ch.operator == 0, -0.0,
                                           ch.operator))
    machines[1] = (replace(gen, channels=(signed,) + gen.channels[1:]),
                   ledger)
    gen, ledger = stack_sweep(machines)
    assert gen.channels[0].operator.shape == (3, 2, 2)
    assert gen.channels[1].operator.shape == (2, 2)
    assert gen._stack.ops.shape == (3, 4, 2, 2)
    rho = steady_state(gen)
    for i, (one_gen, one_ledger) in enumerate(machines):
        one_rho = steady_state(one_gen)
        assert_bitwise(rho[i], one_rho)
        assert_bitwise(entropy_production_rate(gen, ledger, rho)[i],
                       entropy_production_rate(one_gen, one_ledger, one_rho))


@pytest.mark.parametrize("n_points", [3, 4, 5])
def test_counting_liouvillian_equals_points(n_points):
    # the engine has 4 channels: at 4 points the channel and sweep axes
    # have the same length
    machines = engine_points(n_points)
    gen, _ = stack_sweep(machines)
    phases = 0.3 * particle_weights(gen, "c")
    assert_bitwise(counting_liouvillian(gen, phases),
                   np.stack([counting_liouvillian(one_gen, phases)
                             for one_gen, _ in machines]))


def test_mismatched_structure_rejected():
    machines, _ = ldb_sweep(3, 5, 2)
    other, _ = ldb_sweep(3, 6, 1)
    with pytest.raises(ValueError, match="differ"):
        stack_sweep(machines + other)


def singular_sweep():
    """A two-point sweep whose second point has no dissipation."""
    machines, cfg = ldb_sweep(2, 3, 2)
    gen, ledger = machines[1]
    machines[1] = (GKLSGenerator(gen.hamiltonian, tuple(
        JumpChannel(ch.operator, 0.0, ch.reservoir, ch.energy_quantum,
                    ch.particle_quantum) for ch in gen.channels)), ledger)
    return stack_sweep(machines), cfg


def test_failing_point_is_named():
    (gen, _), cfg = singular_sweep()
    with pytest.raises(MultistabilityError, match="dimensional"):
        steady_state(gen)
    with pytest.raises(CountingError, match="not unique"):
        cumulants(gen, cfg, "w")
    with mock.patch.object(lindblad, "BATCH_BYTES", 1):
        with pytest.raises(MultistabilityError):
            steady_state(gen)
