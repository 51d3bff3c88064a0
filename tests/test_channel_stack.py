"""The channel stack of a generator against the per-channel loop it replaced.

``lindblad`` acts on all jump channels of a generator at once, as
``(k, d, d)`` stacks. The references below are the per-channel loops,
written with ``np.kron`` and ``.conj().T``; every public result must equal
them byte for byte, because the CLI table bodies are pinned bit for bit.
The draws cover d in {2, 3, 4, 8}, 0-6 channels, zero rates, signed zeros,
real and column-major operators, and states that are real or slightly
non-Hermitian.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qthermo import qcore
from qthermo.lindblad import (ENTROPY_EIG_FLOOR, GKLSGenerator, JumpChannel,
                              ThermoLedger, all_currents, build_liouvillian,
                              entropy_production_rate, entropy_rate,
                              generator_apply, validate_ledger)
from qthermo.qcore import KB, commutator_superop
from qthermo.thermo import ReservoirSpec


def ref_dissipator(op, rho):
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    ld_l = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (ld_l @ rho + rho @ ld_l)


def ref_liouvillian(gen):
    eye, h = np.eye(gen.dim), gen.hamiltonian
    dissipative = np.zeros((gen.dim ** 2,) * 2, dtype=complex)
    for ch in gen.channels:
        op = ch.operator
        ld_l = op.conj().T @ op
        dissipative += ch.rate * (np.kron(op.conj(), op)
                                  - 0.5 * np.kron(eye, ld_l)
                                  - 0.5 * np.kron(ld_l.T, eye))
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye)) + dissipative


def ref_generator_apply(gen, rho):
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for ch in gen.channels:
        out = out + ch.rate * ref_dissipator(ch.operator, rho)
    return out


def ref_currents(gen, ledger, rho):
    out = {}
    for alpha in gen.reservoirs():
        mu = ledger.reservoirs[alpha].chemical_potential
        obs = ledger.h_td - mu * ledger.n_s
        heat = work = 0.0
        for ch in gen.channels:
            if ch.reservoir != alpha:
                continue
            d_rho = ref_dissipator(ch.operator, rho)
            heat -= ch.rate * np.trace(obs @ d_rho).real
            work -= mu * ch.rate * np.trace(ledger.n_s @ d_rho).real
        out[alpha] = (float(heat), float(work))
    return out


def ref_entropy_production(gen, ledger, rho):
    herm = np.asarray(rho, dtype=complex)
    herm = (herm + herm.conj().T) / 2
    rho_dot = ref_generator_apply(gen, herm)
    p, v = np.linalg.eigh(herm)
    p = np.clip(p, ENTROPY_EIG_FLOOR, None)
    diag = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho_dot, v))
    sdot = KB * float(-np.sum(diag * np.log(p)))
    for alpha, (heat, _) in ref_currents(gen, ledger, rho).items():
        sdot += KB * heat / ledger.reservoirs[alpha].temperature
    return float(sdot)


def assert_bitwise(out, ref):
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


def stacked_machine(dim, n_channels, seed):
    """(generator, ledger, state) with ladder channels on random levels.

    Levels sit on a coarse grid, so one (omega, n) pair links several level
    pairs and a channel operator has several entries; every channel obeys
    the ladder identities against the ledger.
    """
    rng = np.random.default_rng(seed)
    energies = 0.5 * rng.integers(0, 3, dim)
    numbers = rng.integers(0, 2, dim)
    tags = [f"r{k}" for k in range(int(rng.integers(1, 4)))]
    reservoirs = {tag: ReservoirSpec(rng.uniform(0.2, 2.0),
                                     rng.uniform(-1.0, 1.0), "fermionic",
                                     rng.uniform(0.1, 1.0)) for tag in tags}
    channels = []
    for _ in range(n_channels):
        i, j = rng.integers(0, dim, 2)
        omega, n = energies[j] - energies[i], numbers[j] - numbers[i]
        mask = ((energies[None, :] - energies[:, None] == omega)
                & (numbers[None, :] - numbers[:, None] == n))
        op = mask * (rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))
        kind = rng.integers(0, 4)
        if kind == 1:
            op = op.real  # a real operator, cast to complex by JumpChannel
        elif kind == 2:
            op = np.asfortranarray(op)  # kept column-major by JumpChannel
        elif kind == 3:
            op[~mask] = -0.0
        rate = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2.0)
        channels.append(JumpChannel(op, rate, str(rng.choice(tags)),
                                    float(omega), int(n)))
    gen = GKLSGenerator(qcore.random_hermitian(dim, rng), tuple(channels))
    ledger = ThermoLedger(np.diag(energies), np.diag(numbers), reservoirs)
    rho = qcore.random_density_matrix(dim, rng)
    if rng.random() < 0.3:
        rho = rho.real  # a real state, cast to complex on the way in
    elif rng.random() < 0.5:
        rho = rho + 1e-3 * (rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
    return gen, ledger, rho


machines = st.builds(stacked_machine, st.sampled_from([2, 3, 4, 8]),
                     st.integers(0, 6), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(machine=machines)
def test_liouvillian_and_action_equal_channel_loop(machine):
    gen, _, rho = machine
    assert_bitwise(build_liouvillian(gen), ref_liouvillian(gen))
    assert_bitwise(generator_apply(gen, rho), ref_generator_apply(gen, rho))
    assert_bitwise(gen._jump_superops.reshape(-1, gen.dim ** 2, gen.dim ** 2),
                   np.array([np.kron(ch.operator.conj(), ch.operator)
                             for ch in gen.channels],
                            dtype=complex).reshape(-1, gen.dim ** 2,
                                                   gen.dim ** 2))


@settings(max_examples=60, deadline=None)
@given(machine=machines)
def test_currents_and_entropy_production_equal_channel_loop(machine):
    gen, ledger, rho = machine
    currents = all_currents(gen, ledger, rho)
    expected = ref_currents(gen, ledger, rho)
    assert list(currents) == list(expected)
    for alpha, (heat, work) in expected.items():
        assert_bitwise(currents[alpha], (heat, work))
    assert_bitwise(entropy_production_rate(gen, ledger, rho),
                   ref_entropy_production(gen, ledger, rho))


def test_generator_without_channels():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    gen = GKLSGenerator(h, ())
    ledger = ThermoLedger(h, np.diag([0.0, 1.0, 1.0]),
                          {"B": ReservoirSpec(1.0, 0.0, "fermionic", 0.1)})
    rho = qcore.random_density_matrix(3, np.random.default_rng(5))
    assert gen._stack.ops.shape == (0, 3, 3)
    assert gen._jump_superops.shape == (0, 9, 9)
    assert_bitwise(build_liouvillian(gen),
                   commutator_superop(h) + np.zeros((9, 9), dtype=complex))
    validate_ledger(gen, ledger)
    assert all_currents(gen, ledger, rho) == {}
    assert_bitwise(generator_apply(gen, rho), -1j * (h @ rho - rho @ h))
    assert entropy_production_rate(gen, ledger, rho) == \
        KB * entropy_rate(gen, rho)
