"""The machines' channels against the per-machine loops they replaced.

Every machine builds its channel pairs (L, kappa (1 - nbar)) and
(L†, kappa nbar) with ``models.common.thermal_pair``. The references
below are the four loops each builder used to write out, with the
double-dot operators built by ``np.kron`` and ``.conj().T``. Channels,
Hamiltonian, ledger and Liouvillian must equal them byte for byte: the
CLI table bodies are pinned bit for bit, and no golden digest covers the
double dot's secular mode.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qthermo.lindblad import GKLSGenerator, JumpChannel, build_liouvillian
from qthermo.models import (DoubleDotParams, FridgeParams, SingleDotParams,
                            double_dot_generator, fridge_generator,
                            single_dot_generator, stack_sweep)
from qthermo.models.common import IDENT2, LOWER, PARITY, thermal_pair
from qthermo.models.fridge import SIGMA_C, SIGMA_H, SIGMA_R
from qthermo.models.fridge import hamiltonian as fridge_hamiltonian
from qthermo.qcore import dagger
from qthermo.thermo import ReservoirSpec, fermi_dirac

REF_D_L = np.kron(IDENT2, LOWER)
REF_D_R = np.kron(LOWER, PARITY)
REF_N_TOT = REF_D_L.conj().T @ REF_D_L + REF_D_R.conj().T @ REF_D_R
REF_D_PLUS = (REF_D_R + REF_D_L) / math.sqrt(2.0)
REF_D_MINUS = (REF_D_R - REF_D_L) / math.sqrt(2.0)


def ref_single_dot_channels(params):
    channels = []
    for tag, res in params.reservoirs.items():
        nf = fermi_dirac(params.eps_d, res)
        channels.append(JumpChannel(LOWER, res.coupling * (1.0 - nf), tag,
                                    energy_quantum=params.eps_d,
                                    particle_quantum=1))
        channels.append(JumpChannel(LOWER.conj().T, res.coupling * nf, tag,
                                    energy_quantum=-params.eps_d,
                                    particle_quantum=-1))
    return channels


def ref_double_dot_hamiltonian(params):
    hop = REF_D_L.conj().T @ REF_D_R
    return params.eps * REF_N_TOT + params.g * (hop + hop.conj().T)


def ref_double_dot_channels(params):
    channels = []
    if params.mode == "local":
        site_ops = {"L": REF_D_L, "R": REF_D_R}
        for tag, res in params.reservoirs.items():
            nf = fermi_dirac(params.eps, res)
            op = site_ops[tag]
            channels.append(JumpChannel(op, res.coupling * (1.0 - nf), tag,
                                        energy_quantum=params.eps,
                                        particle_quantum=1))
            channels.append(JumpChannel(op.conj().T, res.coupling * nf, tag,
                                        energy_quantum=-params.eps,
                                        particle_quantum=-1))
    else:
        mode_ops = ((REF_D_PLUS, params.eps + params.g),
                    (REF_D_MINUS, params.eps - params.g))
        for tag, res in params.reservoirs.items():
            for op, energy in mode_ops:
                nf = fermi_dirac(energy, res)
                half = 0.5 * res.coupling
                channels.append(JumpChannel(op, half * (1.0 - nf), tag,
                                            energy_quantum=energy,
                                            particle_quantum=1))
                channels.append(JumpChannel(op.conj().T, half * nf, tag,
                                            energy_quantum=-energy,
                                            particle_quantum=-1))
    return channels


def ref_fridge_channels(params):
    sigma = {"c": SIGMA_C, "h": SIGMA_H, "r": SIGMA_R}
    channels = []
    for tag in ("c", "h", "r"):
        kappa = params.effective_rate(tag)
        nf = params.qubit_occupation(tag)
        eps = params.gap(tag)
        channels.append(JumpChannel(sigma[tag], kappa * (1.0 - nf), tag,
                                    energy_quantum=eps, particle_quantum=0))
        channels.append(JumpChannel(dagger(sigma[tag]), kappa * nf, tag,
                                    energy_quantum=-eps, particle_quantum=0))
    return channels


def assert_bitwise(out, ref):
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


def assert_channels_bitwise(channels, ref):
    assert len(channels) == len(ref)
    for ch, one in zip(channels, ref):
        assert (ch.reservoir, ch.particle_quantum) == \
            (one.reservoir, one.particle_quantum)
        assert type(ch.particle_quantum) is type(one.particle_quantum)
        assert_bitwise(ch.operator, one.operator)
        assert_bitwise(ch.rate, one.rate)
        assert_bitwise(ch.energy_quantum, one.energy_quantum)


def assert_machine_bitwise(gen, ref_h, ref_channels):
    assert_channels_bitwise(gen.channels, ref_channels)
    assert_bitwise(gen.hamiltonian, ref_h)
    assert_bitwise(build_liouvillian(gen),
                   build_liouvillian(GKLSGenerator(ref_h, ref_channels)))


energies = st.floats(-3.0, 3.0)
temperatures = st.floats(0.05, 5.0)
couplings = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))
fermionic = st.builds(ReservoirSpec, temperatures, energies,
                      st.just("fermionic"), couplings)
bosonic = st.builds(ReservoirSpec, temperatures, st.just(0.0),
                    st.just("bosonic"), couplings)


dot_tags = st.sampled_from([("B",), ("c", "h"), ("h", "c")])


@st.composite
def single_dots(draw, tags=dot_tags):
    tags = draw(tags)
    return SingleDotParams(draw(energies),
                           {tag: draw(fermionic) for tag in tags})


@st.composite
def double_dots(draw):
    tags = draw(st.permutations(["L", "R"]))
    return DoubleDotParams(draw(energies), draw(st.floats(-1.0, 1.0)),
                           {tag: draw(fermionic) for tag in tags},
                           draw(st.sampled_from(["local", "secular"])))


fridges = st.builds(
    FridgeParams, st.floats(0.05, 3.0), st.floats(0.05, 3.0),
    st.floats(0.0, 0.5), st.fixed_dictionaries(
        {"c": bosonic, "h": bosonic, "r": bosonic}))


@settings(max_examples=40, deadline=None)
@given(params=single_dots())
def test_single_dot_keeps_its_bits(params):
    assert_machine_bitwise(single_dot_generator(params)[0],
                           params.eps_d * (LOWER.conj().T @ LOWER),
                           ref_single_dot_channels(params))


@settings(max_examples=40, deadline=None)
@given(params=double_dots())
def test_double_dot_keeps_its_bits(params):
    gen, ledger = double_dot_generator(params)
    ref_h = ref_double_dot_hamiltonian(params)
    assert_machine_bitwise(gen, ref_h,
                           ref_double_dot_channels(params))
    assert_bitwise(ledger.n_s, REF_N_TOT)
    assert_bitwise(ledger.h_td, params.eps * REF_N_TOT
                   if params.mode == "local" else ref_h)


@settings(max_examples=40, deadline=None)
@given(params=fridges)
def test_fridge_keeps_its_bits(params):
    assert_machine_bitwise(fridge_generator(params)[0],
                           fridge_hamiltonian(params)[0],
                           ref_fridge_channels(params))


@settings(max_examples=20, deadline=None)
@given(params=dot_tags.flatmap(lambda tags: st.lists(
    single_dots(st.just(tags)), min_size=1, max_size=5)))
def test_thermal_pair_on_columns_is_the_stacked_sweep(params):
    # a sweep-native single dot: one thermal_pair per reservoir on the
    # columns of the sweep, against the per-point machines stacked
    gen, _ = stack_sweep([single_dot_generator(p) for p in params])
    eps = np.array([p.eps_d for p in params])
    columns = []
    for tag in params[0].reservoirs:
        kappa = np.array([p.reservoirs[tag].coupling for p in params])
        nf = np.array([fermi_dirac(p.eps_d, p.reservoirs[tag])
                       for p in params])
        columns.extend(thermal_pair(LOWER, kappa, nf, tag, eps, 1))
    assert_channels_bitwise(gen.channels, columns)
