import hashlib
import math
import tracemalloc
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qthermo.lindblad import (GKLSGenerator, JumpChannel, ThermoLedger,
                              heat_current, propagate, steady_state)
from qthermo.models import (DoubleDotParams, FridgeParams, SingleDotParams,
                            double_dot_generator, fridge_generator,
                            single_dot_generator)
from qthermo.models.common import LOWER, NUMBER, RAISE
from qthermo.thermo import ReservoirSpec
from qthermo import trajectories
from qthermo.trajectories import (PopulationClosureError, TPMProtocol,
                                  backward_ensemble, backward_protocol,
                                  crooks_check, ft_estimators,
                                  jarzynski_estimate,
                                  microreversibility_defect, tpm_distribution,
                                  tpm_sample, unravel)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def quench_protocol(eps0=1.0, angle=0.9, beta=1.0, tau=0.7):
    h0 = 0.5 * eps0 * SZ
    h1 = 0.5 * eps0 * (math.cos(angle) * SZ + math.sin(angle) * SX)
    return TPMProtocol(((0.0, h0), (0.0, h1)), beta, tau)


def biased_dot_params(eps=1.0, kappa=1.0, t=0.5, bias=1.6):
    return SingleDotParams(eps, {
        "L": ReservoirSpec(t, bias / 2, "fermionic", kappa),
        "R": ReservoirSpec(t, -bias / 2, "fermionic", kappa)})


class TestTPMProtocol:
    def test_rejects_complex_hamiltonian(self):
        h = np.array([[0.0, 1j], [-1j, 0.0]])
        with pytest.raises(ValueError):
            TPMProtocol(((0.0, h),), 1.0, 1.0)

    def test_rejects_misordered_segments(self):
        with pytest.raises(ValueError):
            TPMProtocol(((0.0, SZ), (0.5, SX), (0.2, SZ)), 1.0, 1.0)

    def test_constant_hamiltonian_work_is_zero(self):
        prot = TPMProtocol(((0.0, 0.5 * SZ),), 1.0, 2.0)
        dist = tpm_distribution(prot)
        # p(m<-n) = p_n delta_nm
        assert np.max(np.abs(dist.joint - np.diag(dist.p_initial))) < 1e-12
        values, probs = dist.work_distribution()
        assert np.array_equal(values, [0.0])
        assert probs[0] == pytest.approx(1.0)


class TestTPMDistribution:
    def test_exact_two_level_enumeration(self):
        # oracle: explicit 2x2 unitary of the rotated-quench evolution
        eps0, angle, beta, tau = 1.0, 0.9, 1.3, 0.7
        prot = quench_protocol(eps0, angle, beta, tau)
        dist = tpm_distribution(prot)
        # eigenbases: H0 -> {|0>, |1>} (E = ±eps0/2, ascending), H1 rotated
        # overlap of initial ground (excited) with final states: angle/2
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        stay = c * c  # |<m_ground|n_ground>|^2 under sudden quench at t=0+
        # evolution after the quench only adds phases in the H1 eigenbasis
        trans = np.array([[stay, 1 - stay], [1 - stay, stay]])
        z = math.exp(beta * eps0 / 2) + math.exp(-beta * eps0 / 2)
        p_minus = math.exp(beta * eps0 / 2) / z
        joint_expected = np.array(
            [[p_minus * trans[0, 0], p_minus * trans[0, 1]],
             [(1 - p_minus) * trans[1, 0], (1 - p_minus) * trans[1, 1]]])
        assert np.max(np.abs(dist.joint - joint_expected)) < 1e-12
        assert dist.joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginals(self):
        prot = quench_protocol()
        dist = tpm_distribution(prot)
        assert np.max(np.abs(dist.joint.sum(axis=1) - dist.p_initial)) < 1e-12
        # final marginal equals diag of U rho U† in the final eigenbasis
        u = prot.unitary()
        e0, v0 = np.linalg.eigh(prot.h_initial)
        e1, v1 = np.linalg.eigh(prot.h_final)
        rho0 = (v0 * dist.p_initial[None, :]) @ v0.T
        rho_tau = u @ rho0 @ u.conj().T
        diag_final = np.real(np.diag(v1.conj().T @ rho_tau @ v1))
        assert np.max(np.abs(dist.joint.sum(axis=0) - diag_final)) < 1e-10

    def test_mean_work_matches_ensemble(self):
        prot = quench_protocol()
        dist = tpm_distribution(prot)
        u = prot.unitary()
        e0, v0 = np.linalg.eigh(prot.h_initial)
        rho0 = (v0 * dist.p_initial[None, :]) @ v0.T
        rho_tau = u @ rho0 @ u.conj().T
        ensemble_work = (np.trace(prot.h_final @ rho_tau)
                         - np.trace(prot.h_initial @ rho0)).real
        assert dist.mean_work() == pytest.approx(ensemble_work, abs=1e-12)

    def test_jarzynski_identity_exact(self):
        for angle in (0.0, 0.4, 1.3):
            for beta in (0.5, 1.0, 2.0):
                dist = tpm_distribution(quench_protocol(angle=angle, beta=beta))
                lhs = dist.jarzynski_exact()
                rhs = math.exp(-beta * dist.delta_free_energy())
                assert abs(lhs - rhs) < 1e-10

    def test_exact_enumeration_at_dimension_40(self, rng):
        # two eigh calls and a d x d product: no dimension limit
        def symmetric(dim):
            a = rng.normal(size=(dim, dim))
            return 0.5 * (a + a.T)

        beta = 0.7
        prot = TPMProtocol(((0.0, symmetric(40)), (0.4, symmetric(40))),
                           beta, 1.0)
        dist = tpm_distribution(prot)
        assert dist.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.jarzynski_exact() == pytest.approx(
            math.exp(-beta * dist.delta_free_energy()), rel=1e-12)
        assert microreversibility_defect(prot) < 1e-12


class TestTPMSampling:
    def test_constant_hamiltonian_samples(self):
        prot = TPMProtocol(((0.0, 0.5 * SZ),), 1.0, 2.0)
        samples = tpm_sample(prot, 11, 4000)
        assert np.all(samples.work == 0.0)

    def test_seed_determinism(self):
        prot = quench_protocol()
        a = tpm_sample(prot, 5, 2000)
        b = tpm_sample(prot, 5, 2000)
        assert np.array_equal(a.initial, b.initial)
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(a.work, b.work)
        c = tpm_sample(prot, 6, 2000)
        assert not np.array_equal(a.final, c.final)

    def test_sample_mean_within_five_stderr(self):
        prot = quench_protocol()
        dist = tpm_distribution(prot)
        samples = tpm_sample(prot, 7, 100_000)
        se = samples.work.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.work.mean() - dist.mean_work()) < 5 * se

    def test_chi_square_sanity(self):
        prot = quench_protocol()
        dist = tpm_distribution(prot)
        n = 100_000
        samples = tpm_sample(prot, 13, n)
        counts = np.zeros((2, 2))
        np.add.at(counts, (samples.initial, samples.final), 1)
        expected = dist.joint * n
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 33.0  # 3 dof, p ~ 1e-6


class TestBackwardProtocol:
    def test_time_symmetric_schedule_is_self_reverse(self):
        prot = TPMProtocol(((0.0, 0.5 * SZ),), 1.0, 2.0)
        back = backward_protocol(prot)
        assert len(back.segments) == 1
        assert np.array_equal(back.segments[0][1], prot.segments[0][1])

    def test_microreversibility(self):
        assert microreversibility_defect(quench_protocol()) < 1e-10
        multi = TPMProtocol(((0.0, 0.5 * SZ), (0.3, 0.4 * SX),
                             (0.6, 0.2 * (SZ + SX))), 1.2, 1.0)
        assert microreversibility_defect(multi) < 1e-10

    def test_delta_f_sign_flip(self):
        h0 = 0.5 * SZ
        h1 = 1.7 * SZ
        prot = TPMProtocol(((0.0, h0), (0.0, h1)), 0.8, 0.5)
        fwd = tpm_distribution(prot)
        bwd = tpm_distribution(backward_protocol(prot))
        assert bwd.delta_free_energy() == pytest.approx(
            -fwd.delta_free_energy(), abs=1e-12)


class TestCrooksJarzynski:
    def test_trivial_protocol(self):
        prot = TPMProtocol(((0.0, 0.5 * SZ),), 1.0, 2.0)
        samples = tpm_sample(prot, 3, 5000)
        est = jarzynski_estimate(samples.work, 1.0)
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_exact_detailed_ratios(self):
        # every discrete work value obeys the detailed theorem exactly
        prot = quench_protocol(beta=1.0)
        fwd = tpm_distribution(prot)
        bwd = tpm_distribution(backward_protocol(prot))
        df = fwd.delta_free_energy()
        for n in range(2):
            for m in range(2):
                ratio = bwd.joint[m, n] / fwd.joint[n, m]
                expected = math.exp(-1.0 * (fwd.work[n, m] - df))
                assert ratio == pytest.approx(expected, rel=1e-10)

    def test_monte_carlo_jarzynski(self):
        prot = quench_protocol(beta=1.0)
        dist = tpm_distribution(prot)
        samples = tpm_sample(prot, 21, 1_000_000)
        est = jarzynski_estimate(samples.work, 1.0)
        target = math.exp(-1.0 * dist.delta_free_energy())
        assert abs(est.estimate - target) <= 4 * est.stderr
        assert est.mean_work >= dist.delta_free_energy()

    def test_monte_carlo_crooks_slope(self):
        prot = quench_protocol(beta=1.0)
        dist = tpm_distribution(prot)
        fwd = tpm_sample(prot, 31, 400_000)
        bwd = tpm_sample(backward_protocol(prot), 32, 400_000)
        values, _ = dist.work_distribution()
        edges = np.concatenate([values - 0.25, [values[-1] + 0.25]])
        rep = crooks_check(fwd.work, bwd.work, 1.0, dist.delta_free_energy(),
                           edges)
        assert abs(rep.slope - (-1.0)) <= 3 * rep.slope_stderr

    def test_monte_carlo_crooks_intercept(self):
        # the gap changes from 1 to 1.6, so beta DeltaF is not 0
        h1 = 0.8 * (math.cos(0.9) * SZ + math.sin(0.9) * SX)
        prot = TPMProtocol(((0.0, 0.5 * SZ), (0.0, h1)), 1.0, 0.7)
        dist = tpm_distribution(prot)
        fwd = tpm_sample(prot, 31, 400_000)
        bwd = tpm_sample(backward_protocol(prot), 32, 400_000)
        values, _ = dist.work_distribution()
        edges = np.concatenate([values - 0.25, [values[-1] + 0.25]])
        rep = crooks_check(fwd.work, bwd.work, 1.0, dist.delta_free_energy(),
                           edges)
        assert rep.intercept_expected == pytest.approx(-0.1706, abs=1e-4)
        assert abs(rep.slope - (-1.0)) <= 3 * rep.slope_stderr
        assert abs(rep.intercept - rep.intercept_expected) <= \
            3 * rep.intercept_stderr

    def test_dissipated_work_nonnegative(self):
        for angle in (0.2, 0.9, 1.4):
            prot = quench_protocol(angle=angle)
            samples = tpm_sample(prot, 17, 50_000)
            est = jarzynski_estimate(samples.work, 1.0)
            assert est.dissipated_work >= -1e-12


class TestUnravelStructure:
    def test_local_double_dot_rejected(self):
        p = DoubleDotParams(2.0, 0.08, {
            "L": ReservoirSpec(0.7, 0.9, "fermionic", 0.3),
            "R": ReservoirSpec(0.4, -0.2, "fermionic", 0.2)})
        gen, ledger = double_dot_generator(p)
        with pytest.raises(PopulationClosureError, match="fcs"):
            unravel(gen, ledger, np.full(4, 0.25), 1.0, 1, 10)

    def test_secular_double_dot_accepted(self):
        p = DoubleDotParams(2.0, 0.6, {
            "L": ReservoirSpec(0.8, 0.3, "fermionic", 0.02),
            "R": ReservoirSpec(0.5, 0.1, "fermionic", 0.03)}, mode="secular")
        gen, ledger = double_dot_generator(p)
        ens = unravel(gen, ledger, np.full(4, 0.25), 1.0, 1, 200)
        assert len(ens) == 200

    def test_fridge_with_interaction_rejected(self):
        p = FridgeParams(0.6, 1.4, 0.05, {
            "c": ReservoirSpec(0.4, 0.0, "bosonic", 0.02),
            "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
            "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)})
        gen, ledger = fridge_generator(p)
        with pytest.raises(PopulationClosureError):
            unravel(gen, ledger, np.full(8, 0.125), 1.0, 1, 10)

    def test_fridge_population_sector_accepted(self):
        p = FridgeParams(0.6, 1.4, 0.0, {
            "c": ReservoirSpec(0.4, 0.0, "bosonic", 0.02),
            "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
            "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)})
        gen, ledger = fridge_generator(p)
        ens = unravel(gen, ledger, np.full(8, 0.125), 1.0, 1, 100)
        assert len(ens) == 100

    def test_bad_population_vector_rejected(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        with pytest.raises(ValueError):
            unravel(gen, ledger, np.array([0.7, 0.7]), 1.0, 1, 10)


class TestUnravelPhysics:
    def test_seeded_determinism(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        p0 = np.array([0.5, 0.5])
        a = unravel(gen, ledger, p0, 2.0, 9, 500)
        b = unravel(gen, ledger, p0, 2.0, 9, 500)
        assert np.array_equal(a.initial, b.initial)
        assert np.array_equal(a.final, b.final)
        for x, y in zip(a.events, b.events):
            assert x.tobytes() == y.tobytes()
        assert np.array_equal(a.entropy_production, b.entropy_production)

    def test_equilibrium_ensemble(self):
        params = SingleDotParams(1.0, {"B": ReservoirSpec(0.6, 0.2,
                                                          "fermionic", 0.8)})
        gen, ledger = single_dot_generator(params)
        rho = steady_state(gen)
        ens = unravel(gen, ledger, np.real(np.diag(rho)), 3.0, 4, 40_000,
                      record_events=False)
        sigma = ens.entropy_production
        se = sigma.std(ddof=1) / math.sqrt(sigma.size)
        # at equilibrium every trajectory's Sigma cancels to rounding dust
        assert abs(sigma.mean()) < 5 * se + 1e-12
        rep = ft_estimators(ens)
        assert abs(rep.integral_estimate - 1.0) < 4 * rep.integral_stderr + 1e-12

    def test_mean_heat_matches_master_equation(self):
        # dot engine in the heat-engine regime: <Q_h>/tau equals the
        # steady heat current into the hot reservoir (positive into it)
        params = SingleDotParams(2.0, {
            "c": ReservoirSpec(0.3, 1.0, "fermionic", 1.0),
            "h": ReservoirSpec(0.8, 0.0, "fermionic", 1.0)})
        gen, ledger = single_dot_generator(params)
        rho = steady_state(gen)
        tau = 4.0
        ens = unravel(gen, ledger, np.real(np.diag(rho)), tau, 12, 60_000,
                      record_events=False)
        for tag in ("c", "h"):
            j = heat_current(gen, ledger, rho, tag)
            mean_q = ens.heat[tag].mean() / tau
            se = ens.heat[tag].std(ddof=1) / math.sqrt(len(ens)) / tau
            assert abs(mean_q - j) < 5 * se

    def test_high_bias_jump_count_matches_fcs_mean(self):
        kl, kr, tau = 1.3, 0.7, 5.0
        res = ReservoirSpec(1.0, 0.0, "fermionic", 0.0)
        gen = GKLSGenerator(0.0 * NUMBER, (
            JumpChannel(RAISE, kl, "L", 0.0, -1),
            JumpChannel(LOWER, kr, "R", 0.0, 1)))
        ledger = ThermoLedger(0.0 * NUMBER, NUMBER, {"L": res, "R": res})
        # stationary start: the count rate is then exactly the FCS mean
        p0 = np.array([kr, kl]) / (kl + kr)
        ens = unravel(gen, ledger, p0, tau, 3, 40_000)
        offsets, _, channels = ens.events
        to_right = np.bincount(jump_owners(offsets)[channels == 1],
                               minlength=len(ens))
        se = to_right.std(ddof=1) / math.sqrt(to_right.size)
        assert abs(to_right.mean() - kl * kr / (kl + kr) * tau) < 5 * se

    def test_ensemble_populations_match_propagate(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        p0 = np.array([0.9, 0.1])
        tau = 3.0
        n = 100_000
        checkpoints = np.linspace(0.3, tau, 10)
        ens = unravel(gen, ledger, p0, tau, 77, n)
        # each trajectory's state at a checkpoint: where its last jump up to
        # then led (channels 0 and 2 empty the dot), else its initial state
        offsets, times, channels = ens.events
        owners = jump_owners(offsets)
        after = np.where((channels == 0) | (channels == 2), 0, 1)
        pops = np.zeros((10, 2))
        for j, t_check in enumerate(checkpoints):
            seen = np.bincount(owners[times <= t_check], minlength=n)
            state = np.where(seen > 0, after[offsets[:-1] + seen - 1],
                             ens.initial)
            pops[j] = np.bincount(state, minlength=2)
        pops /= n
        for j, t_check in enumerate(checkpoints):
            rho_t = propagate(gen, np.diag(p0).astype(complex), t_check)
            expect = rho_t[1, 1].real
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(pops[j, 1] - expect) < 5 * max(se, 1e-5)

    def test_integral_ft_and_negative_fluctuations(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        rho = steady_state(gen)
        ens = unravel(gen, ledger, np.real(np.diag(rho)), 2.0, 15, 100_000,
                      record_events=False)
        rep = ft_estimators(ens)
        assert abs(rep.integral_estimate - 1.0) < 4 * rep.integral_stderr
        assert rep.negative_fraction > 0.0
        assert ens.entropy_production.mean() > 0

    def test_detailed_ft_slope(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        rho = steady_state(gen)
        fwd = unravel(gen, ledger, np.real(np.diag(rho)), 2.0, 15, 150_000,
                      record_events=False)
        bwd = backward_ensemble(gen, ledger, fwd, 16)
        rep = ft_estimators(fwd, bwd)
        assert rep.detailed_slope is not None
        assert abs(rep.detailed_slope - (-1.0)) <= 3 * rep.detailed_slope_stderr

    def test_detailed_ft_binned_fallback(self, monkeypatch):
        # FT_MAX_ATOMS = 0 forces equal-width bins; each bin of this lattice
        # of Sigma values holds one atom, so both paths fit the same points
        gen, ledger = single_dot_generator(biased_dot_params())
        rho = steady_state(gen)
        fwd = unravel(gen, ledger, np.real(np.diag(rho)), 2.0, 15, 150_000,
                      record_events=False)
        bwd = backward_ensemble(gen, ledger, fwd, 16)
        atoms = ft_estimators(fwd, bwd)
        monkeypatch.setattr(trajectories, "FT_MAX_ATOMS", 0)
        binned = ft_estimators(fwd, bwd)
        assert binned.detailed_slope is not None
        assert binned.detailed_slope == pytest.approx(atoms.detailed_slope,
                                                      abs=1e-9)
        assert abs(binned.detailed_slope - (-1.0)) <= \
            4 * binned.detailed_slope_stderr

    def test_detailed_ft_inconclusive_without_negative_tail(self,
                                                            monkeypatch):
        # long times suppress negative entropy production exponentially
        gen, ledger = single_dot_generator(biased_dot_params(bias=3.0))
        rho = steady_state(gen)
        fwd = unravel(gen, ledger, np.real(np.diag(rho)), 60.0, 5, 2000,
                      record_events=False)
        bwd = backward_ensemble(gen, ledger, fwd, 6)
        monkeypatch.setattr(trajectories, "FT_MIN_COUNT", 2000)
        rep = ft_estimators(fwd, bwd)
        assert rep.detailed_slope is None

    def test_negative_tail_shrinks_with_time(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        rho = steady_state(gen)
        p0 = np.real(np.diag(rho))
        fracs = []
        for tau in (1.0, 4.0, 16.0):
            ens = unravel(gen, ledger, p0, tau, 100, 20_000,
                          record_events=False)
            fracs.append(ft_estimators(ens).negative_fraction)
        assert fracs[0] > fracs[1] > fracs[2]


def secular_double_dot():
    return double_dot_generator(DoubleDotParams(2.0, 0.6, {
        "L": ReservoirSpec(0.8, 0.3, "fermionic", 0.02),
        "R": ReservoirSpec(0.5, 0.1, "fermionic", 0.03)}, mode="secular"))


def fridge_population_sector():
    return fridge_generator(FridgeParams(0.6, 1.4, 0.0, {
        "c": ReservoirSpec(0.4, 0.0, "bosonic", 0.02),
        "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
        "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)}))


def decaying_dot():
    # one lowering channel only: the empty state is absorbing
    res = ReservoirSpec(1.0, 0.0, "fermionic", 0.0)
    gen = GKLSGenerator(0.0 * NUMBER, (JumpChannel(LOWER, 0.7, "R", 0.0, 1),))
    return gen, ThermoLedger(0.0 * NUMBER, NUMBER, {"R": res})


# (model, p0, tau, seed, n_traj, record_events). At tau = 40 the single
# dot makes up to ~50 jumps, past the refill after draw 62; at tau = 150
# it passes several refills.
GOLDEN_CASES = {
    "single_dot_tau2": (lambda: single_dot_generator(biased_dot_params()),
                        [0.3, 0.7], 2.0, 42, 10_000, False),
    "single_dot_tau40": (lambda: single_dot_generator(biased_dot_params()),
                         [0.5, 0.5], 40.0, 7, 2000, True),
    "single_dot_tau150": (lambda: single_dot_generator(biased_dot_params()),
                          [0.9, 0.1], 150.0, 2**64 - 2, 300, True),
    "secular_double_dot": (secular_double_dot, [0.4, 0.3, 0.2, 0.1], 600.0,
                           3, 2000, True),
    "fridge_population_sector": (fridge_population_sector, [0.125] * 8,
                                 400.0, 11, 2000, False),
    "decaying_dot": (decaying_dot, [0.3, 0.7], 5.0, 5, 1000, True),
}


def jump_owners(offsets):
    """The trajectory index of each jump of the event columns."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def event_lists(ens):
    """Per trajectory, the tuple of its (t, k) jumps, from the columns."""
    offsets, times, channels = (a.tolist() for a in ens.events)
    return [tuple(zip(times[a:b], channels[a:b]))
            for a, b in zip(offsets[:-1], offsets[1:])]


def ensemble_digests(ens):
    """SHA-256 of every per-trajectory array as raw bytes, and of events:
    per trajectory its jump count (int64), times and channels."""
    fields = {"initial": ens.initial, "final": ens.final,
              "entropy_production": ens.entropy_production}
    for tag in sorted(ens.heat):
        fields[f"heat[{tag}]"] = ens.heat[tag]
        fields[f"work[{tag}]"] = ens.work[tag]
    out = {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes())
           .hexdigest() for name, arr in fields.items()}
    if ens.events is not None:
        offsets, times, channels = ens.events
        h = hashlib.sha256()
        for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            h.update(np.int64(b - a).tobytes())
            h.update(times[a:b].tobytes())
            h.update(channels[a:b].tobytes())
        out["events"] = h.hexdigest()
    return out


def golden_ensemble(name):
    model, p0, tau, seed, n_traj, record = GOLDEN_CASES[name]
    gen, ledger = model()
    return unravel(gen, ledger, np.array(p0), tau, seed, n_traj,
                   record_events=record)


# Frozen from the per-trajectory scalar Gillespie loop. Any change to the
# sampler must reproduce these ensembles bit for bit. The entropy
# production also depends on the expm of the rate matrix for p(tau).
GOLDEN_DIGESTS = {
    "decaying_dot": {
        "initial":
            "4c11363b3de43b7775fb45bbf7e03bae22d96c9f55f1373e75ae25d7ec54f6c5",
        "final":
            "301774eff8191e5fe1504ba24330da12644a5c884dec1001b89d3e87ff371a54",
        "entropy_production":
            "0662dba33786c77b74586784ca89283bf1c9b6e6e4edf867583f89daf0d740e3",
        "heat[R]":
            "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b",
        "work[R]":
            "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b",
        "events":
            "c1f28a445173b7029d1b306e672b36185ebb98e42bbdb5ae466c2eefb00d4f05",
    },
    "fridge_population_sector": {
        "initial":
            "fb2b8ccc9a981f76586f19ad868fa237518a7db835ff735d780fc4fc66669c39",
        "final":
            "9ae2a4e799187cbce3394147792fe893ca1cb0b0a0d356a19688e5808149367d",
        "entropy_production":
            "0f551648a0a1bf57ad278b59f4fc5362a398690bc7b8780c1d9d1606ea9d18fc",
        "heat[c]":
            "4b83189e5246aa72f5f1ba1ad460b7ab1dccb125907832b67eaf5f0d2d1a1247",
        "work[c]":
            "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
        "heat[h]":
            "2d9c0b134709d189fbbfa58dbc21348d10a78b5f6c2e0c0d9affc6fbb856aefe",
        "work[h]":
            "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
        "heat[r]":
            "536e3149a30088dfd12f141a7b95394e8b088e6d76807630190695813c4ec0aa",
        "work[r]":
            "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    },
    "secular_double_dot": {
        "initial":
            "5d3e8d8a960442b9b62036dd896fff74d2d4a52e770dea2e97434a4fc391177b",
        "final":
            "3518f571b1955c731e0536a394cd85efd7ee2273630180f49fe26f94ec9674ff",
        "entropy_production":
            "5344632a6ce5d11edc0739a21dda935839be86a4000c02028bfe63e016490520",
        "heat[L]":
            "85e871f234be39fe1192977d74b4656a862798bd8241e52155e0ef7609496201",
        "work[L]":
            "a22741131a233560a5d74e575f806ed662793f90eb7657ce503dfbdc5d7bb1ae",
        "heat[R]":
            "0bfeba0c6a314e922b64b8a8ed5e32799584f978adf7fda8def53dbbb3cc1e2e",
        "work[R]":
            "5efc86df3b4dd0badaf02a56789552dae0a8848a2a80d9ea008c8064e45d6307",
        "events":
            "277658fac2dda6ea29fd22d96eac600464143c67aba014581a52954bd90aad7d",
    },
    "single_dot_tau150": {
        "initial":
            "86838949ec765053fb34ad3225f6945438a194cb451a8035cd5aa5280fef2663",
        "final":
            "2c6d5e8d237b49b7cad65c0130519ef19a9dcbccc3e842f06fa79c96601b18dd",
        "entropy_production":
            "fbe472aa472be77a2f68b3add750d24558dae055bd4b6350af98b11b45bd7679",
        "heat[L]":
            "4397fba5bcc9096311237872a4778e0f8339e401cad7a8edbf608139cd89f15e",
        "work[L]":
            "f303b8811c6b707c913d4fe71bdd2bd9320ce255b81f5372b60aa47f3629bc75",
        "heat[R]":
            "d6d2c36b56536a3cb1e76e75c5a1c794758d47ac847f0edbaac6065830773bf8",
        "work[R]":
            "41e70da1a74b44a097b4c706e833e195ef8b18042aa4bf91bbdcb9dc0c3e1bdf",
        "events":
            "6cc06a8464e7d3b32025b9701199b8e01a482131b0022a2103482d9e2fcd4102",
    },
    "single_dot_tau2": {
        "initial":
            "61be4a6fc34a04996a54d1d177a4c634c635c02a4cdcba8f9a1813cd4016fddd",
        "final":
            "138f90248b20684ff8c9f4712a76e433a3a68a3fe7f24925da886af3d5a308f1",
        "entropy_production":
            "b23b923b9ae6a4dde9c72ae69f086cf33bb7fa775860f6dbe776086c607dc9f4",
        "heat[L]":
            "fb80943dc0598dc8e3abbe6287889fcfa4a6395a1275bd69aeac3446732b16ed",
        "work[L]":
            "544ead849e239d6750961820491867269858ed7f3e4da193e3be93d4f4f7fe70",
        "heat[R]":
            "4a5dbd567ba496d2fdad8c8479ae527a4a940f714c5be1e5c0526a8c2e9d4ac3",
        "work[R]":
            "b9d0ea12c62a900d12d50e30885979eb4611249e83174c568b7dfbe598e4f67f",
    },
    "single_dot_tau40": {
        "initial":
            "3edf0b3069ab69eab3960b4f5e0fe634e170982fb66ce1697a9a75dc55732c10",
        "final":
            "65c32d7f6e2b39064ed023521c68c2b0600d76e3c184e7ca9d62d16fbfd247a2",
        "entropy_production":
            "297c9336b3773d46307c720ed833f96b978c00de63c94006041b57ee8a3943b3",
        "heat[L]":
            "0c1d90aa0957c1a03aa808a1007922cadda71dc56e1e23914919793c6e549bec",
        "work[L]":
            "f1774e259c99090c36900750735e36506e552584805d69b66b2127a7a1b9558d",
        "heat[R]":
            "c6f5edcb313db2aaf5e5a981093caceb8d87d0fa48b6586ab8a258227412e496",
        "work[R]":
            "a3b37676fa884f92caa3bf7844236ccaa9abbc38b09ad586e999e33fff02b609",
        "events":
            "d42e21e59dc7a072e06df4519f2dce9cf32fe769d12268c04bca854338880dce",
    },
}


class TestUnravelGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_digests(self, name):
        ens = golden_ensemble(name)
        assert ensemble_digests(ens) == GOLDEN_DIGESTS[name]
        assert ens.initial.dtype == ens.final.dtype == np.int64
        if ens.events is not None:
            offsets, times, channels = ens.events
            assert offsets.dtype == channels.dtype == np.int64
            assert times.dtype == np.float64
            assert offsets.shape == (len(ens) + 1,)
            assert times.shape == channels.shape == (offsets[-1],)
            assert offsets[0] == 0 and np.all(np.diff(offsets) >= 0)

    def test_no_jumps_gives_empty_columns(self):
        # at tau = 0 every trajectory ends before its first jump
        gen, ledger = single_dot_generator(biased_dot_params())
        ens = unravel(gen, ledger, np.array([0.5, 0.5]), 0.0, 3, 50)
        offsets, times, channels = ens.events
        assert offsets.tobytes() == np.zeros(51, dtype=np.int64).tobytes()
        assert times.dtype == np.float64 and channels.dtype == np.int64
        assert times.shape == channels.shape == (0,)

    def test_chunking_does_not_change_ensemble(self, monkeypatch):
        gen, ledger = single_dot_generator(biased_dot_params())
        p0 = np.array([0.5, 0.5])
        whole = unravel(gen, ledger, p0, 5.0, 21, 1000)
        monkeypatch.setattr(trajectories, "_CHUNK", 37)  # 28 chunks
        chunked = unravel(gen, ledger, p0, 5.0, 21, 1000)
        assert ensemble_digests(chunked) == ensemble_digests(whole)

    @pytest.mark.parametrize("name, chunk", [("decaying_dot", 7),
                                             ("single_dot_tau150", 64)])
    def test_golden_digests_in_small_slices(self, name, chunk, monkeypatch):
        # many slices share each block; single_dot_tau150 also runs past
        # the refill after draw 62
        monkeypatch.setattr(trajectories, "_CHUNK", chunk)
        assert ensemble_digests(golden_ensemble(name)) == GOLDEN_DIGESTS[name]

    def test_prefix_is_independent_of_ensemble_size(self):
        # trajectory i depends only on (seed, i)
        gen, ledger = single_dot_generator(biased_dot_params())
        p0 = np.array([0.5, 0.5])
        big = unravel(gen, ledger, p0, 3.0, 8, 20_000)
        small = unravel(gen, ledger, p0, 3.0, 8, 777)
        for field in ("initial", "final", "entropy_production"):
            assert np.array_equal(getattr(big, field)[:777],
                                  getattr(small, field))
        for tag in big.heat:
            assert np.array_equal(big.heat[tag][:777], small.heat[tag])
            assert np.array_equal(big.work[tag][:777], small.work[tag])
        offsets, times, channels = small.events
        assert np.array_equal(big.events[0][:778], offsets)
        assert big.events[1][:offsets[-1]].tobytes() == times.tobytes()
        assert np.array_equal(big.events[2][:offsets[-1]], channels)


def traced_unravel(record_events):
    """The trajectories_ft ensemble, and the tracemalloc peak of ``unravel``
    beyond its outputs other than the event columns."""
    gen, ledger = single_dot_generator(biased_dot_params())
    p0 = np.real(np.diag(steady_state(gen)))
    # a tiny run first, so that the modules unravel imports on first use
    # are not counted as its working memory
    unravel(gen, ledger, p0, 2.0, 42, 2, record_events=record_events)
    tracemalloc.start()
    try:
        ens = unravel(gen, ledger, p0, 2.0, 42, 100_000,
                      record_events=record_events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (
        ens.initial, ens.final, ens.entropy_change,
        ens.entropy_production, *ens.heat.values(), *ens.work.values()))
    return ens, peak - held


def test_unravel_working_memory_is_bounded():
    # besides its outputs, unravel holds only the survivors of a block and
    # one slice's working arrays
    ens, extra = traced_unravel(False)
    assert extra <= 40 * len(ens)


def test_recorded_events_memory_is_bounded():
    # the columns take 8 B per trajectory and 16 B per jump; building them
    # adds the per-move arrays and one sort order (135136 jumps here)
    ens, extra = traced_unravel(True)
    assert extra <= 40 * len(ens) + 64 * ens.events[1].size


def reference_jump_tables(gen, ledger):
    """Per state j, the moves out of j in channel order as lists: the
    cumulative rates, target states and channels; and per channel, its
    (reservoir index, heat, work) quanta. Built by a plain loop over the
    states and channels, independently of ``trajectories._jump_tables``.

    A channel moves j to the state i where its operator's column j, in the
    H_TD eigenbasis, is largest, at rate gamma |<i|L|j>|^2, when that
    entry exceeds TOL_JUMP_SUPPORT times the operator's largest entry and
    the rate is positive.
    """
    h_td = ledger.h_td
    if np.count_nonzero(h_td - np.diag(np.diag(h_td))):
        basis = np.linalg.eigh(h_td)[1]
    else:
        basis = np.eye(h_td.shape[0])
    mags = [np.abs(basis.conj().T @ ch.operator @ basis)
            for ch in gen.channels]
    cum, targets, channels = [], [], []
    for j in range(h_td.shape[0]):
        total, row = 0.0, ([], [], [])
        for k, ch in enumerate(gen.channels):
            i = int(np.argmax(mags[k][:, j]))
            rate = ch.rate * mags[k][i, j] ** 2
            support = trajectories.TOL_JUMP_SUPPORT * mags[k].max()
            if mags[k][i, j] > support and rate > 0:
                total += rate
                for column, value in zip(row, (total, i, k)):
                    column.append(value)
        for table, column in zip((cum, targets, channels), row):
            table.append(column)
    reservoirs = gen.reservoirs()
    quanta = []
    for ch in gen.channels:
        mu = ledger.reservoirs[ch.reservoir].chemical_potential
        quanta.append((reservoirs.index(ch.reservoir),
                       float(ch.energy_quantum - mu * ch.particle_quantum),
                       float(mu * ch.particle_quantum)))
    return cum, targets, channels, quanta


def scalar_unravel(gen, ledger, p0, tau, seed, n_traj):
    """Reference sampler: one trajectory at a time, each on a fresh
    np.random.Philox at counter [0, 0, 0, i], drawing in batches of 64,
    on the tables of :func:`reference_jump_tables`.

    Returns (initial, final, heat, work, events) with heat and work as
    (reservoir, trajectory) arrays in ``gen.reservoirs()`` order.
    """
    cum, targets, channels, quanta = reference_jump_tables(gen, ledger)
    n_res = len(gen.reservoirs())
    cum_p0 = np.cumsum(p0 / p0.sum()).tolist()
    key = np.array([seed, 0], dtype=np.uint64)
    out = ([], [], np.zeros((n_res, n_traj)), np.zeros((n_res, n_traj)), [])
    for i in range(n_traj):
        rng = np.random.Generator(np.random.Philox(
            key=key, counter=np.array([0, 0, 0, i], dtype=np.uint64)))
        draws, pos = rng.random(64).tolist(), 1
        state = min(bisect_right(cum_p0, draws[0]), len(p0) - 1)
        out[0].append(state)
        t, ev = 0.0, []
        while cum[state]:
            total = cum[state][-1]
            if pos + 2 > 64:
                draws, pos = rng.random(64).tolist(), 0
            u1, u2 = draws[pos], draws[pos + 1]
            pos += 2
            dt = -math.log(1.0 - u1) / total
            if t + dt > tau:
                break
            t += dt
            local = min(bisect_right(cum[state], u2 * total),
                        len(cum[state]) - 1)
            k = channels[state][local]
            r, dq, dw = quanta[k]
            out[2][r, i] += dq
            out[3][r, i] += dw
            state = targets[state][local]
            ev.append((t, k))
        out[1].append(state)
        out[4].append(tuple(ev))
    return out


class TestUnravelMatchesScalarReference:
    @pytest.mark.parametrize("name", ["single_dot_tau150",
                                      "secular_double_dot",
                                      "fridge_population_sector",
                                      "decaying_dot"])
    @pytest.mark.parametrize("seed", [0, 123456789, 2**63 + 1])
    def test_bit_identical(self, name, seed):
        model, p0, tau, _, _, _ = GOLDEN_CASES[name]
        gen, ledger = model()
        p0 = np.array(p0)
        ens = unravel(gen, ledger, p0, tau, seed, 300)
        initial, final, heat, work, events = scalar_unravel(
            gen, ledger, p0, tau, seed, 300)
        assert np.array_equal(ens.initial, initial)
        assert np.array_equal(ens.final, final)
        for r, tag in enumerate(gen.reservoirs()):
            assert np.array_equal(ens.heat[tag], heat[r])
            assert np.array_equal(ens.work[tag], work[r])
        assert event_lists(ens) == events


def closed_generator(dim, n_res, seed, absorbing):
    """(generator, ledger) of a random population-closed jump process.

    H = H_TD is diagonal with levels on a coarse grid. Each reservoir
    drives a random set of level pairs with |i><j| and |j><i| at rates in
    the local-detailed-balance ratio; the first one links state 0 to every
    other state, so row 0 of the jump tables has at least d - 1 moves and
    shorter rows are padded. About one pair in five has both rates zero.
    With ``absorbing``, every channel out of the last state has rate zero.
    """
    rng = np.random.default_rng(seed)
    energies = 0.5 * rng.integers(0, 4, dim)
    numbers = rng.integers(0, 3, dim)
    reservoirs, channels = {}, []
    for r in range(n_res):
        tag = f"r{r}"
        res = ReservoirSpec(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                            "fermionic", rng.uniform(0.5, 2.0))
        reservoirs[tag] = res
        pairs = {(i, j) for i in range(dim) for j in range(i + 1, dim)
                 if rng.random() < 0.5}
        if r == 0:
            pairs |= {(0, j) for j in range(1, dim)}
        for i, j in sorted(pairs):
            omega = float(energies[j] - energies[i])
            n = int(numbers[j] - numbers[i])
            x = (omega - res.chemical_potential * n) / res.temperature
            scale = 0.0 if rng.random() < 0.2 else res.coupling
            lower = np.zeros((dim, dim))
            lower[i, j] = 1.0  # j -> i
            for op, source, rate, w, m in (
                    (lower, j, scale / (1 + math.exp(-x)), omega, n),
                    (lower.T, i, scale / (1 + math.exp(x)), -omega, -n)):
                if absorbing and source == dim - 1:
                    rate = 0.0
                channels.append(JumpChannel(op, rate, tag, w, m))
    h = np.diag(energies).astype(complex)
    gen = GKLSGenerator(h, tuple(channels))
    return gen, ThermoLedger(h, np.diag(numbers), reservoirs)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5), n_res=st.integers(1, 3),
       model_seed=st.integers(0, 2**32 - 1), absorbing=st.booleans(),
       tau=st.floats(0.5, 60.0), seed=st.integers(0, 2**64 - 1),
       n_traj=st.integers(1, 30), chunk=st.integers(1, 16))
def test_unravel_matches_scalar_reference_on_random_generators(
        dim, n_res, model_seed, absorbing, tau, seed, n_traj, chunk):
    gen, ledger = closed_generator(dim, n_res, model_seed, absorbing)
    p0 = np.random.default_rng(model_seed).dirichlet(np.ones(dim))
    with mock.patch.object(trajectories, "_CHUNK", chunk), \
            np.errstate(divide="ignore"):  # p(tau) may vanish: Sigma = inf
        ens = unravel(gen, ledger, p0, tau, seed, n_traj)
    initial, final, heat, work, events = scalar_unravel(
        gen, ledger, p0, tau, seed, n_traj)
    assert ens.initial.tobytes() == np.array(initial).tobytes()
    assert ens.final.tobytes() == np.array(final).tobytes()
    for r, tag in enumerate(gen.reservoirs()):
        assert ens.heat[tag].tobytes() == heat[r].tobytes()
        assert ens.work[tag].tobytes() == work[r].tobytes()
    assert event_lists(ens) == events


def test_waiting_time_log_is_libm_log():
    """The waiting times take the C library's log, the one math.log calls,
    through scipy.special.xlogy(1, .); np.log's own kernel differs from it
    in the last bit for some arguments. The arguments have the stream's
    form 1 - (x >> 11) 2**-53 for uint64 words x, plus its extremes."""
    words = np.random.Philox(2024).random_raw(2**20)
    args = np.concatenate([1.0 - (words >> np.uint64(11)) * 2.0**-53,
                           [1.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]])
    expected = np.array([math.log(a) for a in args.tolist()])
    got = trajectories._libm_log(args)
    bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert bad.size == 0, (
        f"scipy.special.xlogy(1, .) differs from math.log (the C library's "
        f"log) on {bad.size} of {args.size} arguments, first at "
        f"{args[bad[0]]!r}; the ensembles would no longer be reproducible")


def test_stream_roles_match_the_jump_layout():
    """Position 0 draws the initial state; jump j reads its (waiting time,
    channel) pair from the positions below, in batches of 64 with draw 63
    skipped. Every other position is unused."""
    def jump_draws(j):
        if j < 31:
            return 1 + 2 * j, 2 + 2 * j
        j -= 31
        first = 64 * (1 + j // 32) + 2 * (j % 32)
        return first, first + 1

    expected = {0: "init"}
    for j in range(200):
        first, second = jump_draws(j)
        expected[first], expected[second] = "wait", "move"
    for position in range(321):
        assert (trajectories._role(position)
                == expected.get(position, "unused")), position


class TestPhilox:
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 2])
    @pytest.mark.parametrize("block, index", [
        (1, 0), (17, 5), (3, 2**63 + 5), (2**40, 2**64 - 1)])
    def test_matches_numpy_philox(self, seed, block, index):
        counters = [tuple(np.full(3, c, dtype=np.uint64)
                          for c in (block, 0, 0, index)),
                    (np.uint64(block), np.uint64(0), np.uint64(0),
                     np.full(3, index, dtype=np.uint64))]
        words = [np.array(trajectories._philox4x64(c, (seed, 0)))
                 for c in counters]
        bitgen = np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64),
            counter=np.array([block - 1, 0, 0, index], dtype=np.uint64))
        expected = bitgen.random_raw(4)  # the block after the counter
        for w in words:
            assert np.array_equal(w, np.repeat(expected[:, None], 3, axis=1))


class TestSeedsAndSizes:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_unravel_rejects_seed_out_of_range(self, seed):
        gen, ledger = single_dot_generator(biased_dot_params())
        with pytest.raises(ValueError, match="seed"):
            unravel(gen, ledger, np.array([0.5, 0.5]), 1.0, seed, 10)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_tpm_sample_rejects_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            tpm_sample(quench_protocol(), seed, 10)

    def test_tpm_sample_large_seeds_are_distinct(self):
        # keys above 2**63 are kept exactly, not collapsed by a cast
        prot = quench_protocol()
        finals = [tpm_sample(prot, seed, 200).final
                  for seed in (0, 2**63 + 5, 2**63 + 6, 2**64 - 2)]
        for a in range(len(finals)):
            for b in range(a):
                assert not np.array_equal(finals[a], finals[b])

    def test_unravel_top_seed(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        ens = unravel(gen, ledger, np.array([0.5, 0.5]), 1.0, 2**64 - 1, 10)
        assert len(ens) == 10

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_unravel_rejects_empty_ensemble(self, n_traj):
        gen, ledger = single_dot_generator(biased_dot_params())
        with pytest.raises(ValueError, match="n_traj"):
            unravel(gen, ledger, np.array([0.5, 0.5]), 1.0, 1, n_traj)

    def test_jarzynski_estimate_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="work sample"):
            jarzynski_estimate([], 1.0)
        assert jarzynski_estimate([0.0], 1.0).estimate == 1.0

    def test_ft_estimators_need_two_trajectories(self):
        gen, ledger = single_dot_generator(biased_dot_params())
        p0 = np.array([0.5, 0.5])
        one = unravel(gen, ledger, p0, 1.0, 1, 1, record_events=False)
        many = unravel(gen, ledger, p0, 1.0, 2, 50, record_events=False)
        with pytest.raises(ValueError, match="2 trajectories"):
            ft_estimators(one)
        with pytest.raises(ValueError, match="2 trajectories"):
            ft_estimators(many, one)
        assert math.isfinite(ft_estimators(many).integral_stderr)


class TestSamplingInputsRejected:
    """Inputs that would hang the sampler or poison its output raise a
    ValueError naming the argument before any sampling starts. The slice
    sampler is replaced by one that fails, so a lost check fails the test
    instead of looping forever."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.setattr(trajectories, "_unravel_slice", refuse)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_unravel_rejects_bad_tau(self, tau):
        gen, ledger = single_dot_generator(biased_dot_params())
        with pytest.raises(ValueError, match="tau"):
            unravel(gen, ledger, np.array([0.5, 0.5]), tau, 1, 10)

    @pytest.mark.parametrize("p0", [[math.nan, 1.0], [math.inf, 0.0]])
    def test_unravel_rejects_non_finite_population(self, p0):
        gen, ledger = single_dot_generator(biased_dot_params())
        with pytest.raises(ValueError, match="p0"):
            unravel(gen, ledger, np.array(p0), 1.0, 1, 10)

    @pytest.mark.parametrize("name", ["seed", "n_traj"])
    @pytest.mark.parametrize("value", [10.0, "10"])
    def test_unravel_rejects_non_integer(self, name, value):
        gen, ledger = single_dot_generator(biased_dot_params())
        args = {"seed": 1, "n_traj": 10, name: value}
        with pytest.raises(ValueError, match=name):
            unravel(gen, ledger, np.array([0.5, 0.5]), 1.0, **args)

    @pytest.mark.parametrize("beta, tau, name", [
        (math.nan, 1.0, "beta"), (math.inf, 1.0, "beta"),
        (1.0, math.nan, "tau"), (1.0, math.inf, "tau")])
    def test_tpm_protocol_rejects_non_finite(self, beta, tau, name):
        with pytest.raises(ValueError, match=name):
            TPMProtocol(((0.0, 0.5 * SZ),), beta, tau)

    # counts beyond np.intp must not reach numpy's sampler (OverflowError)
    @pytest.mark.parametrize("n_samples", [-5, 10.0, "10", 2**63, 2**70])
    def test_tpm_sample_rejects_bad_count(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            tpm_sample(quench_protocol(), 1, n_samples)
