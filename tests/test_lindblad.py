import math

import numpy as np
import pytest

from qthermo import lindblad, qcore
from qthermo.lindblad import (GKLSGenerator, JumpChannel, LedgerError,
                              MultistabilityError, ThermoLedger,
                              all_currents, build_liouvillian,
                              entropy_production_rate, entropy_rate,
                              generator_apply, heat_current,
                              local_detailed_balance_check, power, propagate,
                              steady_state, validate_ledger)
from qthermo.models.common import LOWER, NUMBER, RAISE
from qthermo.qcore import (dagger, dissipator_apply, trace_vector,
                           unvectorize, vectorize)
from qthermo.thermo import ReservoirSpec, fermi_dirac, gibbs_state


def single_dot(eps=1.0, kappa=0.4, temperature=0.7, mu=0.2):
    res = ReservoirSpec(temperature, mu, "fermionic", kappa)
    nf = fermi_dirac(eps, res)
    gen = GKLSGenerator(eps * NUMBER, (
        JumpChannel(LOWER, kappa * (1 - nf), "B", eps, 1),
        JumpChannel(RAISE, kappa * nf, "B", -eps, -1)))
    ledger = ThermoLedger(eps * NUMBER, NUMBER, {"B": res})
    return gen, ledger, res, nf


def engine(eps=1.4):
    """Dot between a cold and a hot fermionic reservoir."""
    res_c = ReservoirSpec(0.35, 0.6, "fermionic", 0.3)
    res_h = ReservoirSpec(1.0, 0.0, "fermionic", 0.7)
    nfc, nfh = fermi_dirac(eps, res_c), fermi_dirac(eps, res_h)
    gen = GKLSGenerator(eps * NUMBER, (
        JumpChannel(LOWER, 0.3 * (1 - nfc), "c", eps, 1),
        JumpChannel(RAISE, 0.3 * nfc, "c", -eps, -1),
        JumpChannel(LOWER, 0.7 * (1 - nfh), "h", eps, 1),
        JumpChannel(RAISE, 0.7 * nfh, "h", -eps, -1)))
    ledger = ThermoLedger(eps * NUMBER, NUMBER, {"c": res_c, "h": res_h})
    return gen, ledger, nfc, nfh


def random_generator(rng, dim=3, n_channels=2):
    h = qcore.random_hermitian(dim, rng)
    channels = tuple(
        JumpChannel(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
                    rng.uniform(0.05, 0.5), "B")
        for _ in range(n_channels))
    return GKLSGenerator(h, channels)


class TestTypes:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            JumpChannel(LOWER, -0.1, "B")

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            JumpChannel(LOWER, rate, "B")

    @pytest.mark.parametrize("omega", [
        math.nan, math.inf, -math.inf, np.array([1.0, math.nan])])
    def test_non_finite_energy_quantum_rejected(self, omega):
        with pytest.raises(ValueError, match="energy quantum must be finite"):
            JumpChannel(LOWER, 0.1, "B", omega, 1)

    def test_nonhermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            GKLSGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]), ())

    def test_ledger_requires_commuting_operators(self):
        h = np.array([[0.0, 0.3], [0.3, 1.0]])
        with pytest.raises(LedgerError):
            ThermoLedger(h, np.diag([0.0, 1.0]), {})

    def test_ladder_identity_enforced(self):
        gen, ledger, _, _ = single_dot()
        bad = GKLSGenerator(gen.hamiltonian, (
            JumpChannel(LOWER, 0.1, "B", energy_quantum=0.5,
                        particle_quantum=1),))
        with pytest.raises(LedgerError):
            validate_ledger(bad, ledger)

    def test_untagged_channel_rejected(self):
        gen, _, res, _ = single_dot()
        ledger = ThermoLedger(gen.hamiltonian, NUMBER, {"other": res})
        rho = np.diag([0.6, 0.4]).astype(complex)
        with pytest.raises(LedgerError):
            heat_current(gen, ledger, rho, "B")


class TestDissipator:
    def test_decay_channel_on_excited_state(self):
        # oracle: direct 2x2 arithmetic, d|1><1|d† - {n,|1><1|}/2
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = dissipator_apply(LOWER, excited)
        assert np.max(np.abs(out - np.diag([1.0, -1.0]))) < 1e-14

    def test_traceless(self, rng):
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = qcore.random_density_matrix(3, rng)
        assert abs(np.trace(dissipator_apply(op, rho))) < 1e-12

    def test_hermiticity_preserving(self, rng):
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = qcore.random_hermitian(3, rng)
        out = dissipator_apply(op, rho)
        assert np.max(np.abs(out - dagger(out))) < 1e-12


class TestLiouvillian:
    def test_matches_direct_action(self, rng):
        gen = random_generator(rng)
        rho = qcore.random_density_matrix(3, rng)
        via = unvectorize(build_liouvillian(gen) @ vectorize(rho))
        direct = generator_apply(gen, rho)
        assert np.max(np.abs(via - direct)) < 1e-10

    def test_pure_commutator_spectrum_imaginary(self):
        gen = GKLSGenerator(np.diag([0.0, 0.7, 1.9]), ())
        vals = np.linalg.eigvals(build_liouvillian(gen))
        assert np.max(np.abs(vals.real)) < 1e-12

    def test_single_dot_relaxation_eigenvalue(self):
        gen, _, res, _ = single_dot(kappa=0.4)
        vals = np.linalg.eigvals(build_liouvillian(gen))
        assert np.min(np.abs(vals - (-0.4))) < 1e-10

    def test_left_trace_vector_is_null(self, rng):
        gen = random_generator(rng)
        resid = trace_vector(gen.dim) @ build_liouvillian(gen)
        assert np.max(np.abs(resid)) < 1e-12

    def test_assembled_once_and_read_only(self, rng):
        gen = random_generator(rng)
        liou = build_liouvillian(gen)
        assert build_liouvillian(gen) is liou
        assert not liou.flags.writeable
        with pytest.raises(ValueError):
            liou[0, 0] = 1.0
        with pytest.raises(ValueError):
            liou *= 2.0
        steady_state(gen)
        propagate(gen, qcore.random_density_matrix(3, rng), 0.5)
        assert build_liouvillian(gen) is liou


class TestPropagate:
    def test_zero_time_identity(self, rng):
        gen = random_generator(rng)
        rho = qcore.random_density_matrix(3, rng)
        assert np.array_equal(propagate(gen, rho, 0.0), rho)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_time_rejected(self, rng, t):
        gen = random_generator(rng)
        with pytest.raises(ValueError, match="time t must be finite"):
            propagate(gen, qcore.random_density_matrix(3, rng), t)
        with pytest.raises(ValueError, match="time t must be finite"):
            qcore.expm_dense(build_liouvillian(gen), t)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_times_array_equals_scalar_calls(self, rng, dim):
        gen = random_generator(rng, dim=dim, n_channels=3)
        rho = qcore.random_density_matrix(dim, rng)
        times = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 20)])
        stacked = propagate(gen, rho, times)
        scalar = np.stack([propagate(gen, rho, t) for t in times])
        assert stacked.shape == scalar.shape and stacked.dtype == scalar.dtype
        assert stacked.tobytes() == scalar.tobytes()
        assert np.array_equal(stacked[0], rho)

    def test_times_run_in_chunks(self, rng, monkeypatch):
        gen = random_generator(rng)
        rho = qcore.random_density_matrix(3, rng)
        times = rng.uniform(0.0, 3.0, 7)
        whole = propagate(gen, rho, times)
        calls = []
        expm = lindblad.expm_dense
        monkeypatch.setattr(lindblad, "expm_dense",
                            lambda m, t: calls.append(len(t)) or expm(m, t))
        # room for two 9 x 9 propagators per chunk
        monkeypatch.setattr(lindblad, "BATCH_BYTES", 2 * 16 * 3 ** 4)
        assert propagate(gen, rho, times).tobytes() == whole.tobytes()
        assert calls == [2, 2, 2, 1]

    def test_times_array_shapes(self, rng):
        gen = random_generator(rng)
        rho = qcore.random_density_matrix(3, rng)
        assert propagate(gen, rho, []).shape == (0, 3, 3)
        with pytest.raises(ValueError, match="1-D array"):
            propagate(gen, rho, np.ones((2, 2)))
        with pytest.raises(ValueError, match="time t must be finite.*nan"):
            propagate(gen, rho, [0.5, math.nan])

    def test_single_dot_closed_form(self):
        gen, _, res, nf = single_dot(kappa=0.4)
        p1_0 = 0.9
        rho0 = np.diag([1 - p1_0, p1_0]).astype(complex)
        for t in np.linspace(0.1, 8.0, 7):
            rho_t = propagate(gen, rho0, t)
            expected = p1_0 * math.exp(-0.4 * t) + nf * (1 - math.exp(-0.4 * t))
            assert rho_t[1, 1].real == pytest.approx(expected, abs=1e-12)

    def test_two_reservoir_relaxation(self):
        eps = 1.0
        res_c = ReservoirSpec(0.4, 0.3, "fermionic", 0.25)
        res_h = ReservoirSpec(1.1, -0.2, "fermionic", 0.55)
        nfc, nfh = fermi_dirac(eps, res_c), fermi_dirac(eps, res_h)
        gen = GKLSGenerator(eps * NUMBER, (
            JumpChannel(LOWER, 0.25 * (1 - nfc), "c", eps, 1),
            JumpChannel(RAISE, 0.25 * nfc, "c", -eps, -1),
            JumpChannel(LOWER, 0.55 * (1 - nfh), "h", eps, 1),
            JumpChannel(RAISE, 0.55 * nfh, "h", -eps, -1)))
        gamma = 0.25 + 0.55
        nbar = (0.25 * nfc + 0.55 * nfh) / gamma
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        for t in (0.5, 2.0, 7.0):
            p1 = propagate(gen, rho0, t)[1, 1].real
            assert p1 == pytest.approx(nbar * (1 - math.exp(-gamma * t)),
                                       abs=1e-12)

    def test_divisibility(self, rng):
        gen = random_generator(rng)
        rho = qcore.random_density_matrix(3, rng)
        direct = propagate(gen, rho, 1.3)
        composed = propagate(gen, propagate(gen, rho, 0.8), 0.5)
        assert np.max(np.abs(direct - composed)) < 1e-8

    def test_cptp_invariants(self, rng):
        for _ in range(5):
            gen = random_generator(rng, dim=4, n_channels=3)
            rho = qcore.random_density_matrix(4, rng)
            out = propagate(gen, rho, rng.uniform(0.1, 3.0))
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.max(np.abs(out - dagger(out))) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-8


class TestSteadyState:
    def test_single_dot_thermal(self):
        gen, _, res, nf = single_dot()
        rho = steady_state(gen)
        assert np.max(np.abs(rho - np.diag([1 - nf, nf]))) < 1e-10

    def test_degenerate_kernel_raises(self):
        gen = GKLSGenerator(np.diag([0.0, 1.0]), ())
        with pytest.raises(MultistabilityError):
            steady_state(gen)

    def test_zeroth_law_single_reservoir(self, rng):
        # all channels in local detailed balance with one reservoir ->
        # steady state is the grand-canonical Gibbs state of the ledger
        res = ReservoirSpec(0.8, 0.15, "fermionic", 0.3)
        eps = 1.1
        nf = fermi_dirac(eps, res)
        gen = GKLSGenerator(eps * NUMBER, (
            JumpChannel(LOWER, 0.3 * (1 - nf), "B", eps, 1),
            JumpChannel(RAISE, 0.3 * nf, "B", -eps, -1)))
        rho = steady_state(gen)
        expected = gibbs_state(eps * NUMBER, res, number_op=NUMBER)
        assert np.max(np.abs(rho - expected)) < 1e-7


class TestBookkeeping:
    def test_single_dot_transient_heat(self):
        gen, ledger, res, nf = single_dot(eps=1.0, kappa=0.4, mu=0.2)
        p1_0 = 0.85
        for t in (0.0, 0.7, 2.5):
            rho = propagate(gen, np.diag([1 - p1_0, p1_0]).astype(complex), t)
            j = heat_current(gen, ledger, rho, "B")
            expected = (1.0 - 0.2) * 0.4 * math.exp(-0.4 * t) * (p1_0 - nf)
            assert j == pytest.approx(expected, abs=1e-12)
            p = power(gen, ledger, rho, "B")
            assert p == pytest.approx(0.2 * 0.4 * math.exp(-0.4 * t) * (p1_0 - nf),
                                      abs=1e-12)

    def test_steady_state_first_law(self):
        gen, ledger, *_ = single_dot()
        rho = steady_state(gen)
        total = sum(j + p for j, p in all_currents(gen, ledger, rho).values())
        assert abs(total) < 1e-12

    def test_first_law_along_paths(self, rng):
        gen, ledger, *_ = single_dot(eps=1.3, kappa=0.3, temperature=0.5)
        rho = qcore.random_density_matrix(2, rng)
        for t in (0.2, 1.0, 3.0):
            rho_t = propagate(gen, rho, t)
            dh_dt = np.trace(ledger.h_td @ generator_apply(gen, rho_t)).real
            drain = sum(j + p
                        for j, p in all_currents(gen, ledger, rho_t).values())
            assert abs(dh_dt + drain) <= 1e-8 * max(abs(dh_dt), 1e-12)


class TestLedgerChecks:
    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        original = lindblad.validate_ledger

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lindblad, "validate_ledger", counted)
        return calls

    @pytest.mark.parametrize("fn", [all_currents, entropy_production_rate])
    def test_validated_once_per_call(self, fn, validations):
        gen, ledger, *_ = engine()
        fn(gen, ledger, steady_state(gen))
        assert len(validations) == 1

    @pytest.mark.parametrize("fn", [all_currents, entropy_production_rate])
    def test_mismatched_ledger_rejected(self, fn):
        gen, ledger, *_ = engine()
        rho = steady_state(gen)
        wrong_energy = ThermoLedger(2.0 * ledger.h_td, ledger.n_s,
                                    ledger.reservoirs)
        with pytest.raises(LedgerError):
            fn(gen, wrong_energy, rho)
        for kept in ("c", "h"):
            unlisted = ThermoLedger(ledger.h_td, ledger.n_s,
                                    {kept: ledger.reservoirs[kept]})
            with pytest.raises(LedgerError):
                fn(gen, unlisted, rho)


class TestLedgerOrderAndScale:
    """validate_ledger reports the first failing channel in channel order,
    a missing reservoir before that channel's ladder residuals, and
    measures each channel's residuals against its own max(max|L|, 1)."""

    def ledger(self):
        res = ReservoirSpec(0.7, 0.2, "fermionic", 0.4)
        return ThermoLedger(NUMBER, NUMBER, {"B": res})

    def check(self, *channels):
        validate_ledger(GKLSGenerator(NUMBER, channels), self.ledger())

    GOOD = JumpChannel(LOWER, 0.1, "B", 1.0, 1)
    BAD = JumpChannel(LOWER, 0.1, "B", 0.5, 1)        # wrong omega
    UNLISTED = JumpChannel(RAISE, 0.1, "X", -1.0, -1)
    UNLISTED_BAD = JumpChannel(RAISE, 0.1, "X", 0.5, -1)

    @pytest.mark.parametrize("channels, message", [
        ((GOOD, BAD, UNLISTED), r"\(B, omega=0.5\) violates"),
        ((GOOD, UNLISTED, BAD), "'X' has no reservoir entry"),
        ((BAD, UNLISTED), r"\(B, omega=0.5\) violates"),
        ((UNLISTED_BAD, BAD), "'X' has no reservoir entry"),
    ])
    def test_first_failure_in_channel_order(self, channels, message):
        with pytest.raises(LedgerError, match=message):
            self.check(*channels)

    def test_valid_channels_pass(self):
        self.check(self.GOOD, JumpChannel(RAISE, 0.2, "B", -1.0, -1))

    def test_ledger_of_another_dimension_rejected(self):
        ledger = ThermoLedger(np.eye(3), np.eye(3), self.ledger().reservoirs)
        with pytest.raises(LedgerError, match="ledger dimension 3 does not "
                           "match generator dimension 2"):
            validate_ledger(GKLSGenerator(NUMBER, (self.GOOD,)), ledger)

    def test_residual_scale_is_per_channel(self):
        # a 1e-7 residual passes on a channel with max|L| = 1e3 (bound
        # 1e-6) and fails on one with max|L| = 1 (bound 1e-9), whatever
        # the other channels of the generator are
        large = JumpChannel(1e3 * LOWER, 0.1, "B", 1.0, 1)
        tilted = JumpChannel(1e3 * LOWER + 1e-7 * NUMBER, 0.1, "B", 1.0, 1)
        small_tilted = JumpChannel(LOWER + 1e-7 * NUMBER, 0.1, "B", 1.0, 1)
        self.check(tilted, self.GOOD)
        self.check(self.GOOD, tilted)
        with pytest.raises(LedgerError, match="violates"):
            self.check(large, small_tilted)
        with pytest.raises(LedgerError, match="violates"):
            self.check(small_tilted, large)


class TestEntropyProduction:
    def test_single_dot_closed_form(self):
        gen, ledger, res, nf = single_dot(eps=1.0, kappa=0.4, mu=0.2)
        p1_0 = 0.85
        for t in (0.05, 0.6, 2.0):
            rho = propagate(gen, np.diag([1 - p1_0, p1_0]).astype(complex), t)
            p1 = rho[1, 1].real
            expected = (0.4 * (p1 * (1 - nf) - (1 - p1) * nf)
                        * math.log(p1 * (1 - nf) / ((1 - p1) * nf)))
            got = entropy_production_rate(gen, ledger, rho)
            assert got == pytest.approx(expected, rel=1e-9)
            assert got >= -1e-9

    def test_equilibrium_steady_state_is_zero(self):
        gen, ledger, *_ = single_dot()
        rho = steady_state(gen)
        assert abs(entropy_production_rate(gen, ledger, rho)) < 1e-9

    def test_engine_steady_state_closed_form(self):
        eps = 1.4
        gen, ledger, nfc, nfh = engine(eps)
        rho = steady_state(gen)
        expected = (0.3 * 0.7 / (0.3 + 0.7) * (nfh - nfc)
                    * ((eps - 0.6) / 0.35 - (eps - 0.0) / 1.0))
        assert entropy_production_rate(gen, ledger, rho) == pytest.approx(
            expected, rel=1e-9)

    def test_entropy_rate_matches_finite_difference(self, rng):
        gen, *_ = single_dot()
        rho = propagate(gen, qcore.random_density_matrix(2, rng), 0.3)
        from qthermo.thermo import von_neumann_entropy
        dt = 1e-6
        fd = (von_neumann_entropy(propagate(gen, rho, dt))
              - von_neumann_entropy(rho)) / dt
        assert entropy_rate(gen, rho) == pytest.approx(fd, rel=1e-4)


class TestLocalDetailedBalance:
    def test_fermionic_pair(self):
        gen, ledger, res, nf = single_dot(eps=1.0, kappa=0.4, mu=0.2)
        out_ch, in_ch = gen.channels
        assert local_detailed_balance_check(in_ch, out_ch, res) is True

    def test_bosonic_pair(self):
        res = ReservoirSpec(0.9, 0.0, "bosonic", 0.2)
        eps = 0.8
        from qthermo.thermo import bose_einstein
        nb = bose_einstein(eps, res)
        out_ch = JumpChannel(LOWER, 0.2 * (nb + 1), "B", eps, 0)
        in_ch = JumpChannel(RAISE, 0.2 * nb, "B", -eps, 0)
        assert local_detailed_balance_check(in_ch, out_ch, res) is True

    def test_perturbed_rate_fails(self):
        gen, ledger, res, nf = single_dot()
        out_ch, in_ch = gen.channels
        perturbed = JumpChannel(out_ch.operator, out_ch.rate * 1.1, "B",
                                out_ch.energy_quantum, out_ch.particle_quantum)
        assert local_detailed_balance_check(in_ch, perturbed, res) is False

    def test_zero_rate_indeterminate(self):
        res = ReservoirSpec(1.0, 0.0, "fermionic", 0.0)
        out_ch = JumpChannel(LOWER, 0.0, "B", 1.0, 1)
        in_ch = JumpChannel(RAISE, 0.0, "B", -1.0, -1)
        assert local_detailed_balance_check(in_ch, out_ch, res) is None

    def test_mismatched_quanta_rejected(self):
        res = ReservoirSpec(1.0)
        a = JumpChannel(LOWER, 0.1, "B", 1.0, 1)
        b = JumpChannel(RAISE, 0.1, "B", -2.0, -1)
        with pytest.raises(ValueError):
            local_detailed_balance_check(b, a, res)
