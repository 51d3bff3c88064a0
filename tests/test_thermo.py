import math
import sys

import numpy as np
import pytest

from qthermo import qcore, thermo
from qthermo.qcore import kron
from qthermo.thermo import (ReservoirSpec, bose_einstein, concurrence,
                            effective_temperature, energy_variance_identity,
                            fermi_dirac, gibbs_state, is_passive,
                            mutual_information, relative_entropy,
                            shannon_entropy, von_neumann_entropy)

FERMI_RES = ReservoirSpec(temperature=0.7, chemical_potential=0.25)
BOSE_RES = ReservoirSpec(temperature=0.7, statistics="bosonic")


class TestReservoirSpec:
    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=0.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=1.0, coupling=-0.1)

    @pytest.mark.parametrize("field", ["temperature", "chemical_potential",
                                       "coupling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_numbers(self, field, value):
        kwargs = {"temperature": 1.0, "chemical_potential": 0.0,
                  "coupling": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ReservoirSpec(**kwargs)

    def test_bosonic_needs_zero_mu(self):
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=1.0, chemical_potential=0.3,
                          statistics="bosonic")


class TestOccupations:
    def test_fermi_at_mu(self):
        assert fermi_dirac(FERMI_RES.chemical_potential, FERMI_RES) == pytest.approx(0.5)

    def test_fermi_high_energy_limit(self):
        assert fermi_dirac(1e6, FERMI_RES) == 0.0

    def test_local_detailed_balance_ratio(self):
        omega = 1.3
        nf = fermi_dirac(omega, FERMI_RES)
        ratio = (1 - nf) / nf
        expected = math.exp(FERMI_RES.beta * (omega - FERMI_RES.chemical_potential))
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_fermi_has_the_bits_of_expit(self):
        """fermi_dirac is libm's 1/(1 + e^x); scipy.special.expit(-x) has
        the same bits both per scalar and as an array ufunc, so a sweep
        builder may use either. Seeded arguments over the whole float
        range, the overflow band around log(max float), +-0, +-inf, nan
        and subnormals; a subnormal temperature makes beta = inf."""
        from scipy.special import expit
        rng = np.random.default_rng(2024)
        log_max = math.log(sys.float_info.max)
        tiny = sys.float_info.min
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                   -5e-324, tiny * (1 - 2**-52), -tiny / 3, tiny, log_max,
                   math.nextafter(log_max, 800), -log_max]
        omegas = np.concatenate([
            rng.uniform(-800.0, 800.0, 2**17),
            rng.choice([-1.0, 1.0], 2**17) * 10.0 ** rng.uniform(-323, 308,
                                                                 2**17),
            np.linspace(709.0, 710.0, 4001),
            log_max + np.arange(-64, 65) * np.spacing(log_max),
            special])
        reservoirs = [ReservoirSpec(temperature=1.0),
                      ReservoirSpec(temperature=0.37, chemical_potential=0.2),
                      ReservoirSpec(temperature=2.9, chemical_potential=-1.3),
                      ReservoirSpec(temperature=1e-320,
                                    chemical_potential=0.5)]
        assert math.isinf(reservoirs[-1].beta)
        for res in reservoirs:
            beta, mu = res.beta, res.chemical_potential
            got = np.array([fermi_dirac(w, res) for w in omegas.tolist()])
            per_scalar = np.array([float(expit(-beta * (w - mu)))
                                   for w in omegas.tolist()])
            with np.errstate(all="ignore"):
                as_ufunc = expit(-beta * (omegas - mu))
            for name, ref in (("per scalar", per_scalar),
                              ("as a ufunc", as_ufunc)):
                bad = np.flatnonzero(got.view(np.uint64) != ref.view(np.uint64))
                assert bad.size == 0, (
                    f"T = {res.temperature}, mu = {mu}: fermi_dirac differs "
                    f"from expit {name} on {bad.size} of {omegas.size} "
                    f"arguments, first at omega = {omegas[bad[0]]!r}")

    def test_fermi_strictly_decreasing(self):
        omegas = np.linspace(-3, 3, 40)
        vals = [fermi_dirac(w, FERMI_RES) for w in omegas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bose_ratio(self):
        omega = 0.9
        nb = bose_einstein(omega, BOSE_RES)
        assert (nb + 1) / nb == pytest.approx(math.exp(omega * BOSE_RES.beta),
                                              rel=1e-12)

    def test_bose_high_energy_limit(self):
        assert bose_einstein(2000.0, BOSE_RES) == pytest.approx(0.0, abs=1e-300)

    def test_bose_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            bose_einstein(0.0, BOSE_RES)
        with pytest.raises(ValueError):
            bose_einstein(-1.0, BOSE_RES)

    def test_bose_strictly_decreasing(self):
        omegas = np.linspace(0.1, 3, 30)
        vals = [bose_einstein(w, BOSE_RES) for w in omegas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bose_fermi_identity(self, rng):
        # n_B = n_F/(1 - 2 n_F) at equal omega and T, mu = 0
        res_f = ReservoirSpec(temperature=0.9)
        res_b = ReservoirSpec(temperature=0.9, statistics="bosonic")
        for omega in rng.uniform(0.05, 4.0, size=10):
            nf = fermi_dirac(omega, res_f)
            nb = bose_einstein(omega, res_b)
            assert nb == pytest.approx(nf / (1 - 2 * nf), rel=1e-10)


class TestGibbsState:
    def test_single_dot_occupation(self):
        h = np.diag([0.0, 1.4])
        n = np.diag([0.0, 1.0])
        g = gibbs_state(h, FERMI_RES, number_op=n)
        assert g[1, 1].real == pytest.approx(fermi_dirac(1.4, FERMI_RES),
                                             rel=1e-12)

    def test_infinite_temperature_is_maximally_mixed(self):
        res = ReservoirSpec(temperature=1e9)
        g = gibbs_state(np.diag([0.0, 0.3, 1.0]), res)
        assert np.max(np.abs(g - np.eye(3) / 3)) < 1e-8

    def test_noninteracting_dots_factorize(self):
        res = ReservoirSpec(temperature=0.6, chemical_potential=0.1)
        h1 = np.diag([0.0, 0.8])
        h2 = np.diag([0.0, 1.7])
        n1 = np.diag([0.0, 1.0])
        h = kron(h1, np.eye(2)) + kron(np.eye(2), h2)
        n = kron(n1, np.eye(2)) + kron(np.eye(2), n1)
        joint = gibbs_state(h, res, number_op=n)
        product = kron(gibbs_state(h1, res, number_op=n1),
                       gibbs_state(h2, res, number_op=n1))
        assert np.max(np.abs(joint - product)) < 1e-12

    def test_noncommuting_number_operator_rejected(self):
        h = np.array([[0.0, 0.2], [0.2, 1.0]])
        n = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            gibbs_state(h, FERMI_RES, number_op=n)

    def test_positive_spectrum_and_commutation(self, rng):
        h = qcore.random_hermitian(5, rng)
        g = gibbs_state(h, FERMI_RES)
        assert np.linalg.eigvalsh(g).min() > 0
        assert np.max(np.abs(g @ h - h @ g)) < 1e-10


class TestEntropies:
    def test_pure_state_zero(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(math.log(4))

    def test_qubit_half(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_shannon_block_example(self):
        assert shannon_entropy([0.5, 0.25, 0.125, 0.125], base=2) == pytest.approx(7 / 4)

    def test_shannon_uniform(self):
        assert shannon_entropy(np.full(7, 1 / 7)) == pytest.approx(math.log(7))

    def test_shannon_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_shannon_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            shannon_entropy([1.2, -0.2])


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = qcore.random_density_matrix(4, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_reduces_to_classical_kl(self, rng):
        # oracle: classical Kullback-Leibler on the eigenvalue vectors
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        kl = float(np.sum(p * np.log(p / q)))
        assert relative_entropy(np.diag(p), np.diag(q)) == pytest.approx(kl, rel=1e-10)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(100):
            rho = qcore.random_density_matrix(3, rng)
            sigma = qcore.random_density_matrix(3, rng)
            assert relative_entropy(rho, sigma) >= 0.0

    def test_support_violation_is_inf(self):
        rho = np.diag([0.5, 0.5])
        sigma = np.diag([1.0, 0.0])
        assert relative_entropy(rho, sigma) == math.inf

    def test_gibbs_is_unique_minimum(self, rng):
        h = qcore.random_hermitian(3, rng)
        g = gibbs_state(h, FERMI_RES)
        assert relative_entropy(g, g) == pytest.approx(0.0, abs=1e-10)
        other = qcore.random_density_matrix(3, rng)
        assert relative_entropy(other, g) > 0.0


class TestMutualInformation:
    def test_product_state_zero(self, rng):
        rho = kron(qcore.random_density_matrix(2, rng),
                   qcore.random_density_matrix(3, rng))
        assert mutual_information(rho, 2, 3) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        rho = np.outer(phi, phi)
        # oracle: the three entropies directly -> ln2 + ln2 - 0
        assert mutual_information(rho, 2, 2) == pytest.approx(2 * math.log(2),
                                                              rel=1e-12)

    def test_entropic_upper_bound(self, rng):
        bound = 2 * min(math.log(2), math.log(3))
        for _ in range(50):
            rho = qcore.random_density_matrix(6, rng)
            assert mutual_information(rho, 2, 3) <= bound + 1e-9


class TestConcurrence:
    def test_bell_state_is_one(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        assert concurrence(np.outer(phi, phi)) == pytest.approx(1.0, rel=1e-12)

    def test_separable_mixture_is_zero(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5])
        assert concurrence(rho) == 0.0

    def test_x_state_single_coherence(self, rng):
        # max{0, 2|alpha| - 2 sqrt(p0 pd)} for the one-coherence X shape
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            alpha = min(math.sqrt(p[1] * p[2]), 0.99 * math.sqrt(p[1] * p[2]))
            alpha *= np.exp(1j * rng.uniform(0, 2 * np.pi))
            rho = np.diag(p).astype(complex)
            rho[1, 2] = alpha
            rho[2, 1] = np.conj(alpha)
            expected = max(0.0, 2 * abs(alpha) - 2 * math.sqrt(p[0] * p[3]))
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_local_phase_invariance(self, rng):
        p = rng.dirichlet(np.ones(4))
        rho = np.diag(p).astype(complex)
        rho[1, 2] = 0.8 * math.sqrt(p[1] * p[2])
        rho[2, 1] = rho[1, 2]
        base = concurrence(rho)
        for _ in range(5):
            u = kron(np.diag([1, np.exp(1j * rng.uniform(0, 2 * np.pi))]),
                     np.diag([1, np.exp(1j * rng.uniform(0, 2 * np.pi))]))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(base, abs=1e-10)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2) / 2)


class TestEffectiveTemperature:
    def test_inverts_fermi(self):
        eps, t = 1.2, 0.45
        p1 = fermi_dirac(eps, ReservoirSpec(temperature=t))
        assert effective_temperature(p1, eps) == pytest.approx(t, rel=1e-12)

    def test_ground_state_limit(self):
        assert effective_temperature(1e-12, 1.0) < 0.05

    def test_round_trip(self, rng):
        for _ in range(10):
            eps = rng.uniform(0.2, 3.0)
            theta = rng.uniform(0.05, 2.0)
            p1 = fermi_dirac(eps, ReservoirSpec(temperature=theta))
            assert effective_temperature(p1, eps) == pytest.approx(theta, rel=1e-10)

    def test_inverted_population_rejected(self):
        with pytest.raises(ValueError):
            effective_temperature(0.5, 1.0)
        with pytest.raises(ValueError):
            effective_temperature(0.7, 1.0)


class TestPassivity:
    def test_gibbs_is_passive(self, rng):
        h = qcore.random_hermitian(4, rng)
        for temp in (0.2, 1.0, 5.0):
            g = gibbs_state(h, ReservoirSpec(temperature=temp))
            assert is_passive(g, h)

    def test_population_inversion_is_not(self):
        assert not is_passive(np.diag([0.3, 0.7]), np.diag([0.0, 1.0]))

    def test_maximally_mixed_is_passive(self, rng):
        h = qcore.random_hermitian(3, rng)
        assert is_passive(np.eye(3) / 3, h)

    def test_coherent_state_is_not(self):
        h = np.diag([0.0, 1.0])
        plus = np.full((2, 2), 0.5)
        assert not is_passive(plus, h)


class TestEnergyVarianceIdentity:
    def test_qubit_closed_form(self):
        # oracle: Gibbs moments of a two-level system, mu = 0
        eps = 1.3
        res = ReservoirSpec(temperature=0.8)
        h = np.diag([0.0, eps])
        nf = fermi_dirac(eps, ReservoirSpec(temperature=0.8))
        lhs, rhs = energy_variance_identity(h, res)
        assert lhs == pytest.approx(eps ** 2 * nf * (1 - nf), rel=1e-10)
        assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1.0)

    def test_ground_state_limit(self):
        h = np.diag([0.0, 500.0])
        res = ReservoirSpec(temperature=1.0)
        lhs, rhs = energy_variance_identity(h, res)
        assert lhs == pytest.approx(0.0, abs=1e-100)
        assert rhs == pytest.approx(0.0, abs=1e-100)

    def test_random_diagonal_hamiltonians(self, rng):
        for dim in (2, 4, 8):
            h = np.diag(rng.uniform(-1.0, 2.0, size=dim))
            res = ReservoirSpec(temperature=rng.uniform(0.3, 2.0))
            lhs, rhs = energy_variance_identity(h, res)
            assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1.0)
