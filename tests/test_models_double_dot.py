import math

import numpy as np
import pytest

from qthermo.lindblad import all_currents, steady_state
from qthermo.models import (DoubleDotParams, ValidityWarning,
                            double_dot_concurrence, double_dot_correlators_ss,
                            double_dot_generator, double_dot_state_closed_form,
                            double_dot_state_ss, entanglement_heat_threshold)
from qthermo.models.double_dot import (D_L, D_R, N_L, N_R,
                                       critical_heat_current,
                                       heat_current_closed_form)
from qthermo.thermo import (ReservoirSpec, concurrence, fermi_dirac,
                            gibbs_state)

GOLDEN = (1 + math.sqrt(5)) / 2


def params_for(eps=2.0, g=0.08, kappa_l=0.3, kappa_r=0.2, t_l=0.7, t_r=0.4,
               mu_l=0.9, mu_r=-0.2, mode="local"):
    return DoubleDotParams(eps, g, {
        "L": ReservoirSpec(t_l, mu_l, "fermionic", kappa_l),
        "R": ReservoirSpec(t_r, mu_r, "fermionic", kappa_r)}, mode=mode)


def extreme_bias_params(g_over_kappa, kappa_l=1.0, kappa_r=None):
    # n_F^L = 1 and n_F^R = 0 to double precision
    eps = 0.0
    kappa_r = kappa_l if kappa_r is None else kappa_r
    return DoubleDotParams(eps, g_over_kappa * kappa_l, {
        "L": ReservoirSpec(0.01, eps + 2.0, "fermionic", kappa_l),
        "R": ReservoirSpec(0.01, eps - 2.0, "fermionic", kappa_r)})


def random_local_params(rng):
    eps = rng.uniform(0.5, 3.0)
    t_l, t_r = rng.uniform(0.4, 1.5, size=2)
    mu_l, mu_r = rng.uniform(-1.0, 1.0, size=2)
    kappa_l, kappa_r = rng.uniform(0.05, 0.6, size=2)
    scale = min(max(t_l, abs(eps - mu_l)), max(t_r, abs(eps - mu_r)))
    g = rng.uniform(0.02, 0.4) * scale
    return DoubleDotParams(eps, g, {
        "L": ReservoirSpec(t_l, mu_l, "fermionic", kappa_l),
        "R": ReservoirSpec(t_r, mu_r, "fermionic", kappa_r)})


class TestFermionOperators:
    def test_anticommutation(self):
        acomm = D_L @ D_R + D_R @ D_L
        assert np.max(np.abs(acomm)) == 0.0
        acomm_dag = D_L @ D_R.conj().T + D_R.conj().T @ D_L
        assert np.max(np.abs(acomm_dag)) == 0.0

    def test_double_occupation_sign(self):
        # |11> = d_L† d_R† |00> with + sign in the chosen basis order
        vac = np.zeros(4)
        vac[0] = 1.0
        state = D_L.conj().T @ D_R.conj().T @ vac
        assert state[3] == pytest.approx(1.0)
        state_swapped = D_R.conj().T @ D_L.conj().T @ vac
        assert state_swapped[3] == pytest.approx(-1.0)


class TestGenerator:
    def test_secular_equal_reservoirs_gibbs(self):
        res = ReservoirSpec(0.8, 0.3, "fermionic", 0.02)
        p = DoubleDotParams(2.0, 0.6, {"L": res, "R": res}, mode="secular")
        gen, ledger = double_dot_generator(p)
        rho = steady_state(gen)
        expected = gibbs_state(ledger.h_td, res, number_op=ledger.n_s)
        assert np.max(np.abs(rho - expected)) < 1e-9

    def test_local_kappa_left_zero_equilibrates_right(self):
        p = DoubleDotParams(2.0, 0.05, {
            "L": ReservoirSpec(0.7, 0.9, "fermionic", 0.0),
            "R": ReservoirSpec(0.4, -0.2, "fermionic", 0.2)})
        gen, ledger = double_dot_generator(p)
        rho = steady_state(gen)
        expected = gibbs_state(ledger.h_td, p.reservoirs["R"],
                               number_op=ledger.n_s)
        assert np.max(np.abs(rho - expected)) < 1e-9

    def test_local_heat_power_site_formula(self):
        p = params_for()
        gen, ledger = double_dot_generator(p)
        rho = steady_state(gen)
        cur = all_currents(gen, ledger, rho)
        site_number = {"L": N_L, "R": N_R}
        for tag, res in p.reservoirs.items():
            occ = np.trace(site_number[tag] @ rho).real
            nf = fermi_dirac(p.eps, res)
            expect_j = res.coupling * (p.eps - res.chemical_potential) * (occ - nf)
            expect_p = res.coupling * res.chemical_potential * (occ - nf)
            assert cur[tag][0] == pytest.approx(expect_j, abs=1e-12)
            assert cur[tag][1] == pytest.approx(expect_p, abs=1e-12)

    def test_secular_heat_power_eigenmode_formula(self):
        # half-rate channels on each eigenmode at energies eps ± g
        p = params_for(g=0.6, kappa_l=0.02, kappa_r=0.03, mode="secular")
        gen, ledger = double_dot_generator(p)
        rho = steady_state(gen)
        cur = all_currents(gen, ledger, rho)
        from qthermo.models.double_dot import D_MINUS, D_PLUS
        occ = {+1: np.trace(D_PLUS.conj().T @ D_PLUS @ rho).real,
               -1: np.trace(D_MINUS.conj().T @ D_MINUS @ rho).real}
        for tag, res in p.reservoirs.items():
            expect_j = expect_p = 0.0
            for sign in (+1, -1):
                energy = p.eps + sign * p.g
                gap = occ[sign] - fermi_dirac(energy, res)
                expect_j += 0.5 * res.coupling * (energy
                                                  - res.chemical_potential) * gap
                expect_p += 0.5 * res.coupling * res.chemical_potential * gap
            assert cur[tag][0] == pytest.approx(expect_j, abs=1e-12)
            assert cur[tag][1] == pytest.approx(expect_p, abs=1e-12)

    def test_local_mode_warns_on_large_g(self):
        with pytest.warns(ValidityWarning):
            DoubleDotParams(2.0, 2.0, {
                "L": ReservoirSpec(0.7, 0.9, "fermionic", 0.3),
                "R": ReservoirSpec(0.4, -0.2, "fermionic", 0.2)})

    @pytest.mark.parametrize("mode, g", [("local", 2.0), ("secular", 0.05)])
    def test_warning_names_the_line_that_built_the_params(self, mode, g):
        with pytest.warns(ValidityWarning) as caught:
            DoubleDotParams(2.0, g, {
                "L": ReservoirSpec(0.7, 0.9, "fermionic", 0.3),
                "R": ReservoirSpec(0.4, -0.2, "fermionic", 0.2)}, mode=mode)
        assert caught and {w.filename for w in caught} == {__file__}

    def test_secular_mode_warns_on_large_kappa(self):
        with pytest.warns(ValidityWarning):
            DoubleDotParams(2.0, 0.05, {
                "L": ReservoirSpec(0.7, 0.9, "fermionic", 0.3),
                "R": ReservoirSpec(0.4, -0.2, "fermionic", 0.2)},
                mode="secular")


class TestCorrelators:
    def test_decoupled_dots(self):
        p = params_for(g=0.0)
        v = double_dot_correlators_ss(p)
        assert v[0].real == pytest.approx(fermi_dirac(p.eps, p.reservoirs["L"]))
        assert v[1].real == pytest.approx(fermi_dirac(p.eps, p.reservoirs["R"]))
        assert abs(v[2]) < 1e-15 and abs(v[3]) < 1e-15

    def test_equilibrium_kills_coherence(self):
        res = ReservoirSpec(0.6, 0.2, "fermionic", 0.25)
        p = DoubleDotParams(1.5, 0.05, {"L": res, "R": res})
        v = double_dot_correlators_ss(p)
        assert abs(v[2]) < 1e-15 and abs(v[3]) < 1e-15

    def test_matches_dense_steady_state(self, rng):
        # oracle: dense-Liouvillian steady state contracted with the
        # one-particle operators
        for _ in range(10):
            p = random_local_params(rng)
            gen, _ = double_dot_generator(p)
            rho = steady_state(gen)
            v = double_dot_correlators_ss(p)
            pairs = ((D_L.conj().T @ D_L), (D_R.conj().T @ D_R),
                     (D_L.conj().T @ D_R), (D_R.conj().T @ D_L))
            for value, op in zip(v, pairs):
                assert abs(value - np.trace(rho @ op)) < 1e-9


class TestSteadyStateAssembly:
    def test_equilibrium_is_product_gibbs(self):
        res = ReservoirSpec(0.6, 0.2, "fermionic", 0.25)
        p = DoubleDotParams(1.5, 0.05, {"L": res, "R": res})
        rho = double_dot_state_ss(p)
        gen, ledger = double_dot_generator(p)
        expected = gibbs_state(ledger.h_td, res, number_op=ledger.n_s)
        assert np.max(np.abs(rho - expected)) < 1e-9

    def test_strong_tunneling_averages_occupation(self):
        p = params_for(g=80.0, kappa_l=0.3, kappa_r=0.2, eps=200.0,
                       mu_l=190.0, mu_r=195.0, t_l=30.0, t_r=20.0)
        rho = double_dot_state_ss(p)
        nl = fermi_dirac(p.eps, p.reservoirs["L"])
        nr = fermi_dirac(p.eps, p.reservoirs["R"])
        nbar = (0.3 * nl + 0.2 * nr) / 0.5
        target = np.diag([(1 - nbar) ** 2, nbar * (1 - nbar),
                          nbar * (1 - nbar), nbar ** 2])
        assert np.max(np.abs(rho - target)) < 5e-3

    def test_coherence_element_sign_and_value(self, rng):
        # oracle: dense steady state
        for _ in range(5):
            p = random_local_params(rng)
            gen, _ = double_dot_generator(p)
            dense = steady_state(gen)
            nl = fermi_dirac(p.eps, p.reservoirs["L"])
            nr = fermi_dirac(p.eps, p.reservoirs["R"])
            kl = p.reservoirs["L"].coupling
            kr = p.reservoirs["R"].coupling
            w = 2 * p.g * kl * kr * (nl - nr) / (kl + kr)
            expected = 1j * w / (4 * p.g ** 2 + kl * kr)
            assert abs(dense[1, 2] - expected) < 1e-9

    def test_closed_form_equals_dense(self, rng):
        for _ in range(25):
            p = random_local_params(rng)
            gen, _ = double_dot_generator(p)
            dense = steady_state(gen)
            assert np.max(np.abs(double_dot_state_closed_form(p) - dense)) < 1e-9
            assert np.max(np.abs(double_dot_state_ss(p) - dense)) < 1e-9


class TestConcurrence:
    def test_maximum_point(self):
        g_star = (math.sqrt(5) - 1) / 4
        p = extreme_bias_params(g_star)
        assert double_dot_concurrence(p) == pytest.approx(g_star, abs=1e-9)

    def test_golden_ratio_identities(self):
        g_star = (math.sqrt(5) - 1) / 4
        p = extreme_bias_params(g_star)
        rho = double_dot_state_ss(p)
        c = double_dot_concurrence(p)
        alpha = abs(rho[1, 2])
        p0, pd = rho[0, 0].real, rho[3, 3].real
        assert 1.0 / (2 * g_star) == pytest.approx(GOLDEN, abs=1e-12)
        assert 1.0 / (2 * c) == pytest.approx(GOLDEN, abs=1e-9)
        assert alpha / (2 * math.sqrt(p0 * pd)) == pytest.approx(GOLDEN, abs=1e-9)

    def test_equilibrium_has_no_entanglement(self):
        res = ReservoirSpec(0.6, 0.2, "fermionic", 0.25)
        p = DoubleDotParams(1.5, 0.05, {"L": res, "R": res})
        assert double_dot_concurrence(p) == 0.0
        j_r, _, entangled = entanglement_heat_threshold(p)
        assert j_r == pytest.approx(0.0, abs=1e-15)
        assert not entangled

    def test_concurrence_closed_form_consistency(self, rng):
        # Eq-level closed form 2|alpha| - 2 sqrt(p0 pd) vs the generic
        # two-qubit concurrence of the assembled state
        for _ in range(20):
            p = random_local_params(rng)
            rho = double_dot_state_ss(p)
            direct = concurrence(rho)
            alpha = abs(rho[1, 2])
            closed = max(0.0, 2 * alpha
                         - 2 * math.sqrt(rho[0, 0].real * rho[3, 3].real))
            assert direct == pytest.approx(closed, abs=1e-9)

    def test_heat_threshold_consistency(self, rng):
        for _ in range(20):
            p = random_local_params(rng)
            j_r, j_crit, entangled = entanglement_heat_threshold(p)
            assert j_r == pytest.approx(heat_current_closed_form(p), rel=1e-12)
            assert j_crit == pytest.approx(critical_heat_current(p), rel=1e-12)
            c = double_dot_concurrence(p)
            if abs(abs(j_r) - j_crit) > 1e-12 * max(j_crit, 1e-12):
                assert entangled == (c > 0)

    @pytest.mark.parametrize("kappa_l, kappa_r", [(0.3, 0.0), (0.0, 0.2)])
    def test_critical_current_needs_both_couplings(self, kappa_l, kappa_r):
        with pytest.raises(ValueError, match="kappa_L kappa_R > 0"):
            critical_heat_current(params_for(kappa_l=kappa_l,
                                             kappa_r=kappa_r))

    def test_heat_current_matches_bookkeeping(self, rng):
        for _ in range(5):
            p = random_local_params(rng)
            gen, ledger = double_dot_generator(p)
            rho = steady_state(gen)
            j_r = all_currents(gen, ledger, rho)["R"][0]
            assert j_r == pytest.approx(heat_current_closed_form(p), abs=1e-10)
