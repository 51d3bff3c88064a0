import math
import re
from unittest import mock

import numpy as np
import pytest

from qthermo.lindblad import (all_currents, local_detailed_balance_check,
                              steady_state)
from qthermo.models import (FridgeParams, fridge_coherent_transient,
                            fridge_generator, fridge_observables,
                            fridge_perturbative_I, fridge_switchoff_protocol,
                            fridge_switchoff_transient)
from qthermo.models.fridge import (_thetas, cooling_window_boundary,
                                   exchange_amplitude, occupation_imbalance,
                                   product_gibbs_state)
from qthermo.qcore import NumericalError
from qthermo.thermo import ReservoirSpec


def fridge(eps_c=0.6, eps_h=1.4, g=0.05, kc=0.02, kh=0.03, kr=0.025,
           tc=0.4, th=2.0, tr=1.0):
    return FridgeParams(eps_c, eps_h, g, {
        "c": ReservoirSpec(tc, 0.0, "bosonic", kc),
        "h": ReservoirSpec(th, 0.0, "bosonic", kh),
        "r": ReservoirSpec(tr, 0.0, "bosonic", kr)})


def random_fridge(rng):
    tc = rng.uniform(0.2, 0.8)
    tr = tc + rng.uniform(0.1, 1.0)
    th = tr + rng.uniform(0.1, 2.0)
    return fridge(eps_c=rng.uniform(0.2, 1.0), eps_h=rng.uniform(0.5, 2.0),
                  g=rng.uniform(0.01, 0.1), kc=rng.uniform(0.01, 0.08),
                  kh=rng.uniform(0.01, 0.08), kr=rng.uniform(0.01, 0.08),
                  tc=tc, th=th, tr=tr)


class TestConstruction:
    def test_resonance_is_exact(self):
        p = fridge()
        assert p.eps_r == p.eps_c + p.eps_h
        with pytest.raises(ValueError):
            FridgeParams(0.6, 1.4, 0.05, fridge().reservoirs, eps_r=2.1)

    def test_fermionic_reservoir_rejected(self):
        with pytest.raises(ValueError):
            FridgeParams(0.6, 1.4, 0.05, {
                "c": ReservoirSpec(0.4, 0.0, "fermionic", 0.02),
                "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
                "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)})

    def test_effective_rate_where_n_f_underflows(self):
        # eps_c / k_B T_c = 1000: n_F underflows to 0 (n_B too), and
        # kappa n_B / n_F takes its limit kappa
        p = fridge(eps_c=0.3, tc=3e-4)
        assert p.qubit_occupation("c") == 0.0
        assert p.effective_rate("c") == 0.02
        # at eps_c / k_B T_c = 705 the ratio is 1 to double precision
        q = fridge(eps_c=0.3, tc=0.3 / 705.0)
        assert q.qubit_occupation("c") > 0.0
        assert q.effective_rate("c") == pytest.approx(0.02, rel=1e-12)

    @pytest.mark.parametrize("eps_c, eps_h", [(1e-320, 1.4), (0.6, 1e-320)])
    def test_infinite_bose_occupation_rejected(self, eps_c, eps_h):
        with pytest.raises(ValueError, match="Bose occupation not finite"):
            fridge(eps_c=eps_c, eps_h=eps_h)

    def test_channels_obey_local_detailed_balance(self):
        p = fridge()
        gen, ledger = fridge_generator(p)
        for tag in ("c", "h", "r"):
            chans = [ch for ch in gen.channels if ch.reservoir == tag]
            out_ch = next(c for c in chans if c.energy_quantum > 0)
            in_ch = next(c for c in chans if c.energy_quantum < 0)
            assert local_detailed_balance_check(
                in_ch, out_ch, p.reservoirs[tag]) is True


class TestSteadyState:
    def test_decoupled_is_product_gibbs(self):
        p = fridge(g=0.0)
        gen, _ = fridge_generator(p)
        rho = steady_state(gen)
        assert np.max(np.abs(rho - product_gibbs_state(p))) < 1e-10

    def test_zeroth_law_equal_temperatures(self):
        # with all reservoirs at one temperature the interacting fridge
        # still settles into the Gibbs state of the ledger Hamiltonian
        # (the resonance keeps it stationary under the exchange term)
        p = fridge(tc=0.9, th=0.9, tr=0.9, g=0.08)
        gen, _ = fridge_generator(p)
        rho = steady_state(gen)
        assert np.max(np.abs(rho - product_gibbs_state(p))) < 1e-7

    def test_current_proportionality(self, rng):
        for _ in range(10):
            p = random_fridge(rng)
            _, j_c, j_h, j_r, _, _ = fridge_observables(p)
            assert j_c / j_h == pytest.approx(p.eps_c / p.eps_h, rel=1e-10)
            assert abs(j_c + j_h + j_r) < 1e-12

    def test_currents_match_generic_bookkeeping(self):
        p = fridge()
        gen, ledger = fridge_generator(p)
        rho = steady_state(gen)
        amp = exchange_amplitude(p, rho)
        cur = all_currents(gen, ledger, rho)
        assert cur["c"][0] == pytest.approx(-p.eps_c * amp, abs=1e-12)
        assert cur["h"][0] == pytest.approx(-p.eps_h * amp, abs=1e-12)
        assert cur["r"][0] == pytest.approx(p.eps_r * amp, abs=1e-12)


class TestAsymptoticCooling:
    def test_ground_state_approached_along_limit_corner(self):
        # g/kappa_r -> 0, kappa_r/kappa_c -> inf, eps_h/k_B T_h -> 0,
        # eps_r/k_B T_r -> inf: occupation heads to zero but never
        # reaches it (trend check; exact zero is unattainable)
        from qthermo.models.fridge import _NUM

        eps_c, eps_h = 0.2, 1.0
        occs = []
        for x in (1.0, 2.0, 4.0, 8.0, 16.0):
            p = FridgeParams(eps_c, eps_h, 0.5 / x, {
                "c": ReservoirSpec(0.5, 0.0, "bosonic", 0.5 / x ** 4),
                "h": ReservoirSpec(eps_h * x, 0.0, "bosonic", 0.5),
                "r": ReservoirSpec((eps_c + eps_h) / x, 0.0, "bosonic", 0.5)})
            gen, _ = fridge_generator(p)
            rho = steady_state(gen)
            occs.append(float(np.trace(_NUM["c"] @ rho).real))
        assert all(a > b for a, b in zip(occs[1:], occs[2:]))
        assert occs[-1] < 0.3 * occs[0]
        assert occs[-1] > 0.0


class TestCoolingWindow:
    def test_boundary_gives_zero_current(self):
        p0 = fridge()
        boundary = cooling_window_boundary(p0)
        eps_h = 1.0
        p = fridge(eps_c=boundary * eps_h, eps_h=eps_h)
        amp = fridge_observables(p)[0]
        assert abs(amp) < 1e-8

    def test_below_boundary_cools(self):
        p0 = fridge()
        boundary = cooling_window_boundary(p0)
        p = fridge(eps_c=0.8 * boundary, eps_h=1.0)
        amp, j_c, _, _, theta, cooling = fridge_observables(p)
        assert amp > 0 and cooling
        assert j_c < 0  # heat leaves the cold reservoir
        assert theta < p.reservoirs["c"].temperature

    def test_above_boundary_heats(self):
        p0 = fridge()
        boundary = cooling_window_boundary(p0)
        p = fridge(eps_c=1.2 * boundary, eps_h=1.0)
        amp, j_c, _, _, theta, cooling = fridge_observables(p)
        assert amp < 0 and not cooling
        assert theta > p.reservoirs["c"].temperature

    def test_sign_matches_imbalance_for_small_g(self, rng):
        for _ in range(8):
            p = random_fridge(rng)
            small = FridgeParams(p.eps_c, p.eps_h, 1e-3, p.reservoirs)
            amp = fridge_observables(small)[0]
            dn = occupation_imbalance(small)
            if abs(dn) > 1e-10:
                assert math.copysign(1, amp) == math.copysign(1, dn)


class TestPerturbation:
    def test_leading_order_accuracy(self):
        p0 = fridge()
        kappa_sum = sum(p0.effective_rate(t) for t in ("c", "h", "r"))
        p = FridgeParams(p0.eps_c, p0.eps_h, 1e-3 * kappa_sum, p0.reservoirs)
        gen, _ = fridge_generator(p)
        full = exchange_amplitude(p, steady_state(gen))
        approx = fridge_perturbative_I(p)
        assert abs(full - approx) / abs(full) <= 1e-3

    def test_zero_imbalance_gives_zero(self):
        # equal temperatures: resonance makes delta_n vanish identically
        p = fridge(tc=1.0, th=1.0, tr=1.0)
        assert occupation_imbalance(p) == pytest.approx(0.0, abs=1e-15)
        assert fridge_perturbative_I(p) == pytest.approx(0.0, abs=1e-18)

    def test_quadratic_in_g(self):
        p0 = fridge()
        p1 = FridgeParams(p0.eps_c, p0.eps_h, 0.01, p0.reservoirs)
        p2 = FridgeParams(p0.eps_c, p0.eps_h, 0.02, p0.reservoirs)
        assert fridge_perturbative_I(p2) / fridge_perturbative_I(p1) == pytest.approx(4.0)


class TestCoherentTransient:
    def test_exact_rabi_at_zero_coupling(self):
        p = fridge(kc=0.0, kh=0.0, kr=0.0, g=0.06)
        dn = occupation_imbalance(p)
        nfc = p.qubit_occupation("c")
        t_max = 2 * math.pi / p.g
        times, occs, _ = fridge_coherent_transient(p, t_max, 160)
        expected = nfc - dn * np.sin(p.g * times) ** 2
        assert np.max(np.abs(occs - expected)) < 1e-10

    def test_occupation_stays_positive(self, rng):
        for _ in range(6):
            p = random_fridge(rng)
            assert occupation_imbalance(p) <= p.qubit_occupation("c") + 1e-12
            zero = fridge(kc=0.0, kh=0.0, kr=0.0, g=0.05,
                          eps_c=p.eps_c, eps_h=p.eps_h)
            _, occs, _ = fridge_coherent_transient(zero, 3 * math.pi / 0.05, 200)
            assert occs.min() > -1e-12

    def test_small_coupling_converges_to_rabi(self):
        p = fridge(kc=2e-4, kh=2e-4, kr=2e-4, g=0.06)
        dn = occupation_imbalance(p)
        nfc = p.qubit_occupation("c")
        times, occs, _ = fridge_coherent_transient(p, math.pi / p.g, 60)
        expected = nfc - dn * np.sin(p.g * times) ** 2
        # pointwise O(kappa/g) agreement
        assert np.max(np.abs(occs - expected)) < 5 * (2e-4 / 0.06)

    def test_first_minimum_approaches_quarter_period(self):
        # cooling window: eps_c/eps_h below the Carnot COP boundary
        p = fridge(eps_c=0.3, eps_h=1.0, kc=1e-4, kh=1e-4, kr=1e-4, g=0.06)
        assert occupation_imbalance(p) > 0
        t_min, theta_min, theta_ss = fridge_switchoff_protocol(p)
        assert t_min == pytest.approx(math.pi / (2 * p.g), rel=1e-2)
        assert theta_min < theta_ss

    def test_switchoff_dip_below_steady_state(self):
        p = fridge(eps_c=0.3, eps_h=1.0, g=0.05, kc=0.005, kh=0.005, kr=0.005)
        assert occupation_imbalance(p) > 0
        t_min, theta_min, theta_ss = fridge_switchoff_protocol(p)
        assert theta_min < theta_ss

    @pytest.mark.parametrize("g, message", [
        (0.0, "params.g = 0.0 must be > 0"),
        (-0.5, "params.g = -0.5 must be > 0"),
        (1e-320, "params.g = 1e-320 is too small for the switch-off protocol"),
    ])
    def test_protocol_names_a_g_it_cannot_scan(self, g, message):
        # the coarse scan runs 3 periods pi/g at step 0.01/g; at g = 1e-320
        # both overflow, and their ratio used to be int(nan)
        p = fridge(eps_c=0.3, eps_h=1.0, g=g)
        for protocol in (fridge_switchoff_protocol,
                         lambda q: fridge_switchoff_transient(q, None, 10)):
            with pytest.raises(ValueError, match=re.escape(message)):
                protocol(p)

    def test_theta_rule(self):
        # theta where 0 < p < 1/2, inf elsewhere
        thetas = _thetas([-1e-17, 0.0, 0.25, 0.5, 0.7], 0.6)
        assert thetas[2] == pytest.approx(0.6 / math.log(3.0))
        assert np.isinf(np.delete(thetas, 2)).all()

    def test_switchoff_protocol_theta_outside_the_rule_is_inf(self):
        # a steady state at occupation 1/2 has no effective temperature
        p = fridge(eps_c=0.3, eps_h=1.0, g=0.05, kc=0.005, kh=0.005, kr=0.005)
        with mock.patch("qthermo.models.fridge.steady_state",
                        return_value=np.eye(8) / 8):
            _, theta_min, theta_ss = fridge_switchoff_protocol(p)
        assert math.isfinite(theta_min) and theta_ss == math.inf

    def test_switchoff_transient(self):
        p = fridge(eps_c=0.3, eps_h=1.0, g=0.05, kc=0.005, kh=0.005, kr=0.005)
        times, occs, thetas, on = fridge_switchoff_transient(p, None, 60)
        n_on = int(on.sum())
        assert on[:n_on].all() and not on[n_on:].any()
        # the on segment is the coherent transient up to t_min, bit for bit
        t_min = times[n_on - 1]
        expected = fridge_coherent_transient(p, t_min, n_on)
        for got, want in zip((times, occs, thetas), expected):
            assert np.array_equal(got[:n_on], want)
        # switched off at the minimum, the cold qubit only warms up
        assert np.argmin(thetas) == n_on - 1
        assert np.all(np.diff(occs[n_on - 1:]) > 0)
        assert times[-1] == pytest.approx(3.0 * t_min)
        with pytest.raises(ValueError, match="must exceed the first"):
            fridge_switchoff_transient(p, t_min, 60)

    def test_no_minimum_raises(self):
        # delta_n < 0 (heating side): occupation rises monotonically at
        # first, no interior cooling minimum within the horizon
        p0 = fridge()
        boundary = cooling_window_boundary(p0)
        p = fridge(eps_c=1.5 * boundary, eps_h=1.0, g=0.05,
                   kc=0.005, kh=0.005, kr=0.005)
        assert occupation_imbalance(p) < 0
        with mock.patch("qthermo.models.fridge.T_MIN_HORIZON_PERIODS", 0.45):
            with pytest.raises(NumericalError, match="no occupation minimum"):
                fridge_switchoff_protocol(p)
