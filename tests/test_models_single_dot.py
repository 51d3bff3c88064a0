import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qthermo.lindblad import (all_currents, local_detailed_balance_check,
                              propagate, steady_state)
from qthermo.models import (SingleDotParams, ValidityWarning, engine_cop,
                            engine_efficiency, engine_regime,
                            engine_steady_power, single_dot_generator,
                            single_dot_occupation, stopping_voltage)
from qthermo.models.single_dot import carnot_cop, carnot_efficiency
from qthermo.thermo import ReservoirSpec, fermi_dirac

QD_ED = dict(eps_d=2.0, t_c=0.3, t_h=0.8, mu_c=1.0, mu_h=0.0, kappa=1.0)


def engine_params(eps_d=None, mu_c=None, t_c=None, t_h=None,
                  kappa_c=None, kappa_h=None, mu_h=None):
    return SingleDotParams(
        QD_ED["eps_d"] if eps_d is None else eps_d,
        {"c": ReservoirSpec(QD_ED["t_c"] if t_c is None else t_c,
                            QD_ED["mu_c"] if mu_c is None else mu_c,
                            "fermionic",
                            QD_ED["kappa"] if kappa_c is None else kappa_c),
         "h": ReservoirSpec(QD_ED["t_h"] if t_h is None else t_h,
                            QD_ED["mu_h"] if mu_h is None else mu_h,
                            "fermionic",
                            QD_ED["kappa"] if kappa_h is None else kappa_h)})


class TestGenerator:
    def test_single_reservoir_thermalizes(self):
        res = ReservoirSpec(0.6, 0.15, "fermionic", 0.05)
        params = SingleDotParams(1.2, {"B": res})
        gen, _ = single_dot_generator(params)
        nf = fermi_dirac(1.2, res)
        rho = steady_state(gen)
        assert np.max(np.abs(rho - np.diag([1 - nf, nf]))) < 1e-10

    def test_two_bath_relaxation_rate_and_target(self):
        params = engine_params(kappa_c=0.02, kappa_h=0.07)
        gen, _ = single_dot_generator(params)
        gamma = 0.02 + 0.07
        res_c, res_h = params.reservoirs["c"], params.reservoirs["h"]
        nbar = (0.02 * fermi_dirac(2.0, res_c)
                + 0.07 * fermi_dirac(2.0, res_h)) / gamma
        for t in (1.0, 5.0):
            got = propagate(gen, np.diag([1.0, 0.0]).astype(complex), t)[1, 1].real
            want = single_dot_occupation(params, 0.0, t)
            assert got == pytest.approx(want, abs=1e-12)
            assert want == pytest.approx(nbar * (1 - math.exp(-gamma * t)),
                                         rel=1e-12)

    def test_local_detailed_balance_per_reservoir(self):
        params = engine_params(kappa_c=0.01, kappa_h=0.03)
        gen, ledger = single_dot_generator(params)
        for tag in ("c", "h"):
            chans = [ch for ch in gen.channels if ch.reservoir == tag]
            out_ch = next(c for c in chans if c.particle_quantum == 1)
            in_ch = next(c for c in chans if c.particle_quantum == -1)
            assert local_detailed_balance_check(
                in_ch, out_ch, params.reservoirs[tag]) is True

    def test_born_markov_warning(self):
        with pytest.warns(ValidityWarning):
            SingleDotParams(1.0, {"B": ReservoirSpec(0.5, 0.0, "fermionic", 2.0)})

    def test_warning_names_the_line_that_built_the_params(self):
        with pytest.warns(ValidityWarning) as caught:
            SingleDotParams(1.0, {"B": ReservoirSpec(0.5, 0.0, "fermionic", 2.0)})
        assert [w.filename for w in caught] == [__file__]

    def test_three_reservoirs_rejected(self):
        res = ReservoirSpec(1.0, 0.0, "fermionic", 0.01)
        with pytest.raises(ValueError):
            SingleDotParams(1.0, {"a": res, "b": res, "c": res})


class TestSteadyPower:
    def test_zero_voltage(self):
        assert engine_steady_power(engine_params(mu_c=0.0)) == 0.0

    def test_stopping_voltage_zero_power(self):
        mu_stop = 2.0 - (0.3 / 0.8) * 2.0  # n_F^h = n_F^c point
        assert abs(engine_steady_power(engine_params(mu_c=mu_stop))) < 1e-15

    def test_formula_matches_bookkeeping(self):
        params = engine_params()
        gen, ledger = single_dot_generator(params)
        rho = steady_state(gen)
        cur = all_currents(gen, ledger, rho)
        p_numeric = cur["c"][1] + cur["h"][1]
        p_formula = engine_steady_power(params)
        assert abs(p_formula - p_numeric) <= 1e-9 * max(abs(p_formula), 1e-15)


class TestEfficiency:
    def test_derived_value(self):
        assert engine_efficiency(engine_params(eps_d=2.0, mu_c=1.0)) == pytest.approx(0.5)

    def test_carnot_meeting_point(self):
        # eps_d = (mu_c T_h - mu_h T_c)/(T_h - T_c): engine meets fridge
        eps_star = (1.0 * 0.8 - 0.0 * 0.3) / (0.8 - 0.3)
        params = engine_params(eps_d=eps_star)
        assert engine_efficiency(params) == pytest.approx(carnot_efficiency(params),
                                                          rel=1e-12)
        assert engine_cop(params) == pytest.approx(carnot_cop(params), rel=1e-12)
        assert abs(engine_steady_power(params)) < 1e-14

    def test_kelvin_planck(self):
        # equal temperatures: no conversion of heat into work, anywhere
        for eps_d in np.linspace(-3.0, 3.1, 11):
            for mu_c in np.linspace(-1.0, 1.05, 7):
                params = engine_params(eps_d=eps_d, mu_c=mu_c, t_c=0.5, t_h=0.5)
                assert engine_steady_power(params) <= 1e-15

    def test_undefined_at_matching_potentials(self):
        assert engine_efficiency(engine_params(eps_d=0.0, mu_h=0.0)) is None
        assert engine_efficiency(engine_params(mu_c=0.0, mu_h=0.0)) == 0.0
        assert engine_cop(engine_params(mu_c=0.0, mu_h=0.0)) is None

    def test_efficiency_below_carnot_on_grid(self):
        # 50x50 grid in (eps_d, mu_c): eta <= eta_C wherever P >= 0
        eta_c = 1 - 0.3 / 0.8
        for eps_d in np.linspace(0.11, 6.0, 50):
            for mu_c in np.linspace(-2.0, 1.9, 50):
                params = engine_params(eps_d=eps_d, mu_c=mu_c)
                if engine_steady_power(params) >= 0:
                    eta = engine_efficiency(params)
                    assert eta <= eta_c + 1e-12


class TestRegimes:
    def test_joint_heating_between_potentials(self):
        assert engine_regime(engine_params(eps_d=0.5)) == "joint_heating"

    def test_heat_engine_at_large_level(self):
        assert engine_regime(engine_params(eps_d=2.0)) == "heat_engine"

    def test_refrigerator_window(self):
        # between mu_c and the Carnot point: heat leaves the cold reservoir
        assert engine_regime(engine_params(eps_d=1.2)) == "refrigerator"

    def test_dual_dissipation_below_potentials(self):
        assert engine_regime(engine_params(eps_d=-1.0)) == "dual_dissipation"

    def test_power_sign_flips_across_stopping_voltage(self):
        params = engine_params()
        mu_stop = stopping_voltage(params)
        assert mu_stop == pytest.approx(1.25, abs=1e-9)
        assert engine_steady_power(engine_params(mu_c=mu_stop - 1e-3)) > 0
        assert engine_steady_power(engine_params(mu_c=mu_stop + 1e-3)) < 0


class TestStoppingVoltage:
    """mu_c = eps_d - (T_c/T_h)(eps_d - mu_h), where n_F^c = n_F^h at eps_d."""

    @pytest.mark.parametrize("eps_d, mu_h, mu_stop", [
        (2.0, 0.0, 1.25), (-1.0, 0.0, -0.625), (0.5, 1.0, 0.6875)])
    def test_closed_form_values(self, eps_d, mu_h, mu_stop):
        params = engine_params(eps_d=eps_d, mu_h=mu_h)
        got = stopping_voltage(params)
        assert got == pytest.approx(mu_stop, abs=1e-12)
        stopped = engine_params(eps_d=eps_d, mu_h=mu_h, mu_c=got)
        assert abs(engine_steady_power(stopped)) < 1e-15

    @pytest.mark.parametrize("overrides", [
        {"t_c": 0.5, "t_h": 0.5}, {"eps_d": 0.0, "mu_h": 0.0},
        {"eps_d": 0.7, "mu_h": 0.7}])
    def test_no_stopping_voltage(self, overrides):
        # the power vanishes only at mu_c = mu_h
        with pytest.raises(ValueError, match="no stopping voltage"):
            stopping_voltage(engine_params(**overrides))

    @settings(max_examples=200, deadline=None)
    @given(mu_h=st.floats(-2.0, 2.0), gap=st.floats(0.01, 3.0),
           below=st.booleans(), t_c=st.floats(0.05, 2.0),
           t_h=st.floats(0.05, 2.0), kappa_c=st.floats(0.01, 2.0),
           kappa_h=st.floats(0.01, 2.0))
    def test_occupations_meet_at_carnot(self, mu_h, gap, below, t_c, t_h,
                                        kappa_c, kappa_h):
        assume(t_c != t_h)
        eps_d = mu_h - gap if below else mu_h + gap
        args = dict(eps_d=eps_d, mu_h=mu_h, t_c=t_c, t_h=t_h,
                    kappa_c=kappa_c, kappa_h=kappa_h)
        stopped = engine_params(mu_c=stopping_voltage(engine_params(**args)),
                                **args)
        cold, hot = stopped.reservoirs["c"], stopped.reservoirs["h"]
        assert fermi_dirac(eps_d, cold) == pytest.approx(
            fermi_dirac(eps_d, hot), abs=1e-12)
        assert engine_efficiency(stopped) == pytest.approx(
            carnot_efficiency(stopped), abs=1e-9)
