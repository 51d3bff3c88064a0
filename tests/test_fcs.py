import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qthermo import qcore
from qthermo.fcs import (CountingError, cgf, counting_liouvillian, cumulants,
                         dominant_eigenvalue, dominant_eigenvalue_path,
                         heat_and_work_weights, particle_weights,
                         spectral_gap, tur_audit, tur_engine_form)
from qthermo.lindblad import (GKLSGenerator, JumpChannel, ThermoLedger,
                              build_liouvillian, entropy_production_rate,
                              steady_state)
from qthermo.models.common import LOWER, NUMBER, RAISE
from qthermo.models.double_dot import DoubleDotParams, double_dot_generator
from qthermo.models.single_dot import SingleDotParams, single_dot_generator
from qthermo.qcore import trace_vector
from qthermo.thermo import ReservoirSpec, fermi_dirac


def high_bias_dot(kappa_l, kappa_r):
    """Unidirectional dot: fill from L, empty to R; counting on R."""
    gen = GKLSGenerator(0.0 * NUMBER, (
        JumpChannel(RAISE, kappa_l, "L", energy_quantum=0.0, particle_quantum=-1),
        JumpChannel(LOWER, kappa_r, "R", energy_quantum=0.0, particle_quantum=1)))
    return gen, particle_weights(gen, "R")


def nu_plus(chi, kappa_l, kappa_r):
    """Dominant tilted eigenvalue of the unidirectional dot (principal
    branch)."""
    return (-(kappa_l + kappa_r) / 2
            + 0.5 * cmath.sqrt((kappa_l - kappa_r) ** 2
                               + 4 * cmath.exp(1j * chi) * kappa_l * kappa_r))


def analytic_cumulants(kappa_l, kappa_r, max_order, radius=0.1, n_points=512):
    """Exact chi-derivatives of the analytic CGF via a Cauchy integral.

    Taylor coefficients of nu_plus around chi = 0 from an FFT over a
    small circle in the complex chi plane; independent of the
    recursion under test.
    """
    thetas = 2 * np.pi * np.arange(n_points) / n_points
    vals = np.array([nu_plus(radius * np.exp(1j * th), kappa_l, kappa_r)
                     for th in thetas])
    coeffs = np.fft.fft(vals) / n_points  # a_k * radius^k
    out = []
    for k in range(1, max_order + 1):
        a_k = coeffs[k] / radius ** k
        out.append(((-1j) ** k * a_k * math.factorial(k)).real)
    return out


def biased_dot(eps=1.0, kappa_l=0.6, kappa_r=0.4, t=0.5, mu_l=0.8, mu_r=-0.8):
    res_l = ReservoirSpec(t, mu_l, "fermionic", kappa_l)
    res_r = ReservoirSpec(t, mu_r, "fermionic", kappa_r)
    nl, nr = fermi_dirac(eps, res_l), fermi_dirac(eps, res_r)
    gen = GKLSGenerator(eps * NUMBER, (
        JumpChannel(LOWER, kappa_l * (1 - nl), "L", eps, 1),
        JumpChannel(RAISE, kappa_l * nl, "L", -eps, -1),
        JumpChannel(LOWER, kappa_r * (1 - nr), "R", eps, 1),
        JumpChannel(RAISE, kappa_r * nr, "R", -eps, -1)))
    ledger = ThermoLedger(eps * NUMBER, NUMBER, {"L": res_l, "R": res_r})
    return gen, ledger


class TestCountingLiouvillian:
    def test_zero_fields_bitwise_equal(self):
        gen, w = high_bias_dot(1.3, 0.7)
        bare = build_liouvillian(gen)
        tilted = counting_liouvillian(gen, 0.0 * w)
        assert np.array_equal(bare, tilted)

    def test_population_block_matches_display(self):
        kl, kr, chi = 1.3, 0.7, 0.9
        gen, w = high_bias_dot(kl, kr)
        tilted = counting_liouvillian(gen, chi * w)
        # populations sit at vec indices 0 (|0><0|) and 3 (|1><1|)
        block = tilted[np.ix_([0, 3], [0, 3])]
        expected = np.array([[-kl, kr * cmath.exp(1j * chi)],
                             [kl, -kr]])
        assert np.max(np.abs(block - expected)) < 1e-14

    def test_counting_breaks_trace_preservation(self):
        gen, w = high_bias_dot(1.3, 0.7)
        tilted = counting_liouvillian(gen, 0.5 * w)
        resid = trace_vector(2) @ tilted
        assert np.max(np.abs(resid)) > 1e-3

    def test_wrong_length_rejected(self):
        gen, w = high_bias_dot(1.0, 1.0)
        with pytest.raises(ValueError, match=r"phases has shape \(3,\), "
                                             r"need \(2,\)"):
            counting_liouvillian(gen, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"weights has shape \(1,\), "
                                             r"need \(2,\)"):
            cumulants(gen, w[:1])

    def test_uncounted_reservoir_rejected(self):
        gen, _ = high_bias_dot(1.0, 1.0)
        with pytest.raises(ValueError,
                           match="no counted transitions for reservoir 'X'"):
            particle_weights(gen, "X")


class TestCGF:
    def test_zero_field_zero(self, rng):
        gen, w = high_bias_dot(1.1, 0.5)
        rho0 = qcore.random_density_matrix(2, rng)
        for t in (0.0, 0.7, 5.0):
            assert cgf(gen, 0.0 * w, t, rho0) == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_rejected(self, rng, t):
        gen, w = high_bias_dot(1.1, 0.5)
        rho0 = qcore.random_density_matrix(2, rng)
        with pytest.raises(ValueError, match="time t must be finite"):
            cgf(gen, 0.3 * w, t, rho0)

    def test_long_time_slope_equals_dominant_eigenvalue(self, rng):
        gen, w = high_bias_dot(1.1, 0.5)
        rho0 = qcore.random_density_matrix(2, rng)
        gap = spectral_gap(build_liouvillian(gen))
        t = 100.0 / gap
        for chi in (0.4, 1.7, 3.0):
            s1 = cgf(gen, chi * w, t, rho0)
            s2 = cgf(gen, chi * w, 2 * t, rho0)
            slope = (s2 - s1) / t
            nu = dominant_eigenvalue(counting_liouvillian(gen, chi * w))
            assert abs(slope - nu) <= 1e-6 * abs(nu)

    def test_analytic_high_bias_cgf(self, rng):
        kl, kr = 8.0, 1.0  # ratio outside the branch-crossing window
        gen, w = high_bias_dot(kl, kr)
        for chi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            nu = dominant_eigenvalue(counting_liouvillian(gen, chi * w))
            assert abs(nu - nu_plus(chi, kl, kr)) < 1e-10


class TestDominantEigenvalue:
    def test_zero_at_zero_field(self, rng):
        gen, ledger = biased_dot()
        assert abs(dominant_eigenvalue(build_liouvillian(gen))) < 1e-10

    def test_matches_two_level_formula(self):
        kl, kr = 1.3, 0.7
        gen, w = high_bias_dot(kl, kr)
        for chi in (0.0, 0.8, 2.9):
            nu = dominant_eigenvalue(counting_liouvillian(gen, chi * w))
            assert abs(nu - nu_plus(chi, kl, kr)) < 1e-12

    def test_continuity_along_chi(self):
        # tracking oracle: small-step continuation never jumps
        gen, w = high_bias_dot(1.0, 0.9)
        chis = np.linspace(0.0, 2 * np.pi, 400)
        path = dominant_eigenvalue_path(gen, w, chis)
        steps = np.abs(np.diff(path))
        assert steps.max() < 0.1 * (1.0 + 0.9)


class TestCumulants:
    def test_mean_current(self):
        kl, kr = 1.3, 0.7
        gen, w = high_bias_dot(kl, kr)
        [c1] = cumulants(gen, w, max_order=1)
        assert c1 == pytest.approx(kl * kr / (kl + kr), abs=1e-10)

    def test_fano_factor_analytic(self):
        # oracle: second chi-derivative of the analytic CGF; the closed
        # form (kl^2 + kr^2)/(kl + kr)^2 is cross-checked against the
        # Cauchy-integral derivative as well
        kl, kr = 1.3, 0.7
        gen, w = high_bias_dot(kl, kr)
        c1, c2 = cumulants(gen, w, max_order=2)
        mean = kl * kr / (kl + kr)
        variance = mean * (kl ** 2 + kr ** 2) / (kl + kr) ** 2
        exact = analytic_cumulants(kl, kr, 2)
        assert exact[0] == pytest.approx(mean, rel=1e-12)
        assert exact[1] == pytest.approx(variance, rel=1e-10)
        fano = c2 / c1
        assert fano == pytest.approx(variance / mean, rel=1e-6)

    def test_poisson_limit_exact_deviations(self):
        # at kappa_L = 100 kappa_R the exact cumulants still sit below
        # kappa_R by (2^k - 1)/100 to leading order; check both the exact
        # values (Cauchy-integral oracle) and the leading deviation law
        kl, kr = 100.0, 1.0
        gen, w = high_bias_dot(kl, kr)
        cs = cumulants(gen, w, max_order=4)
        exact = analytic_cumulants(kl, kr, 4)
        eps = kr / kl
        for order, (c, value) in enumerate(zip(cs, exact), 1):
            assert c == pytest.approx(value, rel=1e-6)
            leading = kr * (1 - (2 ** order - 1) * eps)
            assert abs(c - leading) < 200 * eps ** 2 * kr

    def test_poisson_limit_trend(self):
        # cumulants 1..4 all converge to kappa_R as the ratio grows
        kr = 1.0
        worst = []
        for kl in (1e2, 1e3, 1e4):
            gen, w = high_bias_dot(kl, kr)
            cs = cumulants(gen, w, max_order=4)
            worst.append(max(abs(c - kr) / kr for c in cs))
        assert worst[0] > worst[1] > worst[2]
        assert worst[2] < 2e-3

    @pytest.mark.parametrize("kl, kr", [(1.3, 0.7), (8.0, 1.0), (100.0, 1.0)])
    def test_exact_against_analytic_cgf(self, kl, kr):
        gen, w = high_bias_dot(kl, kr)
        cs = cumulants(gen, w, max_order=4)
        exact = analytic_cumulants(kl, kr, 4)
        assert cs.shape == (4,)
        for c, value in zip(cs, exact):
            assert c == pytest.approx(value, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(local_double=st.booleans(), eps=st.floats(-1.0, 1.0),
           g=st.floats(0.05, 0.4), t_l=st.floats(0.3, 2.0),
           t_r=st.floats(0.3, 2.0), mu_l=st.floats(-1.5, 1.5),
           mu_r=st.floats(-1.5, 1.5), kappa_l=st.floats(0.1, 2.0),
           kappa_r=st.floats(0.1, 2.0))
    def test_matches_contour_oracle(self, local_double, eps, g, t_l, t_r,
                                    mu_l, mu_r, kappa_l, kappa_r):
        # independent oracle: Taylor coefficients of the numerically
        # computed dominant eigenvalue from an FFT over a circle in chi
        if local_double:
            gen, _ = double_dot_generator(DoubleDotParams(eps, g, {
                "L": ReservoirSpec(t_l, mu_l, "fermionic", kappa_l),
                "R": ReservoirSpec(t_r, mu_r, "fermionic", kappa_r)}))
        else:
            gen, _ = biased_dot(eps, kappa_l, kappa_r, t_l, mu_l, mu_r)
        w = particle_weights(gen, "R")
        gap = spectral_gap(build_liouvillian(gen))
        scale = sum(ch.rate for ch in gen.channels)
        radius = min(0.5, 0.2 * gap / scale)
        n_points = 64
        chis = radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)
        nus = [dominant_eigenvalue(counting_liouvillian(gen, c * w))
               for c in chis]
        coeffs = np.fft.fft(nus) / n_points
        cs = cumulants(gen, w, max_order=4)
        for k, c in enumerate(cs, 1):
            oracle = ((-1j) ** k * coeffs[k] * math.factorial(k)
                      / radius ** k).real
            # the oracle's rounding error is about 1e-16 * |nu| k! / radius^k
            # with |nu| <~ scale * radius; the worst seen is 32 times that
            tol = 1e-13 * scale * math.factorial(k) / radius ** (k - 1)
            assert abs(c - oracle) <= tol

    def test_degenerate_dominant_eigenvalue_rejected(self):
        # two decoupled dots: the Liouvillian kernel is degenerate
        from qthermo.qcore import kron
        ident = np.eye(2)
        gen = GKLSGenerator(np.zeros((4, 4)), (
            JumpChannel(kron(LOWER, ident), 0.5, "A", 0.0, 1),
            JumpChannel(kron(RAISE, ident), 0.5, "A", 0.0, -1),
            JumpChannel(kron(ident, LOWER), 0.5, "B", 0.0, 1),
            JumpChannel(kron(ident, RAISE), 0.5, "B", 0.0, -1)))
        # decoupled blocks conserve each dot's parity sectors separately;
        # here both dots relax, so instead make one dot rate zero:
        gen = GKLSGenerator(np.zeros((4, 4)), (
            JumpChannel(kron(LOWER, ident), 0.5, "A", 0.0, 1),
            JumpChannel(kron(RAISE, ident), 0.5, "A", 0.0, -1)))
        with pytest.raises(CountingError):
            cumulants(gen, particle_weights(gen, "A"), max_order=1)


class TestEquilibriumSymmetry:
    def test_real_part_even_in_chi(self):
        # two reservoirs at the same temperature and potential, counting
        # net particles into one of them: Re S(chi) = Re S(-chi)
        gen, ledger = biased_dot(mu_l=0.2, mu_r=0.2)
        w = particle_weights(gen, "R")
        for chi in (0.3, 1.1, 2.6):
            plus = dominant_eigenvalue(counting_liouvillian(gen, chi * w))
            minus = dominant_eigenvalue(counting_liouvillian(gen, -chi * w))
            assert plus.real == pytest.approx(minus.real, abs=1e-12)

    def test_heat_work_config_covers_all_channels(self):
        gen, ledger = biased_dot()
        (heat_l, work_l), (heat_r, work_r) = (
            heat_and_work_weights(gen, ledger, tag) for tag in "LR")
        for weights in (heat_l, work_l, heat_r, work_r):
            assert weights.shape == (len(gen.channels),)
        # L and R each own two of the four channels
        assert np.array_equal(heat_l != 0, [True, True, False, False])
        assert np.array_equal(work_r != 0, [False, False, True, True])
        tilted = counting_liouvillian(gen, 0.2 * heat_l - 0.4 * work_r)
        assert np.max(np.abs(tilted - build_liouvillian(gen))) > 1e-6

    def test_engine_heat_plus_work_is_energy_quantum(self):
        params = SingleDotParams(2.0, {
            "c": ReservoirSpec(0.3, 1.0, "fermionic", 0.01),
            "h": ReservoirSpec(0.8, 0.0, "fermionic", 0.01)})
        gen, ledger = single_dot_generator(params)
        total = sum(heat + work for heat, work in
                    (heat_and_work_weights(gen, ledger, tag) for tag in "ch"))
        quanta = [ch.energy_quantum for ch in gen.channels]
        assert np.max(np.abs(total - quanta)) <= 1e-12


class TestTUR:
    def test_classical_dot_grid(self):
        # classical Markov transport: the bound holds at every grid point
        for bias in np.linspace(0.3, 3.0, 6):
            for asym in (0.2, 1.0, 5.0):
                gen, ledger = biased_dot(kappa_l=0.5 * asym, kappa_r=0.5,
                                         mu_l=bias / 2, mu_r=-bias / 2)
                c1, c2 = cumulants(gen, particle_weights(gen, "R"),
                                   max_order=2)
                sdot = entropy_production_rate(gen, ledger, steady_state(gen))
                audit = tur_audit(c1, c2, sdot)
                assert audit.satisfied is True

    def test_equilibrium_bound_flagged(self):
        audit = tur_audit(1.0, 2.0, 0.0)
        assert audit.bound == math.inf
        assert audit.satisfied is None

    def test_zero_mean_rejected(self):
        with pytest.raises(CountingError):
            tur_audit(0.0, 1.0, 1.0)

    def test_underflowing_mean_rejected(self):
        # 1e-170 ** 2 underflows to 0, so the ratio would divide by zero
        with pytest.raises(CountingError, match="nonzero mean current"):
            tur_audit(1e-170, 1.0, 1.0)

    @pytest.mark.parametrize("mean", [1e200, -1e200, np.float64(1e200)])
    def test_overflowing_mean_rejected(self, mean):
        # 1e200 ** 2 overflows: a float's ** raises, numpy's gives inf
        with pytest.raises(CountingError, match="overflows"):
            tur_audit(mean, 1.0, 1.0)

    def test_engine_form_bounded(self):
        # printed engine combination evaluates <= 1/2 (trivially negative
        # in the engine regime); the tight version is tur_audit itself
        value = tur_engine_form(power_out=0.02, eta=0.4, eta_carnot=0.625,
                                t_cold=0.3, power_variance_rate=0.05)
        assert value <= 0.5
