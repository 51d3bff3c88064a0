"""Acceptance suite: one test per criterion, each printing a summary line.

Criteria run at their stated tolerances; nothing is deferred to later
calibration. Criterion 7's Poisson clause is expected to fail: at
kappa_L = 100 kappa_R the exact model cumulants sit (2^k - 1)% below
kappa_R (2.9% / 6.7% / 13.9% for orders 2-4), so "equal to kappa_R
within 1%" is unattainable for any implementation; the failing assertion
is kept, marked as an expected failure, and reported FAIL in the
summary. The analysis is in the README, "Install and test".
"""

import cmath
import math

import numpy as np
import pytest

from conftest import record_criterion
from qthermo.fcs import (counting_liouvillian, cumulants, dominant_eigenvalue,
                         particle_weights, tur_audit, tur_engine_form)
from qthermo.lindblad import (GKLSGenerator, JumpChannel, all_currents,
                              entropy_production_rate, propagate,
                              steady_state)
from qthermo.models import (DoubleDotParams, FridgeParams, SingleDotParams,
                            double_dot_concurrence, double_dot_generator,
                            double_dot_state_closed_form, double_dot_state_ss,
                            fridge_generator, fridge_perturbative_I,
                            single_dot_generator, single_dot_occupation,
                            stopping_voltage)
from qthermo.models.common import LOWER, NUMBER, RAISE
from qthermo.models.fridge import cooling_window_boundary, exchange_amplitude
from qthermo.models.single_dot import carnot_efficiency, engine_efficiency
from qthermo.qcore import random_density_matrix
from qthermo.thermo import ReservoirSpec
from qthermo.trajectories import (TPMProtocol, backward_protocol, crooks_check,
                                  ft_estimators, jarzynski_estimate,
                                  tpm_distribution, tpm_sample, unravel)

GOLDEN = (1 + math.sqrt(5)) / 2
C_STAR = (math.sqrt(5) - 1) / 4


def extreme_double_dot(g, kappa_l=1.0, kappa_r=1.0):
    """n_F^L = 1 and n_F^R = 0 to double precision."""
    return DoubleDotParams(0.0, g, {
        "L": ReservoirSpec(0.01, 2.0, "fermionic", kappa_l),
        "R": ReservoirSpec(0.01, -2.0, "fermionic", kappa_r)})


def qd_ed_engine(mu_c=1.0, eps_d=2.0, kappa_c=1.0, kappa_h=1.0):
    """Reference-figure parameters: k_B T_c = 0.3, k_B T_h = 0.8, mu_h = 0."""
    return SingleDotParams(eps_d, {
        "c": ReservoirSpec(0.3, mu_c, "fermionic", kappa_c),
        "h": ReservoirSpec(0.8, 0.0, "fermionic", kappa_h)})


def biased_dot(bias, asym, eps=1.0, temp=0.5, kappa=1.0):
    return SingleDotParams(eps, {
        "L": ReservoirSpec(temp, bias / 2, "fermionic", kappa * asym),
        "R": ReservoirSpec(temp, -bias / 2, "fermionic", kappa)})


def random_fridge_params(rng, g=None):
    t_c = rng.uniform(0.2, 0.8)
    t_r = t_c + rng.uniform(0.1, 1.0)
    t_h = t_r + rng.uniform(0.1, 2.0)
    return FridgeParams(
        rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0),
        rng.uniform(0.01, 0.1) if g is None else g,
        {"c": ReservoirSpec(t_c, 0.0, "bosonic", rng.uniform(0.01, 0.08)),
         "h": ReservoirSpec(t_h, 0.0, "bosonic", rng.uniform(0.01, 0.08)),
         "r": ReservoirSpec(t_r, 0.0, "bosonic", rng.uniform(0.01, 0.08))})


def test_criterion_1_max_concurrence():
    c_point = double_dot_concurrence(extreme_double_dot(C_STAR))
    assert abs(c_point - C_STAR) <= 1e-9
    best = 0.0
    for g in np.linspace(0.02, 1.0, 50):
        for asym in np.linspace(0.25, 4.0, 40):
            c = double_dot_concurrence(extreme_double_dot(g, 1.0, asym))
            best = max(best, c)
    assert best <= C_STAR + 1e-6
    record_criterion(1, True,
                     f"max concurrence {c_point:.12f} = (sqrt5-1)/4 within "
                     f"1e-9; grid search over (g/kappa, asymmetry) finds "
                     f"nothing larger ({best:.9f} <= C* + 1e-6)")


def test_criterion_2_golden_ratio():
    params = extreme_double_dot(C_STAR)
    rho = double_dot_state_ss(params)
    c = double_dot_concurrence(params)
    alpha = abs(rho[1, 2])
    p0, pd = rho[0, 0].real, rho[3, 3].real
    values = {
        "kappa_L/(2g)": 1.0 / (2 * C_STAR),
        "1/(2C)": 1.0 / (2 * c),
        "|alpha|/(2 sqrt(p0 pd))": alpha / (2 * math.sqrt(p0 * pd)),
    }
    for label, value in values.items():
        assert abs(value - GOLDEN) <= 1e-9, label
    record_criterion(2, True,
                     "golden-ratio identities all within 1e-9: "
                     + ", ".join(f"{k} = {v:.12f}" for k, v in values.items()))


def test_criterion_3_heat_engine_figure():
    eta_c = carnot_efficiency(qd_ed_engine())
    mu_stop = stopping_voltage(qd_ed_engine())
    stopped = qd_ed_engine(mu_c=mu_stop)
    gen, ledger = single_dot_generator(stopped)
    cur = all_currents(gen, ledger, steady_state(gen))
    p_stop = sum(p for _, p in cur.values())
    eta_stop = engine_efficiency(stopped)
    assert abs(p_stop) <= 1e-12
    assert abs(eta_stop - eta_c) <= 1e-9

    # lasso sweep: locate maximum power, check its efficiency
    grid = np.linspace(1e-4, mu_stop - 1e-9, 600)
    powers = []
    for mu_c in grid:
        g, l = single_dot_generator(qd_ed_engine(mu_c=mu_c))
        c = all_currents(g, l, steady_state(g))
        powers.append(sum(p for _, p in c.values()))
    best = int(np.argmax(powers))
    eta_mp = engine_efficiency(qd_ed_engine(mu_c=grid[best]))
    assert powers[best] > 0
    assert eta_mp > 0.60 * eta_c
    record_criterion(3, True,
                     f"|P(stop)| = {abs(p_stop):.2e} <= 1e-12, eta(stop) = "
                     f"eta_C = {eta_stop:.6f}; eta at max power = "
                     f"{eta_mp:.4f} = {eta_mp / eta_c:.3f} eta_C > 0.60 eta_C")


def _random_transient_generators(rng):
    """Yield (generator, ledger, dim) across the four machine models."""
    for _ in range(25):
        eps = rng.uniform(0.5, 3.0)
        res = ReservoirSpec(rng.uniform(0.3, 2.0), rng.uniform(-1, 1),
                            "fermionic", rng.uniform(0.05, 0.5))
        yield single_dot_generator(SingleDotParams(eps, {"B": res})) + (2,)
    for _ in range(25):
        eps = rng.uniform(0.5, 3.0)
        res_c = ReservoirSpec(rng.uniform(0.2, 0.8), rng.uniform(-1, 1),
                              "fermionic", rng.uniform(0.05, 0.5))
        res_h = ReservoirSpec(rng.uniform(0.9, 2.5), rng.uniform(-1, 1),
                              "fermionic", rng.uniform(0.05, 0.5))
        yield single_dot_generator(
            SingleDotParams(eps, {"c": res_c, "h": res_h})) + (2,)
    for j in range(25):
        eps = rng.uniform(0.5, 3.0)
        mode = "local" if j % 2 == 0 else "secular"
        g = rng.uniform(0.02, 0.2) if mode == "local" else rng.uniform(0.3, 0.8)
        params = DoubleDotParams(eps, g, {
            "L": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                               "fermionic", rng.uniform(0.05, 0.4)),
            "R": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                               "fermionic", rng.uniform(0.05, 0.4))},
            mode=mode)
        yield double_dot_generator(params) + (4,)
    rng_local = np.random.default_rng(rng.integers(2 ** 32))
    for _ in range(25):
        yield fridge_generator(random_fridge_params(rng_local)) + (8,)


def test_criterion_4_second_law_everywhere(rng):
    worst = math.inf
    count = 0
    for gen, ledger, dim in _random_transient_generators(rng):
        rho = random_density_matrix(dim, rng)
        for t in (0.0, rng.uniform(0.2, 2.0), rng.uniform(3.0, 12.0)):
            rho_t = propagate(gen, rho, t)
            sdot = entropy_production_rate(gen, ledger, rho_t)
            worst = min(worst, sdot)
            assert sdot >= -1e-9
        count += 1
    assert count == 100

    # equilibrium steady states: one per model, all reservoirs equal
    eq_res = ReservoirSpec(0.8, 0.2, "fermionic", 0.3)
    eq_bos = ReservoirSpec(0.8, 0.0, "bosonic", 0.03)
    eq_gens = [
        single_dot_generator(SingleDotParams(1.3, {"B": eq_res})),
        single_dot_generator(SingleDotParams(1.3, {"c": eq_res, "h": eq_res})),
        double_dot_generator(DoubleDotParams(1.3, 0.1, {"L": eq_res,
                                                        "R": eq_res})),
        double_dot_generator(DoubleDotParams(1.3, 0.5, {"L": eq_res,
                                                        "R": eq_res},
                                             mode="secular")),
        fridge_generator(FridgeParams(0.5, 0.9, 0.05, {
            "c": eq_bos, "h": eq_bos, "r": eq_bos})),
    ]
    worst_eq = 0.0
    for gen, ledger in eq_gens:
        sdot = entropy_production_rate(gen, ledger, steady_state(gen))
        worst_eq = max(worst_eq, abs(sdot))
        assert abs(sdot) <= 1e-9
    record_criterion(4, True,
                     f"Sigma_dot >= -1e-9 on 100 random transients "
                     f"(min {worst:.2e}); |Sigma_dot| <= 1e-9 at every "
                     f"equilibrium steady state (max {worst_eq:.2e})")


def test_criterion_5_fridge_identities(rng):
    worst_ratio = 0.0
    worst_sum = 0.0
    for _ in range(100):
        p = random_fridge_params(rng)
        gen, ledger = fridge_generator(p)
        rho = steady_state(gen)
        cur = all_currents(gen, ledger, rho)
        j_c, j_h, j_r = cur["c"][0], cur["h"][0], cur["r"][0]
        worst_ratio = max(worst_ratio, abs(j_c / j_h - p.eps_c / p.eps_h))
        worst_sum = max(worst_sum, abs(j_c + j_h + j_r))
        assert abs(j_c / j_h - p.eps_c / p.eps_h) <= 1e-10
        assert abs(j_c + j_h + j_r) <= 1e-10

    # cooling sign flips at the window boundary within grid resolution
    reservoirs = {"c": ReservoirSpec(0.4, 0.0, "bosonic", 0.02),
                  "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
                  "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)}
    boundary = cooling_window_boundary(
        FridgeParams(0.3, 1.0, 0.05, reservoirs))
    step = 1e-4
    ratios = np.arange(boundary - 20 * step, boundary + 20 * step, step)
    signs = []
    for ratio in ratios:
        p = FridgeParams(ratio * 1.0, 1.0, 0.05, reservoirs)
        gen, _ = fridge_generator(p)
        signs.append(math.copysign(1.0, exchange_amplitude(p.g, steady_state(gen))))
    flips = np.where(np.diff(signs) != 0)[0]
    assert flips.size == 1
    flip_at = 0.5 * (ratios[flips[0]] + ratios[flips[0] + 1])
    assert abs(flip_at - boundary) <= step
    record_criterion(5, True,
                     f"J_c/J_h = eps_c/eps_h (max dev {worst_ratio:.2e}) and "
                     f"sum J = 0 (max {worst_sum:.2e}) over 100 draws; "
                     f"cooling sign flip at {flip_at:.6f} vs boundary "
                     f"{boundary:.6f} within 1e-4")


def test_criterion_6_perturbative_fridge():
    base = FridgeParams(0.3, 1.0, 0.01, {
        "c": ReservoirSpec(0.4, 0.0, "bosonic", 0.02),
        "h": ReservoirSpec(2.0, 0.0, "bosonic", 0.03),
        "r": ReservoirSpec(1.0, 0.0, "bosonic", 0.025)})
    kappa_sum = sum(base.effective_rate(t) for t in ("c", "h", "r"))
    p = FridgeParams(base.eps_c, base.eps_h, 1e-3 * kappa_sum, base.reservoirs)
    gen, _ = fridge_generator(p)
    full = exchange_amplitude(p.g, steady_state(gen))
    approx = fridge_perturbative_I(p)
    rel = abs(full - approx) / abs(full)
    assert rel <= 1e-3
    record_criterion(6, True,
                     f"|I_full - 4g^2 dn/sum kappa|/|I_full| = {rel:.2e} "
                     f"<= 1e-3 at g = 1e-3 sum kappa")


def _high_bias_generator(kappa_l, kappa_r):
    gen = GKLSGenerator(0.0 * NUMBER, (
        JumpChannel(RAISE, kappa_l, "L", 0.0, -1),
        JumpChannel(LOWER, kappa_r, "R", 0.0, 1)))
    return gen, particle_weights(gen, "R")


def test_criterion_7_fcs_analytic_match():
    kl, kr = 8.0, 1.0  # coupling ratio keeps the principal branch smooth
    gen, w = _high_bias_generator(kl, kr)
    worst_nu = 0.0
    for chi in np.linspace(0.0, 2 * np.pi, 50, endpoint=False):
        nu = dominant_eigenvalue(counting_liouvillian(gen, chi * w))
        analytic = (-(kl + kr) / 2
                    + 0.5 * cmath.sqrt((kl - kr) ** 2
                                       + 4 * cmath.exp(1j * chi) * kl * kr))
        worst_nu = max(worst_nu, abs(nu - analytic))
        assert abs(nu - analytic) <= 1e-8
    c1, c2 = cumulants(gen, w, max_order=2)
    mean = kl * kr / (kl + kr)
    assert abs(c1 - mean) <= 1e-8
    fano_analytic = (kl ** 2 + kr ** 2) / (kl + kr) ** 2
    fano = c2 / c1
    assert abs(fano - fano_analytic) <= 1e-6
    record_criterion(7, True,
                     f"nu_max matches analytic CGF at 50 chi points (max dev "
                     f"{worst_nu:.2e} <= 1e-8); mean dev "
                     f"{abs(c1 - mean):.2e} <= 1e-8; Fano dev "
                     f"{abs(fano - fano_analytic):.2e} <= 1e-6")


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: at kappa_L = 100 kappa_R the exact cumulants are "
    "kappa_R (1 - (2^k - 1)/100) + O(1e-4), i.e. 2.9%/6.7%/13.9% below "
    "kappa_R for orders 2/3/4 (verified by exact differentiation of the "
    "analytic CGF), so 'cumulants 1-4 equal to kappa_R within 1%' cannot "
    "hold for any implementation; see README, 'Install and test'"))
def test_criterion_7_poisson_clause():
    gen, w = _high_bias_generator(100.0, 1.0)
    cs = cumulants(gen, w, max_order=4)
    devs = [abs(c - 1.0) for c in cs]
    record_criterion(
        7.5, False,
        "Poisson clause FAILS as specified: cumulant deviations from "
        "kappa_R at ratio 100 are "
        + ", ".join(f"{d:.3f}" for d in devs)
        + " (orders 1-4); only order 1 is within 1% — exact model values, "
          "not an implementation artifact (see README, Install and test)")
    for c in cs:
        assert abs(c - 1.0) <= 0.01


def test_criterion_8_jarzynski_crooks_desk_scale():
    eps0, beta, angle, tau = 1.0, 1.0, 0.9, 0.7  # beta * eps0 = 1
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h0 = 0.5 * eps0 * sz
    h1 = 0.5 * eps0 * (math.cos(angle) * sz + math.sin(angle) * sx)
    protocol = TPMProtocol(((0.0, h0), (0.0, h1)), beta, tau)
    dist = tpm_distribution(protocol)
    exact_gap = abs(dist.jarzynski_exact()
                    - math.exp(-beta * dist.delta_free_energy()))
    assert exact_gap <= 1e-10

    n = 1_000_000
    samples = tpm_sample(dist, 2024, n)
    est = jarzynski_estimate(samples.work, beta)
    target = math.exp(-beta * dist.delta_free_energy())
    assert abs(est.estimate - target) <= 4 * est.stderr

    backward = tpm_sample(tpm_distribution(backward_protocol(protocol)), 2025,
                          n)
    values, _ = dist.work_distribution()
    mids = 0.5 * (values[:-1] + values[1:])
    edges = np.concatenate([[values[0] - 0.5], mids, [values[-1] + 0.5]])
    rep = crooks_check(samples.work, backward.work, beta,
                       dist.delta_free_energy(), edges)
    assert abs(rep.slope - (-beta)) <= 3 * rep.slope_stderr
    record_criterion(8, True,
                     f"exact-enumeration Jarzynski gap {exact_gap:.1e} <= "
                     f"1e-10; MC estimate off by "
                     f"{abs(est.estimate - target) / est.stderr:.2f} stderr "
                     f"(<= 4); Crooks slope {rep.slope:.4f} within "
                     f"{abs(rep.slope + beta) / rep.slope_stderr:.2f} sigma "
                     f"of -beta")


def test_criterion_9_open_system_integral_ft():
    params = biased_dot(bias=1.6, asym=1.0)
    gen, ledger = single_dot_generator(params)
    rho = steady_state(gen)
    ens = unravel(gen, ledger, np.real(np.diag(rho)), 2.0, 424242, 1_000_000,
                  record_events=False)
    rep = ft_estimators(ens)
    dev = abs(rep.integral_estimate - 1.0)
    assert dev <= 4 * rep.integral_stderr
    assert rep.negative_fraction > 0.0
    record_criterion(9, True,
                     f"<e^-Sigma> = {rep.integral_estimate:.4f} +- "
                     f"{rep.integral_stderr:.4f} ({dev / rep.integral_stderr:.2f}"
                     f" stderr from 1, <= 4) at N = 1e6; P(Sigma < 0) = "
                     f"{rep.negative_fraction:.3%} > 0")


def test_criterion_10_tur_grids():
    biases = np.linspace(0.2, 3.0, 20)
    asyms = np.geomspace(0.2, 5.0, 20)
    # classical voltage-biased dot
    for bias in biases:
        for asym in asyms:
            params = biased_dot(bias, asym)
            gen, ledger = single_dot_generator(params)
            c1, c2 = cumulants(gen, particle_weights(gen, "R"), max_order=2)
            sdot = entropy_production_rate(gen, ledger, steady_state(gen))
            audit = tur_audit(c1, c2, sdot)
            assert audit.satisfied is True

    # dot engine: plain TUR on the power current plus the printed
    # engine combination
    eta_c = 1 - 0.3 / 0.8
    worst_engine_form = -math.inf
    for mu_c in np.linspace(0.05, 1.2, 20):
        for asym in np.geomspace(0.2, 5.0, 20):
            params = qd_ed_engine(mu_c=mu_c, kappa_c=asym)
            gen, ledger = single_dot_generator(params)
            c1, c2 = cumulants(gen, particle_weights(gen, "c"), max_order=2)
            rho = steady_state(gen)
            sdot = entropy_production_rate(gen, ledger, rho)
            audit = tur_audit(c1, c2, sdot)
            assert audit.satisfied is True
            power = mu_c * c1  # (mu_c - mu_h) I with mu_h = 0
            var_power = mu_c ** 2 * c2
            eta = engine_efficiency(params)
            value = tur_engine_form(power, eta, eta_c, 0.3, var_power)
            worst_engine_form = max(worst_engine_form, value)
            assert value <= 0.5
    record_criterion(10, True,
                     "TUR holds at all 400 grid points for the biased dot "
                     "and the dot engine; engine-form combination max = "
                     f"{worst_engine_form:.4f} <= 1/2")


def test_criterion_11_oracle_equivalence(rng):
    worst_state = 0.0
    for _ in range(100):
        eps = rng.uniform(0.5, 3.0)
        t_l, t_r = rng.uniform(0.4, 1.5, size=2)
        mu_l, mu_r = rng.uniform(-1.0, 1.0, size=2)
        scale = min(max(t_l, abs(eps - mu_l)), max(t_r, abs(eps - mu_r)))
        params = DoubleDotParams(
            eps, rng.uniform(0.05, 0.5) * scale,
            {"L": ReservoirSpec(t_l, mu_l, "fermionic", rng.uniform(0.05, 0.6)),
             "R": ReservoirSpec(t_r, mu_r, "fermionic", rng.uniform(0.05, 0.6))})
        gen, _ = double_dot_generator(params)
        dense = steady_state(gen)
        dev = np.max(np.abs(double_dot_state_closed_form(params) - dense))
        worst_state = max(worst_state, dev)
        assert dev <= 1e-9

    params = SingleDotParams(1.0, {"B": ReservoirSpec(0.5, 0.2, "fermionic",
                                                      0.4)})
    gen, _ = single_dot_generator(params)
    p1_0 = 0.85
    rho0 = np.diag([1 - p1_0, p1_0]).astype(complex)
    worst_transient = 0.0
    for t in np.linspace(0.0, 10.0, 20):
        numeric = propagate(gen, rho0, t)[1, 1].real
        analytic = single_dot_occupation(params, p1_0, t)
        worst_transient = max(worst_transient, abs(numeric - analytic))
        assert abs(numeric - analytic) <= 1e-9
    record_criterion(11, True,
                     f"closed-form double-dot steady state vs dense solver: "
                     f"max elementwise dev {worst_state:.2e} <= 1e-9 over "
                     f"100 draws; analytic single-dot transient vs propagate: "
                     f"max dev {worst_transient:.2e} <= 1e-9 at 20 times")
