"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from a seed (this is the set-up that
``setup_s`` times), runs one pass through the public qthermo API, and
checks every output of the pass with code that does not share the code
path it checks. ``setup_once.py`` times the set-up in a fresh interpreter.
"""

import cmath
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qthermo.cli as cli  # noqa: E402
from qthermo import lindblad, qcore  # noqa: E402
from qthermo.lindblad import GKLSGenerator, JumpChannel, ThermoLedger  # noqa: E402
from qthermo.thermo import ReservoirSpec  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"qthermo was imported from {cli.__file__}, not from {SRC}")

# Tolerances of the checks; each is stated in perfbench/README.md.
FIRST_LAW_TOL = 1e-12
SIGMA_DOT_FLOOR = -1e-12
KERNEL_RESIDUAL_TOL = 1e-10
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-8
STATIONARY_TOL = 1e-8
N_SIGMA = 5.0
ORACLE_REL_TOL = 1e-5


class Tally:
    """Items attempted and failed in one pass, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fcs_max_rel_err = None

    def add(self, label, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if failed and problem:
            self.problems.append(f"{label}: {problem}")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_config(path, out, seed=None):
    """One ``qthermo run`` through the library entry point; an exception is
    returned, not raised, so that it counts as failed items."""
    try:
        cli.run(str(path), seed=seed, out=str(out), fmt="json")
    except Exception as exc:  # every failure of a config is a failed item
        return exc
    return out


def _load_table(label, result, expected_rows, tally, items=None):
    """Rows of a written table, or None after counting all its items failed.

    An exception or a wrong row count fails every item of the table; the
    items are its rows unless ``items`` says otherwise.
    """
    items = expected_rows if items is None else items
    if isinstance(result, Exception):
        tally.add(label, items, items, f"{type(result).__name__}: {result}")
        return None
    rows = _read_json(result)["rows"]
    if len(rows) != expected_rows:
        tally.add(label, items, items, f"{len(rows)} rows, expected {expected_rows}")
        return None
    return rows


def _finite(row):
    return all(math.isfinite(v) for v in row if not isinstance(v, str))


def _check_rows(label, rows, oks, tally):
    """Count as failed each row with a non-finite cell or a false entry in oks."""
    bad = [i for i, (row, ok) in enumerate(zip(rows, oks))
           if not (_finite(row) and ok)]
    tally.add(label, len(rows), len(bad),
              f"{len(bad)} rows fail, first at row {bad[0]}" if bad else None)


# ---------------------------------------------------------------------------
# Independent FCS oracle for the biased single dot
# ---------------------------------------------------------------------------

def _fermi(energy, temperature, mu):
    x = (energy - mu) / temperature
    if x > 0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def biased_dot_cumulants(eps, t_l, t_r, mu_l, mu_r, kappa_l, kappa_r,
                         max_order=4, radius=0.1, n_points=512):
    """Exact scaled cumulants c1..c4 of the particle current into R.

    The dominant eigenvalue of the 2x2 tilted rate matrix is closed-form;
    its Taylor coefficients at chi = 0 come from a Cauchy integral over a
    circle of ``radius``, evaluated by FFT. Shares no code with qthermo.fcs.
    """
    n_l = _fermi(eps, t_l, mu_l)
    n_r = _fermi(eps, t_r, mu_r)
    fill = kappa_l * n_l + kappa_r * n_r
    empty = kappa_l * (1.0 - n_l) + kappa_r * (1.0 - n_r)

    def nu(chi):
        fill_chi = kappa_l * n_l + kappa_r * n_r * cmath.exp(-1j * chi)
        empty_chi = kappa_l * (1.0 - n_l) + kappa_r * (1.0 - n_r) * cmath.exp(1j * chi)
        return (-(fill + empty) / 2.0
                + cmath.sqrt(((fill - empty) / 2.0) ** 2 + fill_chi * empty_chi))

    thetas = 2.0 * math.pi * np.arange(n_points) / n_points
    values = np.array([nu(radius * cmath.exp(1j * th)) for th in thetas])
    coeffs = np.fft.fft(values) / n_points
    return [((-1j) ** k * coeffs[k] / radius ** k * math.factorial(k)).real
            for k in range(1, max_order + 1)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SweepSmallD:
    """Four committed sweep configs, 275 points of d <= 4 generators."""

    name = "sweep_small_d"
    configs = ("heat_engine_levels", "heat_engine_lasso",
               "double_dot_entanglement", "fcs_biased_dot")

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.raw = {}
        for stem in self.configs:
            path = CONFIGS / f"{stem}.json"
            cli.load_config(str(path))
            self.raw[stem] = _read_json(path)
        self.items = sum(self.raw[s]["sweep"]["steps"] for s in self.configs)

    def run_pass(self):
        return {stem: _run_config(CONFIGS / f"{stem}.json",
                                  self.workdir / f"{stem}.json")
                for stem in self.configs}

    def check(self, outputs):
        tally = Tally()
        for stem in self.configs:
            rows = _load_table(stem, outputs[stem],
                               self.raw[stem]["sweep"]["steps"], tally)
            if rows is None:
                continue
            if stem.startswith("heat_engine"):
                # columns: sweep, P, J_c, J_h, eta, regime
                _check_rows(stem, rows, [abs(r[1] + r[2] + r[3]) <= FIRST_LAW_TOL
                                         for r in rows], tally)
            elif stem == "double_dot_entanglement":
                # columns: g, concurrence, J_R, J_crit, entangled
                _check_rows(stem, rows, [0.0 <= r[1] <= 1.0 for r in rows], tally)
            else:
                # columns: mu_L, c1..c4, fano, sigma_dot, ratio, bound, satisfied
                errors = self._fcs_errors(rows)
                tally.fcs_max_rel_err = max(errors)
                _check_rows(stem, rows, [r[9] == 1 and err <= ORACLE_REL_TOL
                                         for r, err in zip(rows, errors)], tally)
        return tally

    def _fcs_errors(self, rows):
        """Per row, the worst relative error of c1..c4 against the oracle."""
        p = self.raw["fcs_biased_dot"]["params"]
        errors = []
        for row in rows:
            exact = biased_dot_cumulants(p["eps_d"], p["T_L"], p["T_R"], row[0],
                                         p["mu_R"], p["kappa_L"], p["kappa_R"])
            errors.append(max(abs(got - want) / abs(want)
                              for got, want in zip(row[1:5], exact)))
        return errors


class Sampling:
    """Trajectory unravelling (forward and backward) and TPM sampling."""

    name = "sampling"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.traj_path = CONFIGS / "trajectories_ft.json"
        self.tpm_path = CONFIGS / "tpm_quench.json"
        cli.load_config(str(self.traj_path))
        cli.load_config(str(self.tpm_path))
        self.n_traj = 2 * _read_json(self.traj_path)["params"]["n_traj"]
        self.n_samples = _read_json(self.tpm_path)["params"]["n_samples"]
        self.items = self.n_traj + self.n_samples

    def run_pass(self):
        return {"trajectories_ft": _run_config(
                    self.traj_path, self.workdir / "trajectories_ft.json", self.seed),
                "tpm_quench": _run_config(
                    self.tpm_path, self.workdir / "tpm_quench.json", self.seed)}

    def check(self, outputs):
        tally = Tally()
        self.check_trajectories(outputs["trajectories_ft"], tally)
        self.check_tpm(outputs["tpm_quench"], tally)
        return tally

    def check_trajectories(self, result, tally):
        label = "trajectories_ft"
        if isinstance(result, Exception):
            tally.add(label, self.n_traj, self.n_traj,
                      f"{type(result).__name__}: {result}")
            return
        rows = {row[0]: row[1:] for row in _read_json(result)["rows"]}
        required = {"ift_estimate", "negative_sigma_fraction", "mean_sigma",
                    "mean_Q_L", "mean_Q_R"}
        problem = None
        if not required <= set(rows) or not set(rows) <= required | {"detailed_slope"}:
            problem = f"rows {sorted(rows)}"
        elif not all(_finite(v) for v in rows.values()):
            problem = "non-finite cell"
        else:
            est, err = rows["ift_estimate"]
            if not abs(est - 1.0) <= N_SIGMA * err:
                problem = f"IFT estimate {est} is not within {N_SIGMA} x {err} of 1"
        tally.add(label, self.n_traj, self.n_traj if problem else 0, problem)

    def check_tpm(self, result, tally):
        label = "tpm_quench"
        n = self.n_samples
        rows = _load_table(label, result, 4, tally, items=n)  # 2 x 2 levels
        if rows is None:
            return
        # columns: n, m, work, p_forward, p_backward, count_sampled
        counts = [row[5] for row in rows]
        problem = None
        if not all(_finite(row) for row in rows):
            problem = "non-finite cell"
        elif sum(counts) != n:
            problem = f"counts sum to {sum(counts)}, not {n}"
        else:
            for row in rows:
                p = row[3]
                if abs(row[5] - n * p) > N_SIGMA * math.sqrt(n * p * (1.0 - p)):
                    problem = (f"cell ({row[0]}, {row[1]}) has {row[5]} samples, "
                               f"expected {n * p:.1f}")
                    break
        tally.add(label, n, n if problem else 0, problem)


SINGLE_DOT_SERIES = {
    "experiment": "single-dot",
    "seed": 1,
    "params": {
        "eps_d": 1.0, "p1_initial": 0.0, "t_max": 10.0, "steps": 200,
        "reservoirs": {
            "L": {"temperature": 0.5, "chemical_potential": 0.8, "coupling": 0.6},
            "R": {"temperature": 0.5, "chemical_potential": -0.8, "coupling": 0.4},
        },
    },
    "output": {"path": "single_dot_series.json", "format": "json"},
}


class Transient:
    """Repeated time evolution of one generator: the fridge switch-off
    protocol (d = 8) and a generated single-dot time series."""

    name = "transient"

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.fridge_path = CONFIGS / "absorption_switchoff.json"
        self.series_path = self.workdir / "single_dot_series.json"
        with open(self.series_path, "w", encoding="utf-8") as fh:
            json.dump(SINGLE_DOT_SERIES, fh, indent=1)
        cli.load_config(str(self.fridge_path))
        cli.load_config(str(self.series_path))
        # the protocol stitches the on and off segments at t_min, sharing
        # one time point, so it has steps - 1 rows
        self.fridge_rows = _read_json(self.fridge_path)["params"]["steps"] - 1
        self.series_rows = SINGLE_DOT_SERIES["params"]["steps"]
        self.items = self.fridge_rows + self.series_rows

    def run_pass(self):
        return {"absorption_switchoff": _run_config(
                    self.fridge_path, self.workdir / "absorption_switchoff.out.json"),
                "single_dot_series": _run_config(
                    self.series_path, self.workdir / "single_dot_series.out.json")}

    def check(self, outputs):
        tally = Tally()
        rows = _load_table("absorption_switchoff", outputs["absorption_switchoff"],
                           self.fridge_rows, tally)
        if rows is not None:
            # columns: t, occupation, theta, refrigerator_on
            _check_rows("absorption_switchoff", rows,
                        [0.0 <= r[1] <= 1.0 and r[3] in (0, 1) for r in rows], tally)
        rows = _load_table("single_dot_series", outputs["single_dot_series"],
                           self.series_rows, tally)
        if rows is not None:
            # columns: t, p1, J_L, P_L, J_R, P_R, sigma_dot
            _check_rows("single_dot_series", rows,
                        [0.0 <= r[1] <= 1.0 and r[6] >= SIGMA_DOT_FLOOR for r in rows],
                        tally)
        return tally


def ladder_generator(d, rng, omega=1.0, temperatures=(0.5, 2.0), coupling=0.3):
    """Thermodynamically consistent GKLS generator on a d-level ladder.

    H_TD = omega diag(0..d-1); each bosonic reservoir has a lowering and a
    raising channel whose rates obey local detailed balance; the system
    Hamiltonian adds a random Hermitian coupling of scale 0.2.
    """
    h_td = omega * np.diag(np.arange(d, dtype=float))
    lower = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    reservoirs = {}
    channels = []
    for i, temperature in enumerate(temperatures):
        tag = f"b{i}"
        res = ReservoirSpec(temperature, 0.0, "bosonic", coupling)
        reservoirs[tag] = res
        n_b = 1.0 / math.expm1(omega / temperature)
        channels.append(JumpChannel(lower, coupling * (n_b + 1.0), tag,
                                    energy_quantum=omega))
        channels.append(JumpChannel(lower.T, coupling * n_b, tag,
                                    energy_quantum=-omega))
    h_s = h_td + qcore.random_hermitian(d, rng, scale=0.2)
    gen = GKLSGenerator(h_s, tuple(channels))
    ledger = ThermoLedger(h_td, np.zeros((d, d)), reservoirs)
    return gen, ledger


class SteadyLargeD:
    """One-shot dense solves of seeded ladder generators at d = 16 and 32."""

    name = "steady_large_d"
    dims = (16, 32)
    horizon = 5.0

    def __init__(self, seed, workdir):
        self.problems = [ladder_generator(d, np.random.default_rng([seed, d]))
                         for d in self.dims]
        self.items = len(self.problems)

    def run_pass(self):
        outputs = []
        for gen, ledger in self.problems:
            try:
                liou = lindblad.build_liouvillian(gen)
                rho = lindblad.steady_state(gen)
                currents = lindblad.all_currents(gen, ledger, rho)
                sigma_dot = lindblad.entropy_production_rate(gen, ledger, rho)
                rho_t = lindblad.propagate(gen, rho, self.horizon)
            except Exception as exc:  # every failure of a solve is a failed item
                outputs.append(exc)
                continue
            outputs.append((liou, rho, currents, sigma_dot, rho_t))
        return outputs

    def check(self, outputs):
        tally = Tally()
        for (gen, _), out in zip(self.problems, outputs):
            label = f"d={gen.dim}"
            if isinstance(out, Exception):
                tally.add(label, 1, 1, f"{type(out).__name__}: {out}")
                continue
            tally.add(label, 1, 1 if (problem := self.solve_problem(gen, *out))
                      else 0, problem)
        return tally

    @staticmethod
    def solve_problem(gen, liou, rho, currents, sigma_dot, rho_t):
        values = [sigma_dot] + [v for pair in currents.values() for v in pair]
        if not all(math.isfinite(v) for v in values):
            return "non-finite current or entropy production"
        # induced infinity norm of L: cheap, and an upper bound scale for L rho
        liou_norm = float(np.max(np.sum(np.abs(liou), axis=1)))
        residual = float(np.max(np.abs(lindblad.generator_apply(gen, rho))))
        if residual > KERNEL_RESIDUAL_TOL * liou_norm:
            return f"|L rho_ss| = {residual:.2e} > {KERNEL_RESIDUAL_TOL} |L|"
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > TRACE_TOL:
            return f"Tr rho_ss = {trace}"
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < PSD_FLOOR:
            return f"min eigenvalue {min_eig:.2e}"
        drift = float(np.max(np.abs(rho_t - rho)))
        if drift > STATIONARY_TOL:
            return f"|propagate(rho_ss, 5) - rho_ss| = {drift:.2e}"
        return None


WORKLOADS = {w.name: w for w in (SweepSmallD, Sampling, Transient, SteadyLargeD)}

