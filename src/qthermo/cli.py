"""Batch experiment runner.

Reads a strictly-parsed JSON config, dispatches model / counting /
trajectory computations, and writes machine-readable result tables
(CSV or JSON) atomically. Exit codes: 0 success; 2 config error, any
``ValueError`` (invalid or inconsistent inputs); 3 numerical failure, a
``qcore.NumericalError`` or ``LinAlgError`` (valid inputs, but a
computation missed its contract; any non-finite cell is one). Any other
exception is a bug and propagates with its traceback.

A table is built as columns. One step turns every cell into an int
(bools become 0 and 1), a finite float or a str, for both formats: CSV
writes floats as ``.16e``, JSON as they are.

Config dialect: JSON, schema "json/1"; unknown keys are rejected at
every nesting level. Each experiment has one parse step that reads and
checks every params key of one point; ``run`` and ``validate`` both use
it, so ``validate`` rejects what ``run`` rejects and reports the
validity warnings ``run`` raises, without computing. Only heat-engine,
double-dot, absorption and fcs accept a sweep. A sweep runs as one batch
along a leading sweep axis (see ``qthermo.lindblad``): each stage acts on
all points at once, and the table has one row per point, in sweep order.
When the batch fails, its points run again one at a time, in sweep order,
and the first that fails reports its own error, the one a point-by-point
run would have stopped at. An absorption transient is one call of
``models.fridge_switchoff_transient``: both commands check that its
switch-off protocol can scan for the first temperature minimum t_min (g >
0, and not so small that the scan overflows), while a sweep takes any g;
its ``t_max`` must exceed t_min, which only ``run`` computes.
"""

import json
import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__
from .lindblad import (all_currents, entropy_production_rate, propagate,
                       steady_state)
from .models import (DoubleDotParams, SingleDotParams,
                     double_dot_sweep_concurrence, entanglement_heat_threshold,
                     single_dot_generator, stack_sweep)
from .models.single_dot import engine_efficiency, regime_from_currents
from .qcore import NumericalError
from .thermo import ReservoirSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_DIALECT = "json/1"
# seeds are 64-bit Philox key words; trajectories also uses seed + 1
SEED_MAX = 2**64 - 2
# Caps on counts, sized from the costliest item: a table row (sweep.steps,
# params.steps) costs up to about 2 ms and 30 kB (an absorption sweep
# point), a sample (params.n_traj, params.n_samples) up to about 1.5 us and
# 150 B (a trajectory and its backward twin), and a jump about 0.1-0.3 us.
# Expected jumps are bounded by n_traj * tau * (kappa_L + kappa_R).
MAX_ROWS = 10**4
MAX_SAMPLES = 10**7
MAX_EXPECTED_JUMPS = 10**8


class ConfigError(ValueError):
    pass


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _typecheck(value, kind, label):
    if isinstance(value, bool) or (kind is not None
                                   and not isinstance(value, kind)):
        raise ConfigError(f"{label} has wrong type {type(value).__name__}")
    return value


def _need(mapping, key, where, kind=(int, float)):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return _typecheck(mapping[key], kind, f"{where}.{key}")


def _opt(mapping, key, default, kind=(int, float)):
    if key not in mapping:
        return default
    return _typecheck(mapping[key], kind, f"key {key!r}")


def _check_seed(seed):
    _typecheck(seed, int, "seed")
    if not 0 <= seed <= SEED_MAX:
        raise ConfigError(f"seed must lie in [0, 2**64 - 2], got {seed}")
    return seed


def _count(value, key, minimum, cap):
    """``value`` of config key ``key``, a count in [minimum, cap]."""
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    if value > cap:
        raise ConfigError(f"{key} must be <= {cap}, got {value}")
    return value


def _finite_number(text, kind=float):
    # json.load accepts the literals NaN, Infinity and -Infinity, reads a
    # float literal beyond the double range (1e999) as inf, and an integer
    # literal beyond it as an int that float() cannot convert
    if not math.isfinite(float(text)):
        raise ConfigError(f"non-finite number {text} in config; every "
                          "number must be a finite double")
    return kind(text)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_number,
                            parse_int=lambda text: _finite_number(text, int),
                            parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(raw, {"experiment", "params", "sweep", "output", "seed"},
                "config")
    experiment = _need(raw, "experiment", "config", str)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {tuple(EXPERIMENTS)}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.params must be an object")
    sweep = raw.get("sweep")
    if sweep is not None:
        if EXPERIMENTS[experiment][2] is None:
            raise ConfigError(f"{experiment} does not support a sweep")
        _check_keys(sweep, {"name", "start", "stop", "steps"}, "config.sweep")
        name = _need(sweep, "name", "config.sweep", str)
        start = float(_need(sweep, "start", "config.sweep"))
        stop = float(_need(sweep, "stop", "config.sweep"))
        steps = _need(sweep, "steps", "config.sweep", int)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError("sweep bounds must be finite")
        _count(steps, "sweep.steps", 2, MAX_ROWS)
        if name not in params:
            raise ConfigError(f"sweep parameter {name!r} not present in params")
        _typecheck(params[name], (int, float), f"sweep parameter {name!r}")
        sweep = {"name": name, "start": start, "stop": stop, "steps": steps}
    output = raw.get("output", {})
    _check_keys(output, {"path", "format"}, "config.output")
    out_path = _opt(output, "path", "results.csv", str)
    out_format = _opt(output, "format", "csv", str)
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', "
                          f"got {out_format!r}")
    seed = _check_seed(_opt(raw, "seed", 0, int))
    return {"experiment": experiment, "params": params, "sweep": sweep,
            "output": {"path": out_path, "format": out_format}, "seed": seed}


def _reservoir(cfg, where):
    _check_keys(cfg, {"temperature", "chemical_potential", "coupling"}, where)
    return ReservoirSpec(
        temperature=float(_need(cfg, "temperature", where)),
        chemical_potential=float(_opt(cfg, "chemical_potential", 0.0)),
        statistics="fermionic",
        coupling=float(_need(cfg, "coupling", where)))


# ---------------------------------------------------------------------------
# Experiments. Each parses the params of one point, the only point of a run
# or (``swept``) one point of a sweep: it reads every key its tables use,
# runs every check and builds the objects they compute from. Its tables map
# a list of parsed points and the seed to (names, units, columns), one
# sequence of cells per column. The modules an experiment computes with
# beyond the single and double dot are imported by its own functions, on
# first use.
# ---------------------------------------------------------------------------

def _reservoirs(p, tags, statistics):
    """Reservoirs from the params T_<tag>, mu_<tag>, kappa_<tag>."""
    return {tag: ReservoirSpec(float(_need(p, f"T_{tag}", "params")),
                               float(_opt(p, f"mu_{tag}", 0.0)), statistics,
                               float(_need(p, f"kappa_{tag}", "params")))
            for tag in tags}


def _dot_params(p, keys, tags):
    _check_keys(p, keys, "params")
    return SingleDotParams(float(_need(p, "eps_d", "params")),
                           _reservoirs(p, tags, "fermionic"))


def _steps(p, default):
    return _count(_opt(p, "steps", default, int), "params.steps", 2, MAX_ROWS)


_ENGINE_KEYS = {"eps_d", "T_c", "T_h", "mu_c", "mu_h", "kappa_c", "kappa_h"}


def _engine_params(p, swept):
    return _dot_params(p, _ENGINE_KEYS, "ch")


def _engine_table(params, seed):
    gen, ledger = stack_sweep([single_dot_generator(p) for p in params])
    currents = all_currents(gen, ledger, steady_state(gen))
    (j_c, p_c), (j_h, p_h) = currents["c"], currents["h"]
    eta = [engine_efficiency(p) for p in params]
    if None in eta:
        raise NumericalError("efficiency undefined at eps_d = mu_h")
    regime = [regime_from_currents({"c": (jc, pc), "h": (jh, ph)})
              for jc, pc, jh, ph in zip(j_c, p_c, j_h, p_h)]
    return (["P", "J_c", "J_h", "eta", "regime"],
            ["kref^2", "kref^2", "kref^2", "1", "-"],
            [p_c + p_h, j_c, j_h, eta, regime])


_DOUBLE_DOT_KEYS = {"eps", "g", "T_L", "T_R", "mu_L", "mu_R",
                    "kappa_L", "kappa_R", "mode"}


def _double_dot_params(p, swept):
    # the tables are closed forms of the local mode with both dots coupled
    _check_keys(p, _DOUBLE_DOT_KEYS, "params")
    if _opt(p, "mode", "local", str) != "local":
        raise ConfigError(f"params.mode must be 'local', got {p['mode']!r}")
    reservoirs = _reservoirs(p, "LR", "fermionic")
    for tag, res in reservoirs.items():
        if res.coupling == 0.0:
            raise ConfigError(f"params.kappa_{tag} must be > 0")
    return DoubleDotParams(
        float(_need(p, "eps", "params")), float(_need(p, "g", "params")),
        reservoirs)


def _double_dot_table(params, seed):
    thresholds = [entanglement_heat_threshold(p) for p in params]
    return (["concurrence", "J_R", "J_crit", "entangled"],
            ["1", "kref^2", "kref^2", "bool"],
            [double_dot_sweep_concurrence(params), *zip(*thresholds)])


_FRIDGE_KEYS = {"eps_c", "eps_h", "eps_r", "g", "T_c", "T_r", "T_h",
                "kappa_c", "kappa_r", "kappa_h", "t_max", "steps"}


def _fridge_params(p, swept):
    """(FridgeParams, horizon of the transient or None, its steps). A
    transient (no sweep) needs a g its switch-off protocol can scan; a
    sweep point takes any g."""
    from .models.fridge import FridgeParams, switchoff_scan
    _check_keys(p, _FRIDGE_KEYS, "params")
    eps_r = _opt(p, "eps_r", None)
    params = FridgeParams(
        float(_need(p, "eps_c", "params")),
        float(_need(p, "eps_h", "params")),
        float(_need(p, "g", "params")), _reservoirs(p, "chr", "bosonic"),
        None if eps_r is None else float(eps_r))
    t_max = float(_opt(p, "t_max", 0.0))
    if t_max < 0:
        raise ConfigError("params.t_max must be >= 0")
    if not swept:
        switchoff_scan(params)
    return params, t_max or None, _steps(p, 400)


def _fridge_table(points, seed):
    from .models.fridge import fridge_sweep_observables
    return (["I", "J_c", "J_h", "J_r", "theta", "cooling"],
            ["kref", "kref^2", "kref^2", "kref^2", "kref", "bool"],
            list(zip(*fridge_sweep_observables(
                [params for params, _, _ in points]))))


def _fridge_transient_table(points, seed):
    from .models.fridge import fridge_switchoff_transient
    [(params, t_max, steps)] = points
    return (["t", "occupation", "theta", "refrigerator_on"],
            ["1/kref", "1", "kref", "bool"],
            fridge_switchoff_transient(params, t_max, steps))


_SINGLE_DOT_KEYS = {"eps_d", "p1_initial", "t_max", "steps", "reservoirs"}


def _single_dot_params(p, swept):
    """(SingleDotParams, initial occupation, end time, steps)."""
    _check_keys(p, _SINGLE_DOT_KEYS, "params")
    res_cfg = _need(p, "reservoirs", "params", dict)
    if not res_cfg:
        raise ConfigError("params.reservoirs must name at least one reservoir")
    params = SingleDotParams(
        float(_need(p, "eps_d", "params")),
        {tag: _reservoir(rc, f"params.reservoirs.{tag}")
         for tag, rc in res_cfg.items()})
    p1 = float(_opt(p, "p1_initial", 0.0))
    if not 0.0 <= p1 <= 1.0:
        raise ConfigError("p1_initial must lie in [0, 1]")
    t_max = float(_need(p, "t_max", "params"))
    if t_max <= 0:
        raise ConfigError("params.t_max must be > 0")
    return params, p1, t_max, _steps(p, 200)


def _single_dot_table(points, seed):
    [(params, p1, t_max, steps)] = points
    gen, ledger = single_dot_generator(params)
    tags = sorted(params.reservoirs)
    times = np.linspace(0.0, t_max, steps)
    rho0 = np.diag([1.0 - p1, p1]).astype(complex)
    rho = propagate(gen, rho0, times)
    currents = all_currents(gen, ledger, rho)
    return (["t", "p1", *(f"{q}_{tag}" for tag in tags for q in "JP"),
             "sigma_dot"],
            ["1/kref", "1", *["kref^2", "kref^2"] * len(tags), "kB*kref"],
            [times, rho[:, 1, 1].real,
             *(c for tag in tags for c in currents[tag]),
             entropy_production_rate(gen, ledger, rho)])


_FCS_KEYS = {"eps_d", "T_L", "T_R", "mu_L", "mu_R", "kappa_L", "kappa_R"}


def _fcs_params(p, swept):
    return _dot_params(p, _FCS_KEYS, "LR")


def _fcs_table(params, seed):
    from .fcs import cumulants, particle_weights, tur_audit
    gen, ledger = stack_sweep([single_dot_generator(p) for p in params])
    c1, c2, c3, c4 = cumulants(gen, particle_weights(gen, "R"), max_order=4)
    sigma_dot = entropy_production_rate(gen, ledger, steady_state(gen))
    audits = [tur_audit(*point) for point in
              zip(c1.tolist(), c2.tolist(), sigma_dot.tolist())]
    return (["c1", "c2", "c3", "c4", "fano", "sigma_dot", "tur_ratio",
             "tur_bound", "tur_satisfied"],
            ["kref", "kref", "kref", "kref", "1", "kB*kref", "1/kref",
             "1/kref", "bool"],
            [c1, c2, c3, c4, c2 / c1, sigma_dot,
             [a.ratio for a in audits], [a.bound for a in audits],
             [-1 if a.satisfied is None else a.satisfied for a in audits]])


_TPM_KEYS = {"eps0", "angle", "beta", "tau", "n_samples"}


def _tpm_params(p, swept):
    """(TPMProtocol of the sudden quench, number of samples)."""
    from .trajectories import TPMProtocol
    _check_keys(p, _TPM_KEYS, "params")
    eps0 = float(_need(p, "eps0", "params"))
    angle = float(_need(p, "angle", "params"))
    beta = float(_need(p, "beta", "params"))
    tau = float(_need(p, "tau", "params"))
    n_samples = _count(_opt(p, "n_samples", 0, int), "params.n_samples", 0,
                       MAX_SAMPLES)
    h0 = 0.5 * eps0 * np.array([[1.0, 0.0], [0.0, -1.0]])
    h1 = 0.5 * eps0 * (math.cos(angle) * np.array([[1.0, 0.0], [0.0, -1.0]])
                       + math.sin(angle) * np.array([[0.0, 1.0], [1.0, 0.0]]))
    return TPMProtocol(((0.0, h0), (0.0, h1)), beta, tau), n_samples


def _tpm_table(points, seed):
    from .trajectories import (backward_protocol, tpm_distribution,
                               tpm_sample)
    [(protocol, n_samples)] = points
    fwd = tpm_distribution(protocol)
    bwd = tpm_distribution(backward_protocol(protocol))
    dim = fwd.p_initial.size
    samples = tpm_sample(protocol, seed, n_samples)
    # one row per (n, m), n major
    return (["n", "m", "work", "p_forward", "p_backward", "count_sampled"],
            ["-", "-", "kref", "1", "1", "-"],
            [*np.divmod(np.arange(dim * dim), dim), fwd.work.ravel(),
             fwd.joint.ravel(), bwd.joint.T.ravel(),
             np.bincount(samples.initial * dim + samples.final,
                         minlength=dim * dim)])


_TRAJ_KEYS = {"eps_d", "T_L", "T_R", "mu_L", "mu_R", "kappa_L", "kappa_R",
              "tau", "n_traj"}


def _trajectory_params(p, swept):
    """(SingleDotParams, duration, number of trajectories)."""
    params = _dot_params(p, _TRAJ_KEYS, "LR")
    tau = float(_need(p, "tau", "params"))
    if tau < 0:
        raise ConfigError("params.tau must be >= 0")
    n_traj = _count(_need(p, "n_traj", "params", int), "params.n_traj", 2,
                    MAX_SAMPLES)
    # the escape rate out of either state is at most kappa_L + kappa_R
    rate = sum(res.coupling for res in params.reservoirs.values())
    if not n_traj * tau * rate <= MAX_EXPECTED_JUMPS:
        raise ConfigError(
            "expected jumps params.n_traj * params.tau * (params.kappa_L + "
            f"params.kappa_R) = {n_traj * tau * rate:.6g} must be <= "
            f"{MAX_EXPECTED_JUMPS}")
    return params, tau, n_traj


def _trajectory_table(points, seed):
    from .trajectories import backward_ensemble, ft_estimators, unravel
    [(params, tau, n_traj)] = points
    gen, ledger = single_dot_generator(params)
    rho_ss = steady_state(gen)
    p0 = np.real(np.diag(rho_ss))
    fwd = unravel(gen, ledger, p0, tau, seed, n_traj, record_events=False)
    bwd = backward_ensemble(gen, ledger, fwd, seed + 1)
    report = ft_estimators(fwd, bwd)
    means = {"mean_sigma": fwd.entropy_production,
             **{f"mean_Q_{tag}": fwd.heat[tag] for tag in sorted(fwd.heat)}}
    quantity = ["ift_estimate", "negative_sigma_fraction", *means]
    value = [report.integral_estimate, report.negative_fraction,
             *(x.mean() for x in means.values())]
    stderr = [report.integral_stderr, 0.0,
              *(x.std(ddof=1) / math.sqrt(n_traj) for x in means.values())]
    if report.detailed_slope is not None:
        quantity.append("detailed_slope")
        value.append(report.detailed_slope)
        stderr.append(report.detailed_slope_stderr)
    return (["quantity", "value", "stderr"], ["-", "mixed", "mixed"],
            [quantity, value, stderr])


# name: (parse the params of one point, table at one point, table of a
# sweep or None when the experiment takes no sweep)
EXPERIMENTS = {
    "single-dot": (_single_dot_params, _single_dot_table, None),
    "heat-engine": (_engine_params, _engine_table, _engine_table),
    "double-dot": (_double_dot_params, _double_dot_table, _double_dot_table),
    "absorption": (_fridge_params, _fridge_transient_table, _fridge_table),
    "fcs": (_fcs_params, _fcs_table, _fcs_table),
    "tpm": (_tpm_params, _tpm_table, None),
    "trajectories": (_trajectory_params, _trajectory_table, None),
}


def _points(cfg):
    """The params of each point: the params themselves, or one copy per
    sweep value with the swept param set to it."""
    params, sweep = cfg["params"], cfg["sweep"]
    if sweep is None:
        return [params]
    values = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
    return [{**params, sweep["name"]: float(value)} for value in values]


def _table(cfg):
    """(names, units, columns) of the config's experiment; a sweep runs as
    one batch and prepends the swept param as a column."""
    parse, table, sweep_table = EXPERIMENTS[cfg["experiment"]]
    points, sweep, seed = _points(cfg), cfg["sweep"], cfg["seed"]
    if sweep is None:
        return table([parse(points[0], False)], seed)
    names, units, columns = _first_failure(
        lambda batch: sweep_table([parse(p, True) for p in batch], seed),
        points)
    name = sweep["name"]
    return ([name, *names], ["param", *units],
            [[point[name] for point in points], *columns])


def _first_failure(table_fn, points):
    """``table_fn(points)``, or the error of the first failing point.

    When the batch raises a ``NumericalError`` or ``ValueError``, each
    point runs again on its own, in sweep order, and the first that fails
    raises its own error: the one a point-by-point run stops at. When
    every point passes on its own, the batch's error belongs to no point
    and is raised as it is. Any other error is a bug and is not rerun.
    """
    try:
        return table_fn(points)
    except (NumericalError, ValueError):
        for point in points:
            table_fn([point])
        raise


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _cells(names, units, columns):
    """Each column as a list of int (bools included), finite float or str
    cells, for CSV and JSON alike.

    Columns that do not match the names and units one to one, differ in
    length or hold other cells raise ``NumericalError``, as does a
    non-finite float: the first in row-major order is named.
    """
    arrays = [np.asarray(column) for column in columns]
    if len(arrays) != len(names) or len(units) != len(names) or any(
            a.ndim != 1 or a.shape != arrays[0].shape
            or a.dtype.kind not in "biufU" for a in arrays):
        raise NumericalError(
            f"a table of {len(names)} names and {len(units)} units has "
            f"columns {[(a.dtype.str, a.shape) for a in arrays]}")
    finite = {j: np.isfinite(a) for j, a in enumerate(arrays)
              if a.dtype.kind == "f"}
    bad = [(int(np.argmin(ok)), j) for j, ok in finite.items() if not ok.all()]
    if bad:
        i, j = min(bad)
        raise NumericalError(f"non-finite value {arrays[j][i].item()!r} "
                             f"at row {i}, column {j}")
    return [(a.astype(int) if a.dtype.kind == "b" else a).tolist()
            for a in arrays]


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qthermo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path, fmt, names, units, columns, metadata):
    """Write the cells of ``_cells`` as CSV, floats as ``.16e``, or JSON."""
    rows = zip(*columns)
    if fmt == "csv":
        lines = [f"# {key}: {value}" for key, value in metadata.items()]
        lines.append(",".join(f"{c}[{u}]" for c, u in zip(names, units)))
        lines.extend(",".join(f"{v:.16e}" if isinstance(v, float) else str(v)
                              for v in row) for row in rows)
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        payload = {"metadata": metadata, "columns": names, "units": units,
                   "rows": [list(row) for row in rows]}
        _atomic_write(path, json.dumps(payload, indent=1) + "\n")


def run(config_path, seed=None, out=None, fmt=None):
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = _check_seed(seed)
    if out is not None:
        cfg["output"]["path"] = out
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        cfg["output"]["format"] = fmt
    t0 = time.perf_counter()
    names, units, columns = _table(cfg)
    columns = _cells(names, units, columns)
    metadata = {
        "qthermo_version": __version__,
        "config_dialect": CONFIG_DIALECT,
        "config": json.dumps({k: cfg[k] for k in
                              ("experiment", "params", "sweep", "seed")},
                             sort_keys=True, separators=(",", ":")),
        "seed": cfg["seed"],
        "wall_time_s": f"{time.perf_counter() - t0:.3f}",
    }
    write_table(cfg["output"]["path"], cfg["output"]["format"], names, units,
                columns, metadata)
    return cfg["output"]["path"]


def validate(config_path):
    """Parse every point of the config as ``run`` does, without computing.

    Prints each distinct validity warning once, in the order raised, and
    returns them: the warnings ``run`` raises for the same config.
    """
    cfg = load_config(config_path)
    parse = EXPERIMENTS[cfg["experiment"]][0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for point in _points(cfg):
            parse(point, cfg["sweep"] is not None)
    messages = list(dict.fromkeys(str(w.message) for w in caught))
    for msg in messages:
        print(f"warning: {msg}")
    return messages


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Quantum-thermodynamics batch experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config and write tables")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output path")
    p_run.add_argument("--format", default=None, choices=("csv", "json"),
                       help="override the output format")
    p_val = sub.add_parser("validate",
                           help="check a config and print validity warnings")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run(args.config, seed=args.seed, out=args.out, fmt=args.format)
            return EXIT_OK
        validate(args.config)
        return EXIT_OK
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
