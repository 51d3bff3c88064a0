import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qthermo import cli, lindblad, trajectories
from qthermo.cli import ConfigError, load_config, main, run, validate
from qthermo.models import (SingleDotParams, ValidityWarning, engine_regime,
                            fridge)
from qthermo.thermo import ReservoirSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def engine_config(tmp_path, **overrides):
    cfg = {
        "experiment": "heat-engine",
        "seed": 7,
        "params": {"eps_d": 2.0, "T_c": 0.3, "T_h": 0.8, "mu_c": 1.0,
                   "mu_h": 0.0, "kappa_c": 1.0, "kappa_h": 1.0},
        "sweep": {"name": "eps_d", "start": 0.2, "stop": 4.2, "steps": 9},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "config.json", cfg)


def read_body(path):
    """CSV lines without the '#' metadata block."""
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def main_quietly(argv):
    """``main``'s exit code and stderr, with stdout and warnings dropped."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def mutable_keys():
    """(config, section, key) of every seed, params and sweep key of the
    committed configs; section None is the top level."""
    keys = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        keys.append((path.stem, None, "seed"))
        keys += [(path.stem, section, key) for section in ("params", "sweep")
                 for key in cfg.get(section, {})]
    return keys


MISSING = "(missing)"
# a wrong type, 0, negative, huge, subnormal, or no key at all
MUTATIONS = ["x", True, None, [1.0], 0, -1, -0.5, 2**70, 1e300, 1e-320,
             5e-324, MISSING]
# caps on the committed counts, so that each run stays small
COUNT_CAPS = {"n_traj": 200, "n_samples": 200, "steps": 4}


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = engine_config(tmp_path)
        raw = json.loads(open(path).read())
        raw["bogus"] = 1
        path = write_config(tmp_path / "bad.json", raw)
        assert main(["run", path]) == 2

    def test_unknown_param_rejected(self, tmp_path):
        path = engine_config(tmp_path)
        raw = json.loads(open(path).read())
        raw["params"]["extra"] = 3.0
        path = write_config(tmp_path / "bad.json", raw)
        assert main(["run", path]) == 2

    def test_missing_config_file(self):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_sweep_needs_two_steps(self, tmp_path):
        path = engine_config(
            tmp_path, sweep={"name": "eps_d", "start": 0.0, "stop": 1.0,
                             "steps": 1})
        assert main(["run", path]) == 2

    def test_sweep_bounds_must_be_finite(self, tmp_path):
        cfg = json.loads(open(engine_config(tmp_path)).read())
        cfg["sweep"]["stop"] = 1e400  # json encodes as Infinity -> invalid
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg).replace("Infinity", "1e999"))
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e999", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, tmp_path, capsys, literal):
        text = open(engine_config(tmp_path)).read()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"kappa_c": 1.0', f'"kappa_c": {literal}'))
        with pytest.raises(ConfigError, match=f"non-finite number {literal}"):
            load_config(str(bad))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"non-finite number {literal}" in err

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            {"experiment": "warp-drive"})
        assert main(["run", path]) == 2


class TestSeedsAndSizes:
    def trajectories_config(self, tmp_path, seed=3, n_traj=200):
        return write_config(tmp_path / "tj.json", {
            "experiment": "trajectories",
            "seed": seed,
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 1.0, "kappa_R": 1.0,
                       "tau": 2.0, "n_traj": n_traj},
            "output": {"path": str(tmp_path / "tj.csv"), "format": "csv"}})

    def tpm_config(self, tmp_path, seed=3, n_samples=100):
        return write_config(tmp_path / "tpm.json", {
            "experiment": "tpm",
            "seed": seed,
            "params": {"eps0": 1.0, "angle": 0.9, "beta": 1.0, "tau": 0.7,
                       "n_samples": n_samples},
            "output": {"path": str(tmp_path / "tpm.csv"), "format": "csv"}})

    @pytest.mark.parametrize("seed", ["-1", str(2**64 - 1)])
    def test_seed_override_out_of_range(self, tmp_path, capsys, seed):
        for path in (self.trajectories_config(tmp_path),
                     self.tpm_config(tmp_path)):
            assert main(["run", path, "--seed", seed]) == 2
            assert "seed must lie in" in capsys.readouterr().err

    def test_config_seed_out_of_range(self, tmp_path):
        assert main(["run", self.tpm_config(tmp_path, seed=-1)]) == 2
        assert main(["run", self.tpm_config(tmp_path, seed=2**64)]) == 2

    def test_top_seed_accepted(self, tmp_path):
        path = self.trajectories_config(tmp_path, seed=2**64 - 2)
        assert main(["run", path]) == 0
        assert main(["run", self.tpm_config(tmp_path, seed=2**64 - 2)]) == 0

    def test_single_trajectory_rejected(self, tmp_path, capsys):
        assert main(["run", self.trajectories_config(tmp_path, n_traj=1)]) == 2
        assert "n_traj" in capsys.readouterr().err

    def test_negative_tpm_sample_count_rejected(self, tmp_path, capsys):
        assert main(["run", self.tpm_config(tmp_path, n_samples=-5)]) == 2
        assert "n_samples" in capsys.readouterr().err
        assert not (tmp_path / "tpm.csv").exists()
        assert main(["run", self.tpm_config(tmp_path, n_samples=0)]) == 0


class TestHeatEngineRuns:
    def test_regime_transitions_along_level_sweep(self, tmp_path):
        path = engine_config(tmp_path)
        assert main(["run", path]) == 0
        body = read_body(tmp_path / "out.csv")
        header = body[0].strip().split(",")
        assert header == ["eps_d[param]", "P[kref^2]", "J_c[kref^2]",
                          "J_h[kref^2]", "eta[1]", "regime[-]"]
        regimes = [line.strip().split(",")[-1] for line in body[1:]]
        assert regimes[0] == "joint_heating"
        assert "refrigerator" in regimes
        assert regimes[-1] == "heat_engine"

    def test_regime_column_matches_engine_regime(self, tmp_path):
        # the committed level sweep crosses all four regimes; every row's
        # label must equal the model's own classification of that point
        config = CONFIGS / "heat_engine_levels.json"
        out = tmp_path / "levels.csv"
        assert main(["run", str(config), "--out", str(out)]) == 0
        p = json.loads(config.read_text())["params"]
        rows = [line.strip().split(",") for line in read_body(out)[1:]]
        for row in rows:
            params = SingleDotParams(
                float(row[0]),
                {"c": ReservoirSpec(p["T_c"], p["mu_c"], "fermionic",
                                    p["kappa_c"]),
                 "h": ReservoirSpec(p["T_h"], p["mu_h"], "fermionic",
                                    p["kappa_h"])})
            assert row[-1] == engine_regime(params)
        assert Counter(row[-1] for row in rows) == {
            "heat_engine": 45, "dual_dissipation": 40, "joint_heating": 10,
            "refrigerator": 6}

    def test_lasso_reaches_carnot_at_stopping_voltage(self, tmp_path):
        path = engine_config(
            tmp_path,
            sweep={"name": "mu_c", "start": 0.0, "stop": 1.25, "steps": 26})
        assert main(["run", path]) == 0
        rows = [line.strip().split(",") for line in
                read_body(tmp_path / "out.csv")[1:]]
        power = np.array([float(r[1]) for r in rows])
        eta = np.array([float(r[4]) for r in rows])
        assert power[0] == 0.0 and eta[0] == 0.0
        assert abs(power[-1]) < 1e-12
        assert eta[-1] == pytest.approx(1 - 0.3 / 0.8, abs=1e-12)
        assert power.max() > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        path = engine_config(tmp_path)
        assert main(["run", path]) == 0
        first = read_body(tmp_path / "out.csv")
        assert main(["run", path]) == 0
        assert read_body(tmp_path / "out.csv") == first

    def test_json_output(self, tmp_path):
        out = tmp_path / "out.json"
        path = engine_config(tmp_path, output={"path": str(out),
                                               "format": "json"})
        assert main(["run", path]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "eps_d"
        assert len(payload["rows"]) == 9
        assert all(len(r) == 6 for r in payload["rows"])

    def test_overrides(self, tmp_path):
        alt = tmp_path / "alt.csv"
        path = engine_config(tmp_path)
        assert main(["run", path, "--out", str(alt), "--seed", "99",
                     "--format", "csv"]) == 0
        assert alt.exists()
        meta = [l for l in open(alt) if l.startswith("# seed")]
        assert meta == ["# seed: 99\n"]

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys,
                                               missing_dir):
        # a missing directory, or an output path that is a directory
        out = tmp_path / "dir"
        if missing_dir:
            out = out / "out.csv"
        else:
            out.mkdir()
        assert main(["run", engine_config(tmp_path), "--out", str(out)]) == 2
        assert f"config error: cannot write output {out}: " in \
            capsys.readouterr().err
        assert list(tmp_path.rglob(".qthermo-*")) == []

    def test_table_gets_the_mode_of_a_plain_open(self, tmp_path):
        umask = os.umask(0o022)
        try:
            assert main(["run", engine_config(tmp_path)]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o644

    def test_numerical_failure_exit_code(self, tmp_path):
        # eta is undefined at eps_d = mu_h; sweep crossing it aborts
        path = engine_config(
            tmp_path, sweep={"name": "eps_d", "start": -1.0, "stop": 1.0,
                             "steps": 3})
        assert main(["run", path]) == 3

    def test_linalg_error_is_numerical_failure(self, tmp_path, capsys,
                                               monkeypatch):
        # LinAlgError subclasses ValueError, which is a config error
        def no_convergence(gen):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("qthermo.cli.steady_state", no_convergence)
        assert main(["run", engine_config(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: SVD did not converge\n"

    def test_first_non_finite_cell_in_row_major_order(self, tmp_path, capsys,
                                                      monkeypatch):
        # eta (column 4) is inf at rows 2 and 6, J_c (column 2) is nan at
        # row 5: row 2 comes first, although its column is the later one
        efficiency, currents = cli.engine_efficiency, cli.all_currents
        infinite = {1.2, 3.2}

        def eta(params):
            return math.inf if params.eps_d in infinite else efficiency(params)

        def nan_at_row_5(gen, ledger, rho):
            out = currents(gen, ledger, rho)
            if len(rho) == 9:
                out["c"][0][5] = math.nan
            return out

        monkeypatch.setattr("qthermo.cli.engine_efficiency", eta)
        monkeypatch.setattr("qthermo.cli.all_currents", nan_at_row_5)
        assert main(["run", engine_config(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: non-finite value inf at row 2, column 4\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("columns", [
        [[1.0, 2.0], [3.0]],              # unequal lengths
        [[1.0, 2.0]],                     # fewer columns than names
        [[1.0], [2.0], [3.0]],            # more columns than names
        [[1.0, 2.0], [[3.0], [4.0]]],     # a column that is not 1-D
        [[1.0, 2.0], [None, 4.0]],        # a cell of no table type
    ])
    def test_malformed_table_is_numerical_failure(self, tmp_path, capsys,
                                                  monkeypatch, columns):
        def table(points, seed):
            return ["a", "b"], ["1", "1"], columns

        monkeypatch.setitem(cli.EXPERIMENTS, "heat-engine",
                            (cli._engine_params, table, table))
        assert main(["run", engine_config(tmp_path, sweep=None)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: a table of 2 names and 2 units has columns ")
        assert not (tmp_path / "out.csv").exists()


class TestSweepFailures:
    """A sweep reports the error of its first failing point in sweep order,
    the one a point-by-point run stops at, even when a later point fails
    in an earlier stage of the batch."""

    def run(self, tmp_path, capsys, params, sweep):
        base = json.loads(open(engine_config(tmp_path)).read())["params"]
        path = engine_config(tmp_path, params={**base, **params}, sweep=sweep)
        code = main(["run", path])
        return code, capsys.readouterr().err

    def test_efficiency_failure_before_later_build_failure(self, tmp_path,
                                                           capsys):
        # point 0 fails at eta (eps_d = mu_h) after its steady state and
        # currents; point 2 (kappa_c < 0) fails while its params are built
        code, err = self.run(tmp_path, capsys, {"eps_d": 0.0},
                             {"name": "kappa_c", "start": 1.0, "stop": -1.0,
                              "steps": 3})
        assert (code, err) == (3, "numerical failure: efficiency undefined "
                                  "at eps_d = mu_h\n")

    def test_steady_state_failure_before_later_build_failure(self, tmp_path,
                                                             capsys):
        # point 0 has no dissipation (two-dimensional kernel)
        code, err = self.run(tmp_path, capsys, {"kappa_h": 0.0},
                             {"name": "kappa_c", "start": 0.0, "stop": -1.0,
                              "steps": 2})
        assert code == 3
        assert err.startswith("numerical failure: Liouvillian kernel is "
                              "2-dimensional")

    def test_tur_failure_before_later_cumulant_failure(self, tmp_path,
                                                       capsys):
        # kappa_R = 0: point 0 has zero mean current, so its TUR audit (the
        # last stage) fails; point 1 (kappa_L = 0 too) fails in cumulants
        path = write_config(tmp_path / "fcs.json", {
            "experiment": "fcs",
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 0.4, "kappa_R": 0.0},
            "sweep": {"name": "kappa_L", "start": 0.4, "stop": 0.0,
                      "steps": 2},
            "output": {"path": str(tmp_path / "fcs.csv"), "format": "csv"}})
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: TUR audit needs a nonzero mean current\n"
        assert not (tmp_path / "fcs.csv").exists()

    def test_zero_mean_current_point_is_numerical_failure(self, tmp_path,
                                                          capsys):
        # mu_L = mu_R = -0.8 at the fifth point: no bias, no mean current
        path = write_config(tmp_path / "fcs.json", {
            "experiment": "fcs",
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 0.6, "kappa_R": 0.4},
            "sweep": {"name": "mu_L", "start": -1.2, "stop": -0.4,
                      "steps": 9},
            "output": {"path": str(tmp_path / "fcs.csv"), "format": "csv"}})
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: TUR audit needs a nonzero mean current\n"
        assert not (tmp_path / "fcs.csv").exists()

    def test_underflowing_mean_current_is_numerical_failure(self, tmp_path,
                                                            capsys):
        # the committed fcs sweep at kappa_R = 1e-320: a mean current of
        # that order, whose square underflows to 0
        config = json.loads((CONFIGS / "fcs_biased_dot.json").read_text())
        config["params"]["kappa_R"] = 1e-320
        config["output"]["path"] = str(tmp_path / "fcs.csv")
        path = write_config(tmp_path / "fcs.json", config)
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: TUR audit needs a nonzero mean current\n"
        assert not (tmp_path / "fcs.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_mean_current_is_numerical_failure(self, tmp_path,
                                                           capsys):
        # the committed fcs sweep at kappa_R = 1e300: a mean current whose
        # square overflows (a one-key mutation found its traceback)
        config = json.loads((CONFIGS / "fcs_biased_dot.json").read_text())
        config["params"]["kappa_R"] = 1e300
        config["output"]["path"] = str(tmp_path / "fcs.csv")
        path = write_config(tmp_path / "fcs.json", config)
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: TUR audit: mean current ** 2 overflows\n"
        assert not (tmp_path / "fcs.csv").exists()

    @pytest.mark.parametrize("name, params, steps", [
        ("heat_engine_levels", {"kappa_c": 1e-10, "kappa_h": 1e-10}, 5),
        ("fcs_biased_dot", {"kappa_L": 1e-11, "kappa_R": 1e-11}, None)])
    def test_weak_coupling_sweep_runs(self, tmp_path, name, params, steps):
        # at kappa << eps_d the slow population mode of L is far below
        # ||L||, yet it is no second kernel direction
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        config["params"].update(params)
        if steps is not None:
            config["sweep"]["steps"] = steps
        config["output"]["path"] = str(tmp_path / "out.csv")
        path = write_config(tmp_path / "config.json", config)
        assert main_quietly(["validate", path]) == (0, "")
        assert main_quietly(["run", path]) == (0, "")
        _, *rows = read_body(tmp_path / "out.csv")
        assert len(rows) == config["sweep"]["steps"]
        for cell in (cell for row in rows for cell in row.strip().split(",")):
            try:
                assert math.isfinite(float(cell))
            except ValueError:
                assert cell.isidentifier()  # a regime label

    def test_error_of_no_point_is_raised_as_is(self, tmp_path, capsys,
                                               monkeypatch):
        # the batch fails, but every point passes when it runs on its own
        steady_state = cli.steady_state

        def batch_only(gen):
            if gen.batch_shape[0] > 1:
                raise np.linalg.LinAlgError("batch of more than one point")
            return steady_state(gen)

        monkeypatch.setattr("qthermo.cli.steady_state", batch_only)
        assert main(["run", engine_config(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: batch of more than one point\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("bug", [NotImplementedError, TypeError])
    def test_programming_error_propagates_unrerun(self, tmp_path,
                                                  monkeypatch, bug):
        # neither a ValueError nor a NumericalError: a bug is raised once,
        # from the whole batch, and shows its traceback, not an exit code
        batches = []

        def table(points, seed):
            batches.append(len(points))
            raise bug("not a table")

        monkeypatch.setitem(cli.EXPERIMENTS, "heat-engine",
                            (cli._engine_params, table, table))
        with pytest.raises(bug, match="not a table"):
            main(["run", engine_config(tmp_path)])
        assert batches == [9]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("eps_c", 2**70), ("eps_c", 1e300), ("eps_h", 2**70),
        ("eps_h", 1e300), ("T_c", 1e-320), ("T_r", 1e-320), ("T_h", 1e-320),
        ("T_c", 3e-4), ("eps_c", 1e-320), ("eps_h", 1e-320)])
    def test_absorption_at_extreme_gap_over_temperature(self, tmp_path, key,
                                                        value):
        # past eps/k_B T ~ 709.8 the qubit occupation n_F underflows to 0
        # while n_B is still subnormal; the effective rate kappa n_B / n_F
        # then takes its limit kappa. At eps = 1e-320, n_B overflows: a
        # config error from both commands
        config = json.loads(
            (CONFIGS / "absorption_switchoff.json").read_text())
        config["params"][key] = value
        del config["params"]["steps"]  # read only by the transient
        config["sweep"] = {"name": "kappa_c", "start": 0.005, "stop": 0.01,
                           "steps": 2}
        config["output"]["path"] = str(tmp_path / "abs.csv")
        path = write_config(tmp_path / "abs.json", config)
        validated = main_quietly(["validate", path])
        ran = main_quietly(["run", path])
        if value == 1e-320 and key.startswith("eps"):
            assert validated[0] == 2
            assert "Bose occupation not finite" in validated[1]
            assert ran == validated
        else:
            assert validated == (0, "")
            assert ran[0] in (0, 3)

    def test_fridge_bookkeeping_failure_is_numerical(self, tmp_path, capsys,
                                                     monkeypatch):
        # a negative bound fails the ledger-against-structure check at the
        # first point and first reservoir
        monkeypatch.setattr("qthermo.models.fridge.TOL_CURRENT_CONSISTENCY",
                            -1.0)
        path = write_config(tmp_path / "abs.json", {
            "experiment": "absorption",
            "params": {"eps_c": 0.3, "eps_h": 1.0, "g": 0.05, "T_c": 0.4,
                       "T_r": 1.0, "T_h": 2.0, "kappa_c": 0.02,
                       "kappa_h": 0.03, "kappa_r": 0.025},
            "sweep": {"name": "eps_c", "start": 0.2, "stop": 0.45,
                      "steps": 6},
            "output": {"path": str(tmp_path / "abs.csv"), "format": "csv"}})
        assert main(["run", path]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: bookkeeping J_c = ")
        assert not (tmp_path / "abs.csv").exists()


class TestOtherExperiments:
    def test_double_dot_sweep(self, tmp_path):
        path = write_config(tmp_path / "dd.json", {
            "experiment": "double-dot",
            "params": {"eps": 0.0, "g": 0.31, "T_L": 0.01, "T_R": 0.01,
                       "mu_L": 2.0, "mu_R": -2.0, "kappa_L": 1.0,
                       "kappa_R": 1.0},
            "sweep": {"name": "g", "start": 0.05, "stop": 1.4, "steps": 12},
            "output": {"path": str(tmp_path / "dd.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in read_body(tmp_path / "dd.csv")[1:]]
        conc = [float(r[1]) for r in rows]
        flags = [int(r[4]) for r in rows]
        assert max(conc) > 0.30
        assert any(flags) and not all(flags)

    def test_single_dot_time_series(self, tmp_path):
        path = write_config(tmp_path / "sd.json", {
            "experiment": "single-dot",
            "params": {"eps_d": 1.0, "p1_initial": 0.9, "t_max": 6.0,
                       "steps": 40,
                       "reservoirs": {"B": {"temperature": 0.5,
                                            "chemical_potential": 0.1,
                                            "coupling": 0.8}}},
            "output": {"path": str(tmp_path / "sd.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in read_body(tmp_path / "sd.csv")[1:]]
        p1 = [float(r[1]) for r in rows]
        sigma = [float(r[-1]) for r in rows]
        assert p1[0] == pytest.approx(0.9)
        assert all(a >= b for a, b in zip(p1, p1[1:]))  # relaxes downward
        assert all(s >= -1e-9 for s in sigma)

    def test_absorption_transient_dip(self, tmp_path):
        path = write_config(tmp_path / "abs.json", {
            "experiment": "absorption",
            "params": {"eps_c": 0.3, "eps_h": 1.0, "g": 0.05, "T_c": 0.4,
                       "T_r": 1.0, "T_h": 2.0, "kappa_c": 0.005,
                       "kappa_h": 0.005, "kappa_r": 0.005, "steps": 200},
            "output": {"path": str(tmp_path / "abs.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in read_body(tmp_path / "abs.csv")[1:]]
        theta = np.array([float(r[2]) for r in rows])
        on = np.array([int(r[3]) for r in rows])
        assert on[0] == 1 and on[-1] == 0
        # the switched-off tail stays below the starting temperature
        assert theta[on == 0].max() < theta[0]

    def test_absorption_transient_builds_each_machine_once(self, tmp_path,
                                                           monkeypatch):
        # the machine with the interaction on and the one switched off;
        # the transient needs no steady state
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            for module in (fridge, cli, lindblad):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)

        counted("fridge_generator", fridge.fridge_generator)
        counted("steady_state", lindblad.steady_state)
        run(str(CONFIGS / "absorption_switchoff.json"),
            out=str(tmp_path / "abs.csv"))
        assert calls == {"fridge_generator": 2}

    def test_absorption_horizon_before_minimum(self, tmp_path, capsys):
        # the first temperature minimum of these params lies at t ~ 32.85;
        # validate cannot know it without running the protocol
        params = json.loads(
            (CONFIGS / "absorption_switchoff.json").read_text())["params"]
        t_max = 32.0
        path = write_config(tmp_path / "abs.json", {
            "experiment": "absorption",
            "params": {**params, "steps": 40, "t_max": t_max},
            "output": {"path": str(tmp_path / "abs.csv"), "format": "csv"}})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: params.t_max = {t_max} must "
                              "exceed the first temperature minimum t_min = ")
        assert float(err.split("t_min = ")[1]) == pytest.approx(32.85,
                                                                abs=0.01)
        assert not (tmp_path / "abs.csv").exists()
        assert main(["validate", path]) == 0

    def test_absorption_sweep_takes_any_g(self, tmp_path, capsys):
        # a steady-state sweep runs no switch-off protocol, so g <= 0 and
        # g = 1e-320 are points like any other
        path = write_config(tmp_path / "abs.json", {
            "experiment": "absorption",
            "params": {"eps_c": 0.3, "eps_h": 1.0, "g": 0.05, "T_c": 0.4,
                       "T_r": 1.0, "T_h": 2.0, "kappa_c": 0.02,
                       "kappa_h": 0.03, "kappa_r": 0.025},
            "sweep": {"name": "g", "start": -1.0, "stop": 1e-320,
                      "steps": 3},
            "output": {"path": str(tmp_path / "abs.csv")}})
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 0, capsys.readouterr().err
        rows = read_body(tmp_path / "abs.csv")[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-1.0, -0.5, 1e-320]

    def test_absorption_steady_sweep(self, tmp_path):
        path = write_config(tmp_path / "abs2.json", {
            "experiment": "absorption",
            "params": {"eps_c": 0.3, "eps_h": 1.0, "g": 0.05, "T_c": 0.4,
                       "T_r": 1.0, "T_h": 2.0, "kappa_c": 0.02,
                       "kappa_h": 0.03, "kappa_r": 0.025},
            "sweep": {"name": "eps_c", "start": 0.2, "stop": 0.45,
                      "steps": 6},
            "output": {"path": str(tmp_path / "abs2.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in
                read_body(tmp_path / "abs2.csv")[1:]]
        cooling = [int(r[-1]) for r in rows]
        assert cooling[0] == 1 and cooling[-1] == 0

    def test_fcs_experiment(self, tmp_path):
        path = write_config(tmp_path / "fcs.json", {
            "experiment": "fcs",
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 0.6, "kappa_R": 0.4},
            "output": {"path": str(tmp_path / "fcs.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in read_body(tmp_path / "fcs.csv")[1:]]
        assert len(rows) == 1
        row = [float(x) for x in rows[0]]
        c1, c2, tur_ratio, tur_bound, tur_ok = (row[0], row[1], row[6],
                                                row[7], row[8])
        assert c1 > 0 and c2 > 0
        assert tur_ratio >= tur_bound and tur_ok == 1

    def test_tpm_experiment(self, tmp_path):
        path = write_config(tmp_path / "tpm.json", {
            "experiment": "tpm",
            "seed": 5,
            "params": {"eps0": 1.0, "angle": 0.9, "beta": 1.0, "tau": 0.7,
                       "n_samples": 20000},
            "output": {"path": str(tmp_path / "tpm.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = [l.strip().split(",") for l in read_body(tmp_path / "tpm.csv")[1:]]
        assert len(rows) == 4
        p_fwd = sum(float(r[3]) for r in rows)
        counts = sum(int(r[5]) for r in rows)
        assert p_fwd == pytest.approx(1.0, abs=1e-10)
        assert counts == 20000

    def test_trajectories_experiment(self, tmp_path):
        path = write_config(tmp_path / "tj.json", {
            "experiment": "trajectories",
            "seed": 11,
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 1.0, "kappa_R": 1.0,
                       "tau": 2.0, "n_traj": 20000},
            "output": {"path": str(tmp_path / "tj.csv"), "format": "csv"}})
        assert main(["run", path]) == 0
        rows = {r[0]: (float(r[1]), float(r[2]))
                for r in (l.strip().split(",") for l in
                          read_body(tmp_path / "tj.csv")[1:])}
        est, err = rows["ift_estimate"]
        assert abs(est - 1.0) < 4 * err
        assert rows["negative_sigma_fraction"][0] > 0


class TestGoldenBodies:
    """SHA-256 of the CSV table body of every committed config.

    The body is every line that does not start with '#', so the metadata
    block (wall time, version) is excluded. The digests were recorded with
    numpy 2.4.6 / scipy 1.17.1 on OpenBLAS, on an x86-64 CPU; another
    numpy, LAPACK or CPU may round differently and change them without any
    change to qthermo. On the recording stack they pin the table bodies bit
    for bit, which is what the stacked-channel kernels must preserve.
    """

    DIGESTS = {
        "absorption_switchoff":
            "07eefd85251604cef5d24fe6dafd49c6e13c292ad5f67b0674058d05421d349a",
        "double_dot_entanglement":
            "4de145c051bfc81547fe12873b55c0623b2b91d720561de74a5ad887a0e1692e",
        "fcs_biased_dot":
            "f4db9dc861147f2143c28ca0f47f6154e506ecea561ba26199a05b44977a9598",
        "heat_engine_lasso":
            "eadf32fb1e960010d89c2b439a8aa645b767e9dd734a8be97941d89aaae57e03",
        "heat_engine_levels":
            "c92f5d30174e5a006e24477bfda07fd63f0656c159d2d2bb7f9eacc67e7a4341",
        "tpm_quench":
            "b14206183362173d9cac85b44812337e023d5c1260037ca19b13e4526643acdb",
        "trajectories_ft":
            "2276abef3396fd6b3a72146d02d37b78cf9e0bc63f7647992fd65f53ddab1e8a",
    }

    # SHA-256 of each config's JSON output from '"columns"' to the end of
    # the file: the metadata object comes first and is excluded
    JSON_DIGESTS = {
        "absorption_switchoff":
            "c60228e1bced3f9b05b57813da8e00bc8d99a25056d0f4a5240abf7ae7f7c8fe",
        "double_dot_entanglement":
            "e95d1074c11c65758d9d18d72dc64b86a05109d80a01798064feec3df8463820",
        "fcs_biased_dot":
            "463957ac33ff6457f6d4ade076690e1c67e0f92045ecdf8edad83a95712ec279",
        "heat_engine_lasso":
            "e6c3bc9b1d8a03b2c1b84d00ec2981b7a1ed25300cb731c44348b09beb233632",
        "heat_engine_levels":
            "9cba460b546bea46073acc6348a463c4b4bb62da299a5d532860b71df8bbda33",
        "tpm_quench":
            "98487ebfc89212129f486a0344d0cc5c4f06c6f589e55dd3fac3b1a7cf300f79",
        "trajectories_ft":
            "bc6574d8b52e41c353c9776b7ee50bb0736e8290da36190c305d07768bb3c8bc",
    }

    # a 200-step single-dot time series between two biased leads
    SINGLE_DOT_SERIES = {
        "experiment": "single-dot",
        "seed": 1,
        "params": {
            "eps_d": 1.0, "p1_initial": 0.0, "t_max": 10.0, "steps": 200,
            "reservoirs": {
                "L": {"temperature": 0.5, "chemical_potential": 0.8,
                      "coupling": 0.6},
                "R": {"temperature": 0.5, "chemical_potential": -0.8,
                      "coupling": 0.4}}}}
    SINGLE_DOT_DIGEST = \
        "4b58af6ae9adba482784ba8ed9bafd1983bd6e13b5ff8f4dc5441b51c5ef07b8"

    def test_every_config_is_pinned(self):
        assert sorted(p.stem for p in CONFIGS.glob("*.json")) == \
            sorted(self.DIGESTS) == sorted(self.JSON_DIGESTS)

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_csv_body_digest(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        run(str(CONFIGS / f"{name}.json"), out=str(out), fmt="csv")
        body = "".join(read_body(out))
        assert hashlib.sha256(body.encode()).hexdigest() == self.DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
    def test_json_body_digest(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        run(str(CONFIGS / f"{name}.json"), out=str(out), fmt="json")
        text = out.read_text()
        body = text[text.index('"columns"'):]
        assert hashlib.sha256(body.encode()).hexdigest() == \
            self.JSON_DIGESTS[name]

    def test_single_dot_series_digest(self, tmp_path):
        out = tmp_path / "series.csv"
        path = write_config(tmp_path / "series.json", {
            **self.SINGLE_DOT_SERIES,
            "output": {"path": str(out), "format": "csv"}})
        assert main(["run", path]) == 0
        body = "".join(read_body(out))
        assert hashlib.sha256(body.encode()).hexdigest() == \
            self.SINGLE_DOT_DIGEST

    @pytest.mark.parametrize("name", sorted(
        n for n in DIGESTS
        if "sweep" in json.loads((CONFIGS / f"{n}.json").read_text())))
    def test_csv_body_digest_in_one_point_chunks(self, tmp_path, monkeypatch,
                                                 name):
        # a one-byte budget runs every sweep point as a chunk of its own
        monkeypatch.setattr("qthermo.lindblad.BATCH_BYTES", 1)
        self.test_csv_body_digest(tmp_path, name)


class TestValidate:
    def test_local_mode_margin_warning(self, tmp_path, capsys):
        path = write_config(tmp_path / "v.json", {
            "experiment": "double-dot",
            "params": {"eps": 1.0, "g": 1.0, "T_L": 0.5, "T_R": 0.5,
                       "mu_L": 0.2, "mu_R": -0.2, "kappa_L": 1.0,
                       "kappa_R": 1.0}})
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "interdot" in out

    def test_fridge_resonance_violation_is_hard_error(self, tmp_path, capsys):
        # eps_r = eps_c + eps_h is derived, so no config can set it
        path = write_config(tmp_path / "v.json", {
            "experiment": "absorption",
            "params": {"eps_c": 0.3, "eps_h": 1.0, "eps_r": 1.2, "g": 0.05,
                       "T_c": 0.4, "T_r": 1.0, "T_h": 2.0, "kappa_c": 0.02,
                       "kappa_h": 0.03, "kappa_r": 0.025}})
        assert main(["validate", path]) == 2
        assert "unknown keys ['eps_r'] in params" in capsys.readouterr().err

    def test_valid_config_silent(self, tmp_path, capsys):
        path = write_config(tmp_path / "v.json", {
            "experiment": "heat-engine",
            "params": {"eps_d": 2.0, "T_c": 0.3, "T_h": 0.8, "mu_c": 1.0,
                       "mu_h": 0.0, "kappa_c": 0.01, "kappa_h": 0.01}})
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == ""

    ENGINE = {"eps_d": 2.0, "T_c": 0.3, "T_h": 0.8, "mu_c": 1.0, "mu_h": 0.0,
              "kappa_c": 0.01, "kappa_h": 0.01}
    SINGLE_DOT = {"eps_d": 1.0, "t_max": 6.0,
                  "reservoirs": {"B": {"temperature": 0.5, "coupling": 0.01}}}
    FRIDGE = {"eps_c": 0.3, "eps_h": 0.7, "g": 0.05, "T_c": 0.4, "T_r": 1.0,
              "T_h": 2.0, "kappa_c": 0.005, "kappa_h": 0.005,
              "kappa_r": 0.005}
    TPM = {"eps0": 1.0, "angle": 0.9, "beta": 1.0, "tau": 0.7,
           "n_samples": 100}
    DOUBLE_DOT = {"eps": 0.0, "g": 0.309, "T_L": 0.01, "T_R": 0.01,
                  "mu_L": 2.0, "mu_R": -2.0, "kappa_L": 1.0, "kappa_R": 1.0}
    TRAJECTORIES = {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                    "mu_R": -0.8, "kappa_L": 0.01, "kappa_R": 0.01,
                    "tau": 2.0, "n_traj": 10}

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "single-dot",
          "params": {"eps_d": 1.0, "t_max": 6.0, "bogus": 1,
                     "reservoirs": {"B": {"temperature": 0.5,
                                          "coupling": 0.01}}}},
         "unknown keys ['bogus'] in params"),
        ({"experiment": "heat-engine", "params": {**ENGINE, "t_max": 5.0}},
         "unknown keys ['t_max'] in params"),
        ({"experiment": "heat-engine", "params": ENGINE,
          "sweep": {"name": "eps_x", "start": 0.2, "stop": 4.2, "steps": 3}},
         "sweep parameter 'eps_x' not present in params"),
        ({"experiment": "heat-engine", "params": {**ENGINE, "eps_d": "2.0"},
          "sweep": {"name": "eps_d", "start": 0.2, "stop": 4.2, "steps": 3}},
         "sweep parameter 'eps_d' has wrong type str"),
        ({"experiment": "heat-engine", "params": ENGINE,
          "sweep": {"name": "kappa_c", "start": 0.01, "stop": -0.01,
                    "steps": 3}},
         "coupling must be >= 0, got -0.01"),
        ({"experiment": "tpm", "params": {**TPM, "bogus": 1}},
         "unknown keys ['bogus'] in params"),
        ({"experiment": "single-dot", "params": SINGLE_DOT,
          "sweep": {"name": "eps_d", "start": 0.5, "stop": 1.5, "steps": 3}},
         "single-dot does not support a sweep"),
        ({"experiment": "single-dot",
          "params": {k: v for k, v in SINGLE_DOT.items() if k != "t_max"}},
         "missing key 't_max' in params"),
        ({"experiment": "single-dot",
          "params": {**SINGLE_DOT, "p1_initial": 2.0}},
         "p1_initial must lie in [0, 1]"),
        ({"experiment": "trajectories",
          "params": {**TRAJECTORIES, "n_traj": 1}},
         "params.n_traj must be >= 2"),
        ({"experiment": "absorption", "params": {**FRIDGE, "steps": "x"}},
         "key 'steps' has wrong type str"),
        ({"experiment": "tpm", "params": {**TPM, "n_samples": -3}},
         "params.n_samples must be >= 0"),
        ({"experiment": "tpm", "params": {**TPM, "beta": -1}},
         "beta must be finite and > 0, got -1.0"),
        ({"experiment": "tpm", "params": {**TPM, "tau": -0.7}},
         "tau must be finite and >= 0, got -0.7"),
        ({"experiment": "single-dot", "params": {**SINGLE_DOT, "steps": 0}},
         "params.steps must be >= 2"),
        ({"experiment": "single-dot", "params": {**SINGLE_DOT, "steps": -1}},
         "params.steps must be >= 2"),
        ({"experiment": "single-dot", "params": {**SINGLE_DOT, "t_max": -1.0}},
         "params.t_max must be > 0"),
        ({"experiment": "absorption", "params": {**FRIDGE, "steps": 0}},
         "params.steps must be >= 2"),
        ({"experiment": "absorption", "params": {**FRIDGE, "t_max": -1.0}},
         "params.t_max must be >= 0"),
        ({"experiment": "trajectories",
          "params": {**TRAJECTORIES, "tau": -1.0}},
         "params.tau must be >= 0"),
        ({"experiment": "absorption", "params": {**FRIDGE, "eps_r": True},
          "sweep": {"name": "g", "start": 0.01, "stop": 0.05, "steps": 3}},
         "unknown keys ['eps_r']"),
        ({"experiment": "absorption", "params": {**FRIDGE, "eps_r": "x"}},
         "unknown keys ['eps_r']"),
        # the tables are closed forms of the local mode: no mode key
        ({"experiment": "double-dot",
          "params": {**DOUBLE_DOT, "mode": "local"}},
         "unknown keys ['mode'] in params"),
        ({"experiment": "double-dot", "params": {**DOUBLE_DOT, "kappa_R": 0}},
         "params.kappa_R must be > 0"),
        ({"experiment": "tpm", "params": {**TPM, "n_samples": 2**70}},
         f"params.n_samples must be <= {cli.MAX_SAMPLES}"),
        ({"experiment": "trajectories",
          "params": {**TRAJECTORIES, "n_traj": 2**70}},
         f"params.n_traj must be <= {cli.MAX_SAMPLES}"),
        ({"experiment": "absorption", "params": {**FRIDGE, "steps": 2**70}},
         f"params.steps must be <= {cli.MAX_ROWS}"),
        ({"experiment": "single-dot", "params": {**SINGLE_DOT, "steps": 2**62}},
         f"params.steps must be <= {cli.MAX_ROWS}"),
        ({"experiment": "heat-engine", "params": ENGINE,
          "sweep": {"name": "eps_d", "start": 0.2, "stop": 4.2,
                    "steps": 2**70}},
         f"sweep.steps must be <= {cli.MAX_ROWS}"),
        ({"experiment": "trajectories",
          "params": {**TRAJECTORIES, "kappa_L": 2**70}},
         "expected jumps params.n_traj * params.tau * (params.kappa_L + "
         "params.kappa_R)"),
        # a transient's switch-off protocol scans 3 periods pi/g at step
        # 0.01/g, which needs g > 0 and overflows at g = 1e-320
        ({"experiment": "absorption", "params": {**FRIDGE, "g": 0}},
         "config error: params.g = 0.0 must be > 0 for the "
         "switch-off protocol"),
        ({"experiment": "absorption", "params": {**FRIDGE, "g": -0.5}},
         "config error: params.g = -0.5 must be > 0"),
        ({"experiment": "absorption", "params": {**FRIDGE, "g": -1}},
         "config error: params.g = -1.0 must be > 0"),
        ({"experiment": "absorption", "params": {**FRIDGE, "g": 1e-320}},
         "config error: params.g = 1e-320 is too small for the switch-off "
         "protocol"),
        # only the transient reads t_max and steps
        ({"experiment": "absorption",
          "params": {**FRIDGE, "steps": 7, "t_max": 123.0},
          "sweep": {"name": "g", "start": 0.01, "stop": 0.05, "steps": 3}},
         "unknown keys ['steps', 't_max'] in params"),
        ({"experiment": "absorption", "params": {**FRIDGE, "t_max": 123.0},
          "sweep": {"name": "g", "start": 0.01, "stop": 0.05, "steps": 3}},
         "unknown keys ['t_max'] in params"),
        # the room gap is derived, even where a config gives the sum
        ({"experiment": "absorption",
          "params": {**FRIDGE, "eps_c": 0.1, "eps_h": 0.2, "eps_r": 0.3}},
         "unknown keys ['eps_r'] in params"),
        # eps_h / k_B T_h = 5e-324 / 2 rounds to 0, where the hot qubit's
        # Bose occupation diverges
        ({"experiment": "absorption", "params": {**FRIDGE, "eps_h": 5e-324}},
         "config error: bose_einstein diverges at omega/k_B T = 0.0 "
         "(omega = 5e-324)"),
    ])
    def test_rejects_what_run_rejects(self, tmp_path, capsys, monkeypatch,
                                      config, message):
        # a sampler that refuses makes a lost check fail instead of hang
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.setattr(trajectories, "_unravel_slice", refuse)
        path = write_config(tmp_path / "v.json", {
            **config, "output": {"path": str(tmp_path / "v.csv")}})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("config", [
        {"experiment": "tpm",
         "params": {**TPM, "n_samples": cli.MAX_SAMPLES}},
        {"experiment": "trajectories",
         "params": {**TRAJECTORIES, "n_traj": cli.MAX_SAMPLES}},
        {"experiment": "trajectories",
         "params": {**TRAJECTORIES, "kappa_L": 0.25, "kappa_R": 0.25,
                    "tau": 20.0, "n_traj": cli.MAX_EXPECTED_JUMPS // 10}},
        {"experiment": "absorption",
         "params": {**FRIDGE, "steps": cli.MAX_ROWS}},
        {"experiment": "single-dot",
         "params": {**SINGLE_DOT, "steps": cli.MAX_ROWS}},
        {"experiment": "heat-engine", "params": ENGINE,
         "sweep": {"name": "eps_d", "start": 0.2, "stop": 4.2,
                   "steps": cli.MAX_ROWS}},
    ])
    def test_counts_at_their_caps_pass(self, tmp_path, config):
        assert main(["validate", write_config(tmp_path / "v.json",
                                              config)]) == 0

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in CONFIGS.glob("*.json")))
    def test_reports_the_warnings_of_run(self, tmp_path, capsys, name):
        path = str(CONFIGS / f"{name}.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(path, out=str(tmp_path / "out.csv"))
        raised = dict.fromkeys(str(w.message) for w in caught
                               if issubclass(w.category, ValidityWarning))
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.splitlines() == \
            [f"warning: {msg}" for msg in raised]

    @settings(max_examples=30, deadline=None)
    @given(target=st.sampled_from(mutable_keys()),
           value=st.sampled_from(MUTATIONS))
    def test_one_key_mutation_keeps_the_contract(self, target, value):
        """Change one key of a committed config: both commands exit 0, 2
        or 3 with no other exception; a config error from ``validate`` is
        ``run``'s too, with the same message; a config ``validate``
        accepts runs or fails numerically. (The committed absorption
        transient sets no t_max, the one key whose error only ``run`` can
        find: t_max must exceed the first minimum t_min.)"""
        name, section, key = target
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        for part in (cfg["params"], cfg.get("sweep", {})):
            part.update({k: min(part[k], cap)
                         for k, cap in COUNT_CAPS.items() if k in part})
        where = cfg if section is None else cfg[section]
        if value == MISSING:
            del where[key]
        else:
            where[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg["output"]["path"] = os.path.join(tmp, "out.csv")
            path = write_config(Path(tmp) / "config.json", cfg)
            validated, message = main_quietly(["validate", path])
            assert validated in (0, 2, 3)
            ran, run_message = main_quietly(["run", path])
        assert ran in (0, 2, 3)
        if validated == 2:
            assert (ran, run_message) == (2, message)
        if validated == 0:
            assert ran in (0, 3), run_message

    @pytest.mark.parametrize("experiment, extra", [
        ("fcs", {}), ("trajectories", {"tau": 2.0, "n_traj": 10})])
    def test_dot_margin_warnings(self, tmp_path, capsys, experiment, extra):
        path = write_config(tmp_path / "v.json", {
            "experiment": experiment,
            "params": {"eps_d": 1.0, "T_L": 0.5, "T_R": 0.5, "mu_L": 0.8,
                       "mu_R": -0.8, "kappa_L": 1.0, "kappa_R": 1.0,
                       **extra}})
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        for line, tag in zip(out, "LR"):
            assert line.startswith(f"warning: reservoir {tag!r} coupling: ")


# Which scipy modules, qthermo modules and argparse a fresh interpreter has
# loaded; the suite's own process has imported them all during collection.
# A qthermo module counts once it has run: the package enters fcs and
# trajectories, and qthermo.models its machines, in sys.modules as
# LazyLoader stubs, whose type is not ModuleType until first use.
_PROBE_HEAD = """
import json, sys, warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import ModuleType

def loaded():
    return sorted(k for k, m in sys.modules.items()
                  if k.split(".")[0] == "scipy" or type(m) is ModuleType
                  and (k.split(".")[0] == "qthermo" or k == "argparse"))
"""
_LOAD_PROBE = _PROBE_HEAD + """
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
steps = {}
import qthermo
steps["import qthermo"] = loaded()
import qthermo.cli as cli
steps["import qthermo.cli"] = loaded()
warnings.simplefilter("ignore")
for name in sys.argv[3:]:
    cli.run(str(configs / f"{name}.json"), out=str(out / f"{name}.csv"))
    steps[f"run {name}"] = loaded()
with redirect_stdout(StringIO()):
    for path in sorted(configs.glob("*.json")):
        cli.validate(str(path))
steps["validate"] = loaded()
print(json.dumps(steps))
"""
# validates the configs named on the command line through ``main``
_VALIDATE_PROBE = _PROBE_HEAD + """
import qthermo.cli as cli
with redirect_stdout(StringIO()):
    codes = [cli.main(["validate", path]) for path in sys.argv[1:]]
print(json.dumps([codes, loaded()]))
"""
_PACKAGE = ["qthermo", "qthermo.lindblad", "qthermo.qcore", "qthermo.thermo"]
# what importing the CLI loads: the package, and the single and double dot,
# whose parse steps a sweep calls once per point
_CLI = sorted([*_PACKAGE, "qthermo.cli", "qthermo.models",
               "qthermo.models.common", "qthermo.models.single_dot",
               "qthermo.models.double_dot"])
# the modules each experiment loads beyond those, to validate a config
_VALIDATE_LOADS = {"absorption": ["qthermo.models.fridge"],
                   "tpm": ["qthermo.trajectories"]}


def _probe(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _outputs(procs):
    """What each probe printed, read as JSON once all of them have exited."""
    streams = [proc.communicate(timeout=60) for proc in procs]
    for proc, (_, err) in zip(procs, streams):
        assert proc.returncode == 0, err
    return [json.loads(out) for out, _ in streams]


def test_scipy_loads_on_first_use(tmp_path):
    """Importing qthermo loads neither scipy nor fcs, models or
    trajectories, and importing the CLI neither scipy, fcs, trajectories,
    the fridge nor argparse. Running the five configs that need no scipy
    function and then validating every config leave scipy unloaded, and
    each config loads only its own experiment's modules."""
    runs = {"heat_engine_levels": [], "heat_engine_lasso": [],
            "double_dot_entanglement": [],
            "tpm_quench": ["qthermo.trajectories"],
            "fcs_biased_dot": ["qthermo.fcs"]}
    [steps] = _outputs([_probe(_LOAD_PROBE, CONFIGS, tmp_path, *runs)])
    assert steps.pop("import qthermo") == _PACKAGE
    expected = _CLI
    assert steps.pop("import qthermo.cli") == expected
    for name, loads in runs.items():
        expected = sorted([*expected, *loads])
        assert steps.pop(f"run {name}") == expected, name
    assert steps.pop("validate") == sorted(
        [*expected, "qthermo.models.fridge"])
    assert steps == {}


def test_validate_loads_only_its_experiment():
    """A fresh ``qthermo validate`` of each committed config loads the CLI
    and argparse, plus only what its experiment's parse step needs."""
    by_experiment = {}
    for path in sorted(CONFIGS.glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        by_experiment.setdefault(experiment, []).append(path)
    # one process per experiment, all at once
    outputs = _outputs([_probe(_VALIDATE_PROBE, *paths)
                        for paths in by_experiment.values()])
    for experiment, (codes, loaded) in zip(by_experiment, outputs):
        assert codes == [0] * len(by_experiment[experiment])
        assert loaded == sorted([*_CLI, "argparse",
                                 *_VALIDATE_LOADS.get(experiment, [])]), \
            experiment
