"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py
    PYTHONPATH=src python3 -m pytest perfbench/selftest.py

They check that each workload emits exactly the metrics BENCHMARK.json
declares, that tracing leaves every qthermo function as it found it and
counts calls the same way twice, that host-speed sampling puts the timer
back, and that corrupted outputs are counted as failed items. A full run takes about two minutes.
"""

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from qthermo import lindblad  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_the_code():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS)[:len(declared)]
    assert _declared("per_layer") == dict(tracing.declared_metrics())


def test_smoke_runs_emit_declared_metrics():
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == _declared(section), (workload, trace)


def _bindings():
    """Every function-valued attribute of every loaded qthermo module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "qthermo" or name.startswith("qthermo.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracing_restores_functions_and_repeats_counts():
    before = _bindings()
    counts = []
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Transient(0, tmp)
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                changed = sum(before[k] is not v for k, v in _bindings().items())
                assert changed >= len(tracing.TRACED)
                wl.run_pass()
            finally:
                tracer.uninstall()
            metrics = tracing.pass_metrics(tracer.take_spans())
            counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert counts[0] == counts[1]
    assert counts[0]["qcore.expm_dense.calls"] > 0


def test_host_speed_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert speed.scale() > 0


def _edit_table(path, edit):
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(payload["rows"])
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def test_corrupted_sweep_cell_is_a_failed_item():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.SweepSmallD(0, tmp)
        outputs = wl.run_pass()
        assert wl.check(outputs).failed == 0

        def perturb_power(rows):
            rows[7][1] += 1e-9

        _edit_table(outputs["heat_engine_lasso"], perturb_power)
        tally = wl.check(outputs)
        assert (tally.attempted, tally.failed) == (wl.items, 1)


def test_ift_estimate_moved_by_ten_sigma_fails_the_ensemble():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Sampling(0, tmp)
        outputs = wl.run_pass()
        assert wl.check(outputs).failed == 0

        def shift_ift(rows):
            row = next(r for r in rows if r[0] == "ift_estimate")
            row[1] += 10.0 * row[2]

        _edit_table(outputs["trajectories_ft"], shift_ift)
        assert wl.check(outputs).failed == wl.n_traj


def test_perturbed_steady_state_is_a_failed_solve():
    gen, ledger = workloads.ladder_generator(8, np.random.default_rng(0))
    liou = lindblad.build_liouvillian(gen)
    rho = lindblad.steady_state(gen)
    out = (liou, rho, lindblad.all_currents(gen, ledger, rho),
           lindblad.entropy_production_rate(gen, ledger, rho),
           lindblad.propagate(gen, rho, 5.0))
    assert workloads.SteadyLargeD.solve_problem(gen, *out) is None
    bad = rho.copy()
    bad[0, 1] += 1e-6
    bad[1, 0] += 1e-6
    assert workloads.SteadyLargeD.solve_problem(gen, liou, bad, *out[2:]) is not None


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok {name}")
