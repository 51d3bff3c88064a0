"""Run one qthermo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_small_d --seed 1 --seconds 20 --trace 0

Each run is one process and a closed loop: one untimed warm-up pass, then
timed passes back to back until ``--seconds`` of passes have gone by. Every
output of every pass is checked. An untraced run also times five fresh
interpreters that import qthermo and build the workload's inputs, spread
between the passes so that they meet the same host load. ``--trace 0``
prints the end-to-end metrics, in nominal seconds (see hostspeed.py);
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a result file with
the machine block and every pass time is written to ``perfbench/out/``.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer, declared_metrics, pass_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# BENCHMARK.json declares the first two; see perfbench/README.md for why
WORKLOAD_NAMES = ("sweep_small_d", "sampling", "transient", "steady_large_d")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "QTHERMO_NUM_THREADS")
# Declared in BENCHMARK.json. pass_s.tail and failed_frac are printed and
# written to the result file as well, but not declared: with 13 to 50 passes
# per run the "tail" lies between the 15th and 78th percentile, and
# a bound relative to the parent's median means nothing for failed_frac,
# which is 0 whenever the program is correct; the last output line carries
# correctness as ``correct`` and ``failed``.
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}
TAIL_MARGIN = 10  # passes that must lie above the reported tail time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_block():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def warn_thread_env():
    for var in THREAD_VARS:
        if var in os.environ:
            print(f"warning: {var}={os.environ[var]} is set; thread settings "
                  "change the transient workload by up to 6x, so results are "
                  "comparable only with runs under the same setting",
                  file=sys.stderr)


def time_setup(workload, seed, workdir):
    """(wall seconds, host-speed scale) of one fresh interpreter that imports
    qthermo.cli and builds the workload's inputs."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload, str(seed),
         str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed, float(proc.stdout.split()[-1])


def tail(times):
    """(time, percentile): the highest order statistic with TAIL_MARGIN passes
    above it, or (None, None) when too few passes ran to have one."""
    ordered = sorted(times)
    index = len(ordered) - 1 - TAIL_MARGIN
    if index < 0:
        return None, None
    return ordered[index], 100.0 * index / len(ordered)


def run_passes(wl, seconds, trace, setup=None):
    """Warm-up, then closed-loop passes until ``seconds`` of passes have gone
    by. In trace mode the passes alternate untraced and traced, starting
    untraced; otherwise every pass samples the host speed. ``setup``, if
    given, is timed SETUP_RUNS times at even steps of the elapsed pass time;
    those seconds do not count towards ``seconds``."""
    attempted = failed = 0
    problems = []
    fcs_errors = []

    def one_pass(tracer=None):
        nonlocal attempted, failed
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            with HostSpeed() if not trace else nullcontext() as speed:
                start = time.perf_counter()
                outputs = wl.run_pass()
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if speed is not None:
            scales.append(speed.scale())
        tally = wl.check(outputs)
        attempted += tally.attempted
        failed += tally.failed
        problems.extend(tally.problems)
        if tally.fcs_max_rel_err is not None:
            fcs_errors.append(tally.fcs_max_rel_err)
        return elapsed

    scales = []
    one_pass()
    scales.clear()  # the warm-up pass is not reported
    plain, traced, layer_runs, setups = [], [], [], []
    tracer = Tracer() if trace else None
    loop_start = time.perf_counter()
    setup_spent = 0.0  # wall seconds of set-up timing, not of passes
    while True:
        elapsed = time.perf_counter() - loop_start - setup_spent
        if (setup is not None and len(setups) < SETUP_RUNS
                and elapsed >= len(setups) * seconds / SETUP_RUNS):
            setups.append(setup())
            setup_spent += setups[-1][0]
            continue
        if elapsed >= seconds and (traced or not trace):
            break
        if trace and len(traced) < len(plain):
            traced.append(one_pass(tracer))
            layer_runs.append(pass_metrics(tracer.take_spans()))
        else:
            plain.append(one_pass())
    return {"plain": plain, "traced": traced, "layer_runs": layer_runs,
            "scales": scales, "setups": setups, "attempted": attempted,
            "failed": failed, "problems": problems,
            "fcs_max_rel_err": max(fcs_errors) if fcs_errors else 0.0}


def end_to_end_metrics(wl, times, passes):
    """The declared metrics. ``times`` and the set-up times are nominal
    seconds: wall seconds scaled by the host speed sampled during them."""
    done = wl.items * len(times) * (1.0 - passes["failed"] / passes["attempted"])
    return {
        "setup_s": statistics.median(t * k for t, k in passes["setups"]),
        "pass_s": statistics.median(times),
        "items_per_s": done / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(passes):
    runs = passes["layer_runs"]
    values = {}
    for name, unit in declared_metrics():
        if name == "fcs.cumulants.max_rel_err":
            values[name] = passes["fcs_max_rel_err"]
        elif name == "trace.overhead_frac":
            values[name] = (statistics.median(passes["traced"])
                            / statistics.median(passes["plain"]) - 1.0)
        elif unit == "count":
            counts = {run[name] for run in runs}
            if len(counts) != 1:
                raise RuntimeError(f"{name} differs between traced passes: {counts}")
            values[name] = counts.pop()
        else:
            values[name] = statistics.median(run[name] for run in runs)
    return values


def main(argv=None):
    args = parse_args(argv)
    warn_thread_env()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import qthermo from this checkout: {exc}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # a traced run does not report setup_s
    setup = None if args.trace else (
        lambda: time_setup(args.workload, args.seed, workdir))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes = run_passes(wl, args.seconds, args.trace, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = passes["plain"]
    if args.trace:
        units = dict(declared_metrics())
        values = per_layer_metrics(passes)
    else:
        times = [t * k for t, k in zip(times, passes["scales"])]  # nominal
        units = END_TO_END_UNITS
        values = end_to_end_metrics(wl, times, passes)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed_frac = passes["failed"] / passes["attempted"]
    tail_s, tail_pct = tail(times)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items_per_pass": wl.items, "machine": machine_block(),
        "pass_wall_s": passes["plain"], "host_scales": passes["scales"],
        "traced_pass_wall_s": passes["traced"], "failed_frac": failed_frac,
        "pass_s.tail": tail_s, "pass_s.tail_percentile": tail_pct,
        "problems": passes["problems"][:50],
        "metrics": metrics,
    }
    if not args.trace:
        result["setup_wall_s"] = [t for t, _ in passes["setups"]]
        result["setup_host_scales"] = [k for _, k in passes["setups"]]
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for problem in passes["problems"][:10]:
        print(f"check failed: {problem}")
    print(f"{args.workload}: {len(times)} timed passes of {wl.items} items, "
          f"{passes['failed']} of {passes['attempted']} items failed")
    if tail_s is None:
        print(f"  pass_s.tail: n/a (needs >= {TAIL_MARGIN + 1} passes, "
              f"{len(times)} ran)")
    else:
        print(f"  pass_s.tail: {tail_s:.6g} s (p{tail_pct:.0f} of {len(times)} passes)")
    print(f"  failed_frac: {failed_frac:.6g} 1")
    print(f"  median pass wall time: {statistics.median(passes['plain']):.6g} s")
    if not args.trace:
        print(f"  median host-speed scale: {statistics.median(passes['scales']):.6g}")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"result file: {result_path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": passes["failed"] == 0,
                      "attempted": passes["attempted"],
                      "failed": passes["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
