"""rrteig benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload sweep_a --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository: the library is
imported from the checkout's ``src/``.  One client runs ops in a closed
loop (the next op starts when the previous one returns) until
``--seconds`` have passed, at least one op.  Every op's output is checked.
BLAS pools are pinned to one thread.  A fixed calibration kernel runs
before the first op and after every op; the times reported end to end
are scaled by it to a reference host speed (see hostspeed.py).

``--trace 0`` prints the end-to-end metrics (op_s, setup_s, peak_rss_mb).
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics of the traced ones (see spans.py); the spans go to
``.bench_out/trace-<workload>-<seed>.jsonl``.  The last stdout line is the
result object; the line before it holds the sample counts, the
environment and any problems found.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# set before numpy loads BLAS: the plain single-threaded baseline
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import hostspeed  # noqa: E402  (after the BLAS pins: loads numpy)
import spans  # noqa: E402  (standard library only until a Tracer is built)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sweep_a", "sweep_bc", "solve_large")
SETUP_PROBES = 4  # fresh processes that repeat the set-up, beside this one
# the sweeps stop short of the presets' level 4 so that one op takes one to
# two seconds: a run then holds enough ops, each beside a calibration, to
# ride out the host's speed swings (see README.md)
SWEEP_A_LEVELS = 2  # case a up to 32^2
SWEEP_BC_LEVELS = 3  # case b up to 64x128, case c up to 40x40
# after each op the calibration kernel repeats until it has run for this
# share of the op's time (at least once), so that long ops, whose speed
# varies more within them, get as many speed samples as several short ones
CALIBRATION_SHARE = 0.1
MIN_TAIL_OPS = 11  # op_wall_s_tail needs ten samples beyond its percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def setup(name: str, seed: int, out_dir: str):
    """Import the library from the checkout and build the workload."""
    sys.path.insert(0, SRC)
    import rrteig

    if os.path.dirname(os.path.dirname(os.path.abspath(rrteig.__file__))) != SRC:
        raise RuntimeError(f"rrteig imported from {rrteig.__file__}, not {SRC}")
    import workloads

    if name == "sweep_a":
        return workloads.Sweep(("a",), out_dir, levels=SWEEP_A_LEVELS)
    if name == "sweep_bc":
        return workloads.Sweep(("b", "c"), out_dir, levels=SWEEP_BC_LEVELS)
    return workloads.SolveLarge(seed)


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_op(workload, tracer=None, op_id=0):
    """Time one op, then check its output; returns (seconds, problems)."""
    t = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op()
        else:
            with tracer.active(op_id):
                out = workload.op()
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - t, [f"op raised {exc!r}"]
    seconds = time.perf_counter() - t
    try:
        return seconds, workload.check(out)
    except Exception as exc:
        return seconds, [f"check raised {exc!r}"]


def measure(workload, seconds: float, calibrate, tracer=None) -> dict:
    """Closed loop with one client; with a tracer each op is followed by
    a traced op.  ``calibrate()`` runs before the first op and after each
    op (see CALIBRATION_SHARE), outside the op's time."""
    plain, traced, per_op, problems = [], [], [], []
    calibration = [calibrate()]
    start = time.perf_counter()
    while True:
        runs = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        for times, tr in runs:
            op_id = len(plain) + len(traced)
            dt, bad = run_op(workload, tr, op_id)
            times.append(dt)
            if tr is not None:
                per_op.append(tr.op_metrics(op_id))
            if bad:
                problems.append({"op": op_id, "problems": bad[:5]})
            calibration.append(calibrate())
            spent = calibration[-1]
            while spent < CALIBRATION_SHARE * dt:
                calibration.append(calibrate())
                spent += calibration[-1]
        if time.perf_counter() - start >= seconds:
            break
    return {"plain": plain, "traced": traced, "per_op": per_op,
            "problems": problems, "calibration": calibration}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rrteig", "__init__.py")):
        print(f"perfbench: no rrteig sources in {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = setup(args.workload, args.seed, run_dir)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    calibrate = hostspeed.Calibration()
    tracer = spans.Tracer() if args.trace else None
    try:
        res = measure(workload, args.seconds, calibrate, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain, traced, calib = res["plain"], res["traced"], res["calibration"]
    n = len(plain)
    attempted = n + len(traced)
    failed = len(res["problems"])
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_samples": n,
        "op_wall_s_samples": plain,
        "op_wall_s_median": statistics.median(plain),
        "setup_s_samples": setups,
        "calibration_s_samples": calib,
        "host_speed": hostspeed.scale(1.0, calib),  # 1: reference speed
        "fail_ratio": failed / attempted,
        "problems": res["problems"],
        "environment": environment(args.seed),
    }
    if n >= MIN_TAIL_OPS:  # highest percentile with ten samples beyond it
        info["op_wall_s_tail"] = {"percentile": 100.0 * (n - 10) / n,
                                  "value": sorted(plain)[n - 11],
                                  "samples": n}
    else:
        info["op_wall_s_tail"] = (f"not reported: {n} ops, a tail needs "
                                  f"{MIN_TAIL_OPS}")
    if tracer is None:
        metrics = {
            "op_s": (hostspeed.scale(statistics.mean(plain), calib), "s"),
            "setup_s": (hostspeed.scale(statistics.median(setups), calib),
                        "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB"),
        }
    else:
        units = dict(spans.layer_metric_names())
        layer = spans.median_metrics(res["per_op"])
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        info["traced_op_s_samples"] = traced
        info["attribution"] = spans.ATTRIBUTION
        info["trace_file"] = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.dump(info["trace_file"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
