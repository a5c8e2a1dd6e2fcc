"""pqsys benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The run sets up its seeded inputs several times (the
median is `setup_s`), then runs the workload's task cycle as a closed loop
from one client until `--seconds` have passed, finishing the cycle it is
in.  With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
runs half the time untraced and half traced, and prints the per-layer
metrics of the traced half.  Every metric is printed by name with its unit,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (environment, tail percentile, failing checks, shares) goes
to `.perfbench_out/` in the checkout, and with `--trace 1` also the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

MODULES = ("opcore", "sysmodel", "param", "transfer", "realize", "qfunc", "_json", "cli")
# metric-name prefix of each module (names must start with a letter or digit)
LAYERS = ("opcore", "sysmodel", "param", "transfer", "realize", "qfunc", "json", "cli")
LAYER_FUNCTIONS = (
    "opcore.operator_norm", "opcore.defect_data",
    "sysmodel.classify", "sysmodel.is_minimal", "sysmodel.minimal_pqs_reduction",
    "sysmodel.controllable_subspace",
    "param.parametrize", "param.assemble",
    "transfer.theta_eval", "transfer.theta_from_data", "transfer.char_func",
    "transfer.inner_test", "transfer.sqs_membership",
    "realize.realize_from_data", "realize.jacobi_realize", "realize.unitary_similarity",
    "realize.biinner_dilation", "realize.inner_canonical_form", "realize.spectral_measure",
    "qfunc.q_eval", "qfunc.q_theta_roundtrip",
    "json.dump", "json.load", "json.system_to_json", "json.system_from_json",
    "json.measure_from_json",
    "cli.realize", "cli.classify", "cli.eval", "cli.jacobi",
)
EXACT_COUNTS = (("json.bytes_written", "B/task"), ("json.bytes_read", "B/task"))
DIMS = ("sysmodel.controllable_subspace.dim", "realize.realize_from_data.state_dim",
        "realize.jacobi_realize.length")


# One BLAS thread, though one per core would be allowed: with two, runs on a
# shared two-core machine switched between two speed levels, while one
# thread gave steady figures (grid_eval and structure were no slower,
# measure_pipeline about a third slower).
BLAS_THREADS = 1


def load_library():
    """Import numpy (after pinning its thread pool) and pqsys from this
    checkout's src/.  Returns (numpy, modules, cli, seconds taken)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pqsys", "__init__.py")):
        raise SystemExit(f"no pqsys sources under {src}")
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, src)
    start = time.perf_counter()
    numpy = importlib.import_module("numpy")
    modules = {m: importlib.import_module(f"pqsys.{m}") for m in MODULES}
    took = time.perf_counter() - start
    if not modules["cli"].__file__.startswith(os.path.join(src, "")):
        raise SystemExit(f"pqsys was imported from {modules['cli'].__file__}, not {src}")
    cli = modules.pop("cli")
    return numpy, modules, cli, took


def environment(numpy, seed: int) -> dict:
    cfg = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_threads": _blas_threads_in_use(numpy),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _blas_threads_in_use(numpy):
    """Ask the bundled OpenBLAS for its pool size; fall back to the
    requested count when the library cannot be queried."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "pqsys")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def tail(latencies_ms):
    """(latency, percentile): the latency with exactly TAIL_BEYOND tasks
    beyond it, i.e. the highest percentile that has that many beyond it.
    Below 2 * TAIL_BEYOND tasks that percentile would fall under the median,
    so the maximum (percentile 100) is reported instead."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def timed_loop(workload, lib, ops, cycle, seconds, tracer=None):
    """Closed loop, one client: whole cycles until `seconds` have passed.
    Returns per-task latencies and per-cycle durations (s)."""
    latencies, cycles = [], []
    start = time.perf_counter()
    with lib.installed():
        while time.perf_counter() - start < seconds or not cycles:
            c = time.perf_counter()
            for inp in cycle:
                if tracer is not None:
                    tracer.task = len(latencies)
                t = time.perf_counter()
                workload.run(lib, ops, inp)
                latencies.append(time.perf_counter() - t)
            cycles.append(time.perf_counter() - c)
    return latencies, cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke check")
    args = parser.parse_args(argv)

    numpy, modules, cli, import_s = load_library()
    import tracer as tracing  # after load_library: workloads imports numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    plain = workloads.Lib(modules, cli)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # set-up: seeded inputs, input files, and a tiny warm-up pass
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cycle = workload.prepare(plain, numpy.random.default_rng(args.seed), args.size, workdir)
            warm_dir = os.path.join(workdir, "warm")
            os.makedirs(warm_dir, exist_ok=True)
            for inp in workload.prepare(plain, numpy.random.default_rng(args.seed), "tiny", warm_dir):
                workload.run(plain, workloads.Ops(), inp)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        ops = workloads.Ops()
        record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(numpy, args.seed),
                  "import_s": import_s, "setup_repeats_s": setups, "cycle_tasks": len(cycle)}
        if args.trace:
            tracer = tracing.Tracer()
            traced = workloads.Lib(tracer.modules(modules), cli, tracer)
            metrics = traced_run(workload, plain, traced, workloads.Ops(), ops, cycle,
                                 args.seconds, record)
        else:
            metrics = untraced_run(workload, plain, ops, cycle, args.seconds, setup_s, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = ops.unexpected()
    record.update({
        "attempted": ops.attempted, "failed": ops.failed,
        "failures": dict(ops.failures), "unexpected_failures": unexpected,
        "failed_by_module": dict(ops.failed_by_module),
        "checks_run": dict(ops.check_runs), "worst_residuals": ops.worst,
        "metrics": metrics,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("environment: " + json.dumps(record["environment"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for key, count in sorted(ops.failures.items()):
        known = "known defect" if key not in unexpected else "UNEXPECTED"
        print(f"failed {key}: {count} ({known})")
    print(json.dumps({"correct": not unexpected, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def untraced_run(workload, lib, ops, cycle, seconds, setup_s, record) -> dict:
    lat, cycles = timed_loop(workload, lib, ops, cycle, seconds)
    lat_ms = [1e3 * x for x in lat]
    tail_ms, pct = tail(lat_ms)
    # upper median: with two task kinds in equal numbers the plain median
    # would average across the gap between them
    p50_ms = statistics.median_high(lat_ms)
    # throughput of the median cycle: one slow stretch of a shared machine
    # moves it less than the total over the run
    tasks_per_s = len(cycle) / statistics.median(cycles)
    record.update({"tasks": len(lat), "timed_s": sum(cycles), "cycles_s": cycles,
                   "latencies_ms": lat_ms, "tail_percentile": pct})
    print(f"tasks={len(lat)} cycles={len(cycles)} timed_s={sum(cycles):.3f} "
          f"tail=p{pct:.1f} of {len(lat)} tasks")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
        "task_p50_ms": {"value": p50_ms, "unit": "ms"},
        "task_tail_ms": {"value": tail_ms, "unit": "ms"},
        "ok_frac": {"value": 1.0 - ops.failed / ops.attempted, "unit": "frac"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def traced_run(workload, plain, traced, base_ops, ops, cycle, seconds, record) -> dict:
    """First half untraced (ledger `base_ops`, not reported), second half
    traced; per-layer metrics come from the traced half, the tracing
    overhead from comparing the two."""
    base_lat, _ = timed_loop(workload, plain, base_ops, cycle, seconds / 2)
    tracer = traced.tracer
    lat, cycles = timed_loop(workload, traced, ops, cycle, seconds / 2, tracer)
    tasks = len(lat)
    stats = tracer.stats(tasks)
    overhead = statistics.mean(lat) / statistics.mean(base_lat) - 1.0

    metrics = {}
    for fn in LAYER_FUNCTIONS:
        st = stats.get(fn, {"calls": 0.0, "busy_s": 0.0, "p50_ms": 0.0})
        metrics[f"{fn}.calls"] = {"value": st["calls"], "unit": "count/task"}
        metrics[f"{fn}.busy_s"] = {"value": st["busy_s"], "unit": "s/task"}
        metrics[f"{fn}.p50_ms"] = {"value": st["p50_ms"], "unit": "ms"}
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = {"value": ops.failed_by_module[layer] / tasks,
                                       "unit": "count/task"}
    for name, unit in EXACT_COUNTS:
        metrics[name] = {"value": tracer.counts[name] / tasks, "unit": unit}
    for name in DIMS:
        vals = tracer.dims[name]
        metrics[name] = {"value": statistics.mean(vals) if vals else 0.0, "unit": "count"}
    # per-point functions count their points in `.calls`; inner_test samples
    # a whole circle grid per call
    metrics["transfer.inner_test.points"] = {
        "value": tracer.counts["transfer.inner_test.points"] / tasks, "unit": "count/task"}
    metrics["trace.spans_per_task"] = {"value": len(tracer.spans) / tasks, "unit": "count/task"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}

    task_s = sum(lat)
    record.update({
        "tasks": tasks, "timed_s": sum(cycles), "untraced_tasks": len(base_lat),
        "untraced_task_mean_ms": 1e3 * statistics.mean(base_lat),
        "traced_task_mean_ms": 1e3 * statistics.mean(lat),
        "self_time_share": {k: v / task_s for k, v in sorted(tracer.self_times().items())},
        "layer_stats": stats,
    })
    with open(os.path.join(OUT_DIR, f"spans-{record['workload']}-seed{record['environment']['seed']}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
    print(f"traced tasks={tasks} untraced tasks={len(base_lat)} overhead={overhead:+.4f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
