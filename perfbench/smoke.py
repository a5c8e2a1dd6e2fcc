"""Smoke check of the benchmark at tiny sizes; asserts no timings.

    python3 perfbench/smoke.py

For every workload, runs one untraced and one traced pass at the tiny
sizes and checks that

- the last output line is the result object with the four expected keys,
- exactly the metric names of BENCHMARK.json are emitted, with their units,
- every output check of the workload ran at least once,
- no check failed other than the documented known defects.

It also checks that the benchmark refuses to run, without printing a
result, from a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (imports numpy only; no library code runs)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")

    for name in names:
        ran = set()
        for trace in (0, 1):
            proc = run_bench(ROOT, name, trace)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{name} trace={trace}: attempted={result['attempted']} "
                                f"correct={result['correct']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metric names/units differ: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}")
            with open(os.path.join(OUT_DIR, f"{name}-seed7-trace{trace}.json"), encoding="utf-8") as fh:
                ran |= set(json.load(fh)["checks_run"])
        missing = sorted(set(workloads.WORKLOADS[name].checks) - ran)
        if missing:
            problems.append(f"{name}: checks never ran: {missing}")

    bare = os.path.join(OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, names[0], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark ran without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
