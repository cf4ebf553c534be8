#!/usr/bin/env python3
"""Self-test of the cosybench driver at tiny sizes (seconds, after the build).

    python3 cosybench/selftest.py

Run from the repository root. For all four workloads it checks that:
  * every metric BENCHMARK.json names is printed with its unit (end-to-end
    with --trace 0, per-layer with --trace 1);
  * no op fails (fail_rate 0) and the result says correct;
  * the single-client counts repeat exactly across two runs of one seed:
    statements per op, the exec_stats deltas and shard-cache hits per epoch;
  * the held-out seed changes the input digest;
  * each sql_adhoc kernel counter is live: fused_plan_evals,
    grouped_vector_evals, expr_vm_batches and hash_join_builds.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper next to this file)

WORKLOADS = ["report_cold", "batch_pushdown", "monitor_stream", "sql_adhoc"]
MAP = json.load(open(os.path.join(run.HERE, "map.json")))
SEED = MAP["seeds"]["tuning"]
HELD_OUT = MAP["seeds"]["held_out"]
OPS = 6
OUT = os.path.join(run.ROOT, ".bench_out")
# Counts that depend on thread scheduling under batch_pushdown's two
# workers, so they are not part of the single-client determinism contract:
# the plan-cache hit/miss split and pool waits.
SCHEDULING_DEPENDENT = {"cosy.plan_cache_hits", "cosy.plan_cache_misses",
                        "db.pool_waits"}
KERNEL_COUNTERS = ["db.fused_plan_evals", "db.grouped_vector_evals",
                   "db.expr_vm_batches", "db.hash_join_builds"]

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL:", message)


def invoke(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", "--ops", str(OPS)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0,
          f"{workload} seed {seed} trace {trace}: exit {proc.returncode}: "
          f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details_path = os.path.join(
        OUT, f"{workload}-seed{seed}-trace{trace}.json")
    details = json.load(open(details_path))
    return result, details


def check_metrics(workload, result, expected):
    metrics = result["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        check(got is not None, f"{workload}: metric {spec['name']} missing")
        if got is not None:
            check(got["unit"] == spec["unit"],
                  f"{workload}: {spec['name']} unit {got['unit']} "
                  f"!= {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    check(not extra, f"{workload}: unlisted metrics {sorted(extra)}")


def deterministic_counts(details):
    return [{k: v for k, v in op["counts"].items()
             if k not in SCHEDULING_DEPENDENT} for op in details["ops"]]


def main():
    bench = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    binary = run.build()
    for workload in WORKLOADS:
        plain, _ = invoke(binary, workload, SEED, 0)
        check_metrics(workload, plain, bench["end_to_end"])
        traced_a, details_a = invoke(binary, workload, SEED, 1)
        traced_b, details_b = invoke(binary, workload, SEED, 1)
        check_metrics(workload, traced_a, bench["per_layer"])
        for result in (plain, traced_a, traced_b):
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] == OPS,
                  f"{workload}: {result['failed']} of {result['attempted']} "
                  "ops failed or the probes disagreed")
        check(deterministic_counts(details_a) == deterministic_counts(details_b),
              f"{workload}: per-op counts differ between two runs of seed "
              f"{SEED}")
        _, held_out = invoke(binary, workload, HELD_OUT, 0)
        check(held_out["input_digest"] != details_a["input_digest"],
              f"{workload}: held-out seed {HELD_OUT} gives the same inputs")
        if workload == "sql_adhoc":
            for counter in KERNEL_COUNTERS:
                check(traced_a["metrics"][counter]["value"] > 0,
                      f"sql_adhoc: kernel counter {counter} is not live")
        print(f"{workload}: checked")
    print("selftest:", "PASS" if not failures else f"{len(failures)} FAILURES")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
