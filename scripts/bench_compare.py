#!/usr/bin/env python3
"""Diff two google-benchmark JSON reports (BENCH_*.json artifacts).

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]

Matches benchmarks by name and prints a table of real/cpu time deltas plus
any user counters that moved; benchmarks present on only one side are
listed as added/removed (never crashed on, never silently skipped). Exit
code is 0 unless an input is unreadable or malformed (not valid
google-benchmark JSON) or --strict promoted --fail-above regressions to a
failure — by default the comparison is informational (CI runners are shared
hardware; treating timing noise as failure would just train people to
ignore red), the point is that every PR's bench trajectory is one click
away from the committed baseline.

--pair PREFIX_A PREFIX_B (repeatable) additionally prints current-report
real-time ratios between two benchmark families (the Release CI job uses it
for the partition-union-vs-flat delta of bench_pushdown, among others).
"""

from __future__ import annotations

import argparse
import json
import sys


def load_report(path: str) -> dict[str, dict]:
    """name -> benchmark entry of a google-benchmark JSON report.

    Malformed input (unreadable file, invalid JSON, or JSON that is not a
    google-benchmark report shape) exits nonzero with a one-line message
    instead of a traceback: CI must fail loudly when an artifact is broken,
    not diff garbage.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench_compare: cannot read {path}: {error}")
    if not isinstance(payload, dict) or not isinstance(
        payload.get("benchmarks"), list
    ):
        raise SystemExit(
            f"bench_compare: {path} is not a google-benchmark JSON report "
            "(no 'benchmarks' list)"
        )
    entries = {}
    duplicates = set()
    for bench in payload.get("benchmarks", []):
        if not isinstance(bench, dict) or "name" not in bench:
            raise SystemExit(
                f"bench_compare: {path} has a benchmark entry without a name"
            )
        # Aggregate rows (mean/median/stddev) would double-count; keep the
        # plain iterations rows, which is all the smoke reports emit.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if bench["name"] in entries:
            duplicates.add(bench["name"])
        entries[bench["name"]] = bench
    if duplicates:
        # A --benchmark_repetitions report has several iteration rows per
        # name; comparing an arbitrary one is ambiguous, so say which rows
        # this diff is built from instead of pretending it is exact.
        print(
            f"bench_compare: warning: {path} repeats "
            f"{', '.join(sorted(duplicates))}; using the last row of each "
            "(rerun without --benchmark_repetitions for exact diffs)",
            file=sys.stderr,
        )
    return entries


def fmt_time(entry: dict, key: str) -> str:
    return f"{entry.get(key, 0.0):.3f}{entry.get('time_unit', 'ns')}"


def fmt_delta(base: float, cur: float) -> str:
    if base <= 0:
        return "n/a"
    return f"{(cur - base) / base * 100.0:+.1f}%"


# Keys google-benchmark emits for every entry; anything else numeric in an
# entry is a user counter (the JSON writer inlines counters at top level,
# there is no "counters" sub-object).
_BUILTIN_KEYS = frozenset({
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "real_time", "cpu_time",
})


def user_counters(entry: dict) -> dict[str, float]:
    return {
        key: value
        for key, value in entry.items()
        if key not in _BUILTIN_KEYS
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def counter_moves(base: dict, cur: dict) -> list[str]:
    moves = []
    base_counters = user_counters(base)
    cur_counters = user_counters(cur)
    for name in sorted(set(base_counters) | set(cur_counters)):
        a = base_counters.get(name)
        b = cur_counters.get(name)
        if a != b:
            moves.append(f"{name}: {a} -> {b}")
    return moves


def print_pair_deltas(cur: dict[str, dict], prefix_a: str, prefix_b: str) -> None:
    """In-report comparison of two benchmark families of the CURRENT run.

    Matches entries whose names differ only in the leading prefix (e.g.
    BM_PartitionUnion/parts_8 vs BM_PartitionFlat/parts_8) and prints the
    real-time ratio — this is how CI surfaces the partition-union-vs-flat
    delta without a second artifact.
    """
    printed = 0
    for name in sorted(cur):
        if not name.startswith(prefix_a):
            continue
        partner = prefix_b + name[len(prefix_a):]
        if partner not in cur:
            continue
        a, b = cur[name], cur[partner]
        a_time = a.get("real_time", 0.0)
        b_time = b.get("real_time", 0.0)
        ratio = f"{a_time / b_time:.3f}x" if b_time > 0 else "n/a"
        counters = "; ".join(
            f"{k}={a_val:g} vs {b_val:g}"
            for (k, a_val), b_val in (
                ((k, v), user_counters(b).get(k))
                for k, v in sorted(user_counters(a).items())
            )
            if b_val is not None
        )
        print(
            f"pair {name} vs {partner}: "
            f"{a_time:.3f}{a.get('time_unit', 'ns')} vs "
            f"{b_time:.3f}{b.get('time_unit', 'ns')} ({ratio})"
            + (f"  [{counters}]" if counters else "")
        )
        printed += 1
    if printed == 0:
        print(f"pair {prefix_a} vs {prefix_b}: no matching benchmarks")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="highlight real-time deltas beyond this percentage (default 10)",
    )
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="PCT",
        help="emit a GitHub ::warning annotation for every benchmark whose "
        "real time regressed more than PCT%% over the baseline; exit code "
        "stays 0 (shared CI hardware makes timing a signal, not a gate)",
    )
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("PREFIX_A", "PREFIX_B"),
        help="also print current-report real-time ratios between two "
        "benchmark name prefixes (e.g. BM_PartitionUnion BM_PartitionFlat); "
        "repeatable",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when --fail-above annotated any regression "
        "(turns the annotations into a gate; no effect without "
        "--fail-above)",
    )
    args = parser.parse_args()

    base = load_report(args.baseline)
    cur = load_report(args.current)

    names = sorted(set(base) | set(cur))
    width = max((len(n) for n in names), default=9)
    print(f"--- bench compare: {args.baseline} vs {args.current} ---")
    print(f"{'benchmark':<{width}}  {'base real':>12}  {'cur real':>12}  "
          f"{'delta':>8}  note")
    flagged = 0
    for name in names:
        if name not in cur:
            print(f"{name:<{width}}  {fmt_time(base[name], 'real_time'):>12}  "
                  f"{'-':>12}  {'-':>8}  REMOVED")
            continue
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  "
                  f"{fmt_time(cur[name], 'real_time'):>12}  {'-':>8}  ADDED")
            continue
        b, c = base[name], cur[name]
        delta = fmt_delta(b.get("real_time", 0.0), c.get("real_time", 0.0))
        notes = []
        if (
            b.get("real_time", 0.0) > 0
            and abs(c.get("real_time", 0.0) - b.get("real_time", 0.0))
            / b.get("real_time", 1.0)
            * 100.0
            > args.threshold
        ):
            notes.append(f">|{args.threshold:g}%|")
            flagged += 1
        notes.extend(counter_moves(b, c))
        print(f"{name:<{width}}  {fmt_time(b, 'real_time'):>12}  "
              f"{fmt_time(c, 'real_time'):>12}  {delta:>8}  "
              f"{'; '.join(notes)}")
    print(f"--- {len(names)} benchmarks, {flagged} beyond "
          f"{args.threshold:g}% real-time delta ---")
    regressed = 0
    if args.fail_above is not None:
        for name in names:
            if name not in base or name not in cur:
                continue
            base_time = base[name].get("real_time", 0.0)
            cur_time = cur[name].get("real_time", 0.0)
            if base_time <= 0:
                continue
            slowdown = (cur_time - base_time) / base_time * 100.0
            if slowdown > args.fail_above:
                # GitHub Actions annotation: surfaced on the PR without
                # failing the job (exit stays 0 by design, see --help).
                print(
                    f"::warning title=bench regression::{name} real time "
                    f"{slowdown:+.1f}% over baseline "
                    f"({fmt_time(base[name], 'real_time')} -> "
                    f"{fmt_time(cur[name], 'real_time')})"
                )
                regressed += 1
        print(
            f"--- fail-above {args.fail_above:g}%: {regressed} "
            "regression(s) annotated ---"
        )
    for pair in args.pair or []:
        print_pair_deltas(cur, pair[0], pair[1])
    if args.strict and regressed > 0:
        print(
            f"bench_compare: --strict: {regressed} regression(s) beyond "
            f"{args.fail_above:g}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
