#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarize one set as a baseline.

A result set is a JSONL file that `run.exe --append FILE` (or
`bash benchmark/bench.sh ... --append FILE`) extends by one record per
workload run: {"workload", "seed", "trace", "size", "nproc", "result"}.

  compare.py diff BASE.jsonl CHANGE.jsonl
      A paired comparison. The i-th run of a workload in
      BASE is paired with the i-th run of that workload in CHANGE; make the
      runs alternating, the base first in odd pairs and the change first in
      even ones. With at least 10 pairs, each (workload, metric) row gets a
      verdict from the bounds in BENCHMARK.json:
        improved    the change wins >= 9/10 of the pairs (ties count for
                    neither) and the medians differ by more than the base's
                    own spread (q3 - q1);
        regressed   the change's median is worse than the base's by more
                    than the bound, or more ops failed;
        unresolved  fewer than 10 pairs, or the base's spread is wider than
                    the bound and not every change run beats every base run;
        unchanged   otherwise.
      Traced runs (--trace 1) get a per-layer table with no verdict.

  compare.py baseline RUNS.jsonl [--seeds SEEDS.jsonl] --commit HASH
      Median and quartiles per (workload, metric) of RUNS, and with
      SEEDS (one run per seed) the cross-seed spread behind each bound.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def load_runs(path, trace):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == trace:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if metric in r["result"]["metrics"]]


def verdict(base, change, bound, lower_is_better):
    pairs = list(zip(base, change))
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    q1a, meda, q3a = quartiles(base)
    _, medb, _ = quartiles(change)
    gain = sign * (meda - medb)
    worse = -gain / meda if meda else 0.0
    every_change_better = all(sign * (a - b) > 0 for a in base for b in change)
    if len(pairs) < 10:
        v = "unresolved"
    elif win_fraction >= 0.9 and gain > q3a - q1a:
        v = "improved"
    elif worse > bound:
        v = "regressed"
    elif meda and (q3a - q1a) / meda > bound and not every_change_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, win_fraction, len(pairs)


def fmt_side(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def diff(args):
    e2e, layers = load_spec(args.spec)
    base, change = load_runs(args.base, 0), load_runs(args.change, 0)
    print(f"{'workload':16} {'metric':12} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>5} {'pairs':>5}  verdict")
    worst = "unchanged"
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, []), change.get(workload, [])
        if not a or not b:
            print(f"{workload:16} missing from one side")
            worst = "unresolved"
            continue
        for name, spec in e2e.items():
            va, vb = values_of(a, name), values_of(b, name)
            v, wins, n = verdict(va, vb, spec["bound"], spec["better"] == "lower")
            print(f"{workload:16} {name:12} {fmt_side(va):>34} {fmt_side(vb):>34} {wins:5.2f} {n:5d}  {v}")
            if v == "regressed" or (v == "unresolved" and worst != "regressed"):
                worst = v
        fa = sum(r["result"]["failed"] for r in a)
        fb = sum(r["result"]["failed"] for r in b)
        correct = all(r["result"]["correct"] for r in b)
        if fb > fa or not correct:
            worst = "regressed"
        print(f"{workload:16} {'failed ops':12} {fa:>34} {fb:>34} {'':5} {'':5}  "
              f"{'regressed' if fb > fa or not correct else 'unchanged'}")
    traced_a, traced_b = load_runs(args.base, 1), load_runs(args.change, 1)
    for workload in sorted(set(traced_a) & set(traced_b)):
        print(f"\n{workload}: per-layer medians of traced runs (base -> change)")
        for name in layers:
            va, vb = values_of(traced_a[workload], name), values_of(traced_b[workload], name)
            if va and vb:
                ma, mb = statistics.median(va), statistics.median(vb)
                if ma or mb:
                    ratio = f"x{mb / ma:.3f}" if ma else ""
                    print(f"  {name:32} {ma:14.6g} -> {mb:14.6g} {ratio}")
    print(f"\noverall: {worst}")
    return 1 if worst == "regressed" else 0


def baseline(args):
    e2e, _ = load_spec(args.spec)
    runs = load_runs(args.runs, 0)
    seeds = load_runs(args.seeds, 0) if args.seeds else {}
    out = {
        "commit": args.commit,
        "note": "end-to-end metrics per workload: median and quartiles of the runs; "
                "spread = (q3 - q1) / median; seed_spread is the same over one run per seed",
        "workloads": {},
    }
    for workload, rs in sorted(runs.items()):
        entry = {
            "seeds": sorted({r["seed"] for r in rs}),
            "runs": len(rs),
            "nproc": rs[0]["nproc"],
            "size": rs[0]["size"],
            "metrics": {},
        }
        for name, spec in e2e.items():
            vals = values_of(rs, name)
            q1, med, q3 = quartiles(vals)
            m = {
                "unit": spec["unit"],
                "bound": spec["bound"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": vals,
            }
            if workload in seeds:
                sv = values_of(seeds[workload], name)
                sq1, smed, sq3 = quartiles(sv)
                m["seed_runs"] = len(sv)
                m["seed_spread"] = (sq3 - sq1) / smed if smed else 0.0
            entry["metrics"][name] = m
        out["workloads"][workload] = entry
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--spec", default=BENCHMARK_JSON, help="BENCHMARK.json with the bounds")
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("change")
    b = sub.add_parser("baseline")
    b.add_argument("runs")
    b.add_argument("--seeds")
    b.add_argument("--commit", required=True)
    args = p.parse_args()
    return diff(args) if args.cmd == "diff" else baseline(args)


if __name__ == "__main__":
    sys.exit(main())
