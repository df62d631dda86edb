#!/usr/bin/env python3
"""Record benchmark runs and check their spread against BENCHMARK.json.

Run from the repository root:

  python3 bench/perf/record.py --seeds 1-10 --out bench/perf/recorded/set-a
  python3 bench/perf/record.py --compare bench/perf/recorded/set-a bench/perf/recorded/set-b

The first form runs the manifest's command once per workload and seed
with --trace 0, plus one --trace 1 run per workload on the first seed. It
writes every result line to OUT/runs.jsonl and the per-metric medians,
quartiles and spreads to OUT/summary.json and OUT/summary.md. A spread is
(Q3 - Q1) / median over the seeds, with the quartiles of
statistics.quantiles(values, n=4); it should stay below a third of the
metric's bound.

The second form checks that no end-to-end median of the second set is
worse than the first's by more than the bound. It also checks that every
quality value in QUALITY is the same in both sets for each workload, seed
and trace flag they share: these values are deterministic per seed, so
any change is a change of the code's results, not noise, and only the
transfer and link-peak ones have a bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Deterministic quality values, end-to-end and per-layer.
QUALITY = [
    "transfer_gb_hops", "link_peak_mean_mbps",
    "placement.rounded_cost", "placement.certified_gap", "placement.max_violation",
    "serve.local_fraction", "serve.link_p99_mbps", "serve.rejection_rate",
    "serve.daemon.moved_gb",
]


def load_manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(manifest, workload, seed, trace):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": result}


def summarize(manifest, runs):
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    summary = {}
    for w in manifest["workloads"]:
        name = w["name"]
        rows = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        summary[name] = {"runs": len(rows),
                         "mean_elapsed_s": statistics.mean(r["elapsed_s"] for r in rows),
                         "metrics": {}}
        for metric, spec in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": spec["bound"],
                "within_third": spread < spec["bound"] / 3,
                "values": values,
            }
    return summary


def markdown(summary):
    out = ["| workload | metric | median | Q1 | Q3 | spread | bound | spread < bound/3 |",
           "|---|---|---|---|---|---|---|---|"]
    for name, s in summary.items():
        for metric, m in s["metrics"].items():
            out.append(f"| {name} | {metric} | {m['median']:.6g} | {m['q1']:.6g} | "
                       f"{m['q3']:.6g} | {m['spread']:.4f} | {m['bound']} | "
                       f"{'yes' if m['within_third'] else 'NO'} |")
    return "\n".join(out) + "\n"


def record(args):
    manifest = load_manifest()
    seeds = parse_seeds(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    runs = []
    with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
        for w in manifest["workloads"]:
            for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
                r = run_once(manifest, w["name"], seed, trace)
                print(f"{w['name']} seed={seed} trace={trace} {r['elapsed_s']:.1f}s",
                      file=sys.stderr)
                f.write(json.dumps(r) + "\n")
                f.flush()
                runs.append(r)
    summary = summarize(manifest, runs)
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    table = markdown(summary)
    with open(os.path.join(args.out, "summary.md"), "w") as f:
        f.write(table)
    print(table)
    if not all(m["within_third"] for s in summary.values() for m in s["metrics"].values()):
        sys.exit("some spread is not below a third of its bound")


def compare(args):
    manifest = load_manifest()
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    sets = []
    for d in args.compare:
        with open(os.path.join(d, "summary.json")) as f:
            sets.append(json.load(f))
    first, second = sets
    worse = []
    for name, s in first.items():
        for metric, m in s["metrics"].items():
            a, b = m["median"], second[name]["metrics"][metric]["median"]
            change = (b - a) / a if better[metric] == "lower" else (a - b) / a
            flag = "WORSE" if change > m["bound"] else "ok"
            print(f"{name:14} {metric:18} {a:12.6g} -> {b:12.6g} worse by {change:+.4f} "
                  f"(bound {m['bound']}) {flag}")
            if flag != "ok":
                worse.append((name, metric))
    changed = quality_changes(*args.compare)
    for line in changed:
        print(line)
    if worse or changed:
        sys.exit(f"{len(worse)} medians worse than their bound, "
                 f"{len(changed)} quality values changed")


def quality_changes(first_dir, second_dir):
    """Every QUALITY value that differs between two recorded sets."""
    def values(d):
        out = {}
        with open(os.path.join(d, "runs.jsonl")) as f:
            for line in f:
                r = json.loads(line)
                for metric, m in r["result"]["metrics"].items():
                    if metric in QUALITY:
                        out[(r["workload"], r["seed"], r["trace"], metric)] = m["value"]
        return out
    a, b = values(first_dir), values(second_dir)
    return [f"{w} seed={s} trace={t} {metric}: {a[k]!r} -> {b[k]!r} CHANGED"
            for k in sorted(a.keys() & b.keys())
            for (w, s, t, metric) in [k] if a[k] != b[k]]


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--out", help="directory for runs.jsonl and the summaries")
    p.add_argument("--compare", nargs=2, metavar="DIR", help="compare two recorded sets")
    args = p.parse_args()
    if args.compare:
        compare(args)
    elif args.out:
        record(args)
    else:
        p.error("give --out DIR or --compare DIR DIR")


if __name__ == "__main__":
    main()
