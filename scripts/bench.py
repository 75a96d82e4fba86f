"""Alternating parent/change runs of the unchanged benchmark, summarised.

    python3 scripts/bench.py --base <rev> --change <rev> --out BENCH_<n>.json

Exports both revisions of this git repository into a work directory and
runs ``perfbench/run.py`` of each on every workload declared in
BENCHMARK.json for its ``run_seconds``: ten pairs of untraced runs at seeds
1-10, the side that runs first alternating from pair to pair, then three
alternating pairs of traced runs at seeds 1-3 for the per-layer metrics.
The output file holds, per workload and end-to-end metric, each side's runs,
median and quartiles, and the number of pairs the change won; per workload
and side, the failed and attempted operations summed over the untraced runs;
and per workload and side, the traced per-layer metrics of each run, their
medians and their minima.  It prints each metric's relative change of
medians, marked "unresolved" where the parent's own spread is wider than
the metric's bound and "worse" where the change is worse by more than it.
Run it on an otherwise idle machine: both
sides share it, one run at a time.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fixed so that every BENCH_<n>.json is comparable and backs a claim that the
# change is lower in at least nine of ten pairs.
SEEDS = tuple(range(1, 11))
# A traced run is three passes, so a few pairs cost seconds and keep one slow
# phase from flipping a layer's sign.
TRACED_SEEDS = (1, 2, 3)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The tree of rev, unpacked at dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seed, seconds, trace):
    """The last stdout record of one perfbench run in tree."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": record["correct"], "failed": record["failed"],
            "attempted": record["attempted"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()}}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(spec, runs, traced):
    """Per workload: end-to-end spreads and pair wins, and traced layers."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        rows = {}
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]] for r in runs[name]["base"]]
            change = [r["metrics"][m["name"]] for r in runs[name]["change"]]
            sign = 1 if m["better"] == "lower" else -1
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "base": spread(base), "change": spread(change),
                "change_won": sum(sign * (b - c) > 0 for b, c in zip(base, change)),
                "ties": sum(b == c for b, c in zip(base, change))}
        out[name] = {
            "why": w["why"], "end_to_end": rows,
            "correct": {side: all(r["correct"] for r in runs[name][side])
                        for side in ("base", "change")},
            "operations": {side: {key: sum(r[key] for r in runs[name][side])
                                  for key in ("failed", "attempted")}
                           for side in ("base", "change")},
            "per_layer": {side: layers(traced[name][side]) for side in ("base", "change")}}
    return out


def layers(runs):
    """The per-layer metrics of each traced run, their medians and their
    minima: with three runs, one slow phase of the machine can carry the
    median of a layer, but not its minimum."""
    metrics = [r["metrics"] for r in runs]
    names = sorted({m for run in metrics for m in run})
    values = {m: [run[m] for run in metrics if m in run] for m in names}
    return {"runs": metrics,
            "median": {m: statistics.median(v) for m, v in values.items()},
            "min": {m: min(v) for m, v in values.items()}}


def verdict(row):
    """The relative change of the medians, and a mark: "unresolved" when the
    parent's quartile distance, relative to its median, is wider than the
    metric's bound, so no change within the bound can be told from noise;
    else "worse" when the change's median is worse by more than the bound."""
    b, c = row["base"], row["change"]
    if b["median"]:
        rel = (c["median"] - b["median"]) / abs(b["median"])
        noise = (b["q3"] - b["q1"]) / abs(b["median"])
    else:
        rel, noise = (0.0 if c["median"] == 0 else math.inf), 0.0
    worse = rel if row["better"] == "lower" else -rel
    if noise > row["bound"]:
        return rel, "unresolved"
    return rel, "worse" if worse > row["bound"] else ""


def report(summary):
    for name, w in summary.items():
        ops = ", ".join(f"{side} {o['failed']}/{o['attempted']}"
                        for side, o in w["operations"].items())
        print(f"{name}: correct {w['correct']}, failed/attempted {ops}")
        for metric, row in w["end_to_end"].items():
            b, c = row["base"], row["change"]
            rel, mark = verdict(row)
            print(f"  {metric:<12} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  {rel:+.1%} (bound {row['bound']:.0%})"
                  f"  change won {row['change_won']}/{len(b['runs'])}"
                  + (f"  {mark}" if mark else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision measured as the parent")
    ap.add_argument("--change", default="HEAD", help="revision measured as the change")
    ap.add_argument("--out", required=True, help="summary file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sides = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    names = [w["name"] for w in spec["workloads"]]
    started = time.time()

    def alternate(seeds, trace):
        out = {n: {"base": [], "change": []} for n in names}
        for p, seed in enumerate(seeds):
            order = ("base", "change") if p % 2 == 0 else ("change", "base")
            for name in names:
                for side in order:
                    out[name][side].append(run_once(trees[side], name, seed, seconds, trace))
            print(f"{'traced ' if trace else ''}pair {p + 1}/{len(seeds)} done after"
                  f" {time.time() - started:.0f} s", file=sys.stderr)
        return out

    # the exported trees go whether the runs finish or fail
    work = tempfile.mkdtemp(prefix="khbn-bench-")
    try:
        trees = {side: os.path.join(work, side) for side in sides}
        for side, rev in sides.items():
            export(rev, trees[side])
        runs = alternate(SEEDS, 0)
        traced = alternate(TRACED_SEEDS, 1)
    finally:
        shutil.rmtree(work)

    summary = summarise(spec, runs, traced)
    result = {
        "base": sides["base"], "change": sides["change"], "seconds": seconds,
        "pairs": len(SEEDS), "seeds": list(SEEDS), "traced_seeds": list(TRACED_SEEDS),
        "first_side": "base on even pairs",
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "workloads": summary}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
