#!/usr/bin/env python3
"""Capture a baseline of the repository benchmark.

Runs every workload of BENCHMARK.json once per seed with --trace 0 and once
with --trace 1. Prints each end-to-end metric's median, quartiles and
spread, where spread is the interquartile range as a share of the median. Writes
everything, with the host record, to a JSON file. Run from the repository
root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
    res = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 or not res.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return host, {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seeds": [lo, hi], "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in (x["name"] for x in bench["workloads"]):
        values = {}
        for seed in range(lo, hi + 1):
            host, m = run(w, seed, bench["run_seconds"], 0)
            out["host"] = {k: v for k, v in host.items() if k not in ("seed", "workload")}
            for k, v in m.items():
                values.setdefault(k, []).append(v)
        summary = {}
        for k, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
            flag = "ok" if k == "setup_s" or spread < bounds[k] / 3 else "WIDE"
            ok = ok and flag == "ok"
            print(f"{w:13s} {k:12s} median {med:<12.6g} spread {spread:.4f} (bound/3 {bounds[k] / 3:.4f}) {flag}", flush=True)
        _, layer = run(w, lo, bench["run_seconds"], 1)
        out["workloads"][w] = {"end_to_end": summary, "per_layer_seed%d" % lo: layer}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("wrote", args.out, "- every spread below a third of its bound" if ok else "- some spreads are WIDE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
