#!/usr/bin/env python3
"""Spread study: run the benchmark once per seed and compare, for every
end-to-end metric, the run-to-run spread of the calibrated value with
that of its raw twin from the same runs.

Spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.

Run from the repository root, for example:

    python3 calbench/spread.py --workloads serve-cold,chaos-grid --seeds 1-10
    python3 calbench/spread.py --seeds 1-10 --write calbench/spread_study.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    audit = next(json.loads(l[len("audit "):]) for l in lines if l.startswith("audit "))
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n{out.stdout}")
    return result, audit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default run_seconds")
    ap.add_argument("--write", default=None, help="merge the study into this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    study = {}
    for workload in workloads:
        cal = {m: [] for m in bounds}
        raw = {m: [] for m in bounds}
        refs = []
        for seed in seeds:
            result, audit = run_once(bench, workload, seed, seconds)
            refs.append(audit["ref_median_ns"])
            for m in bounds:
                cal[m].append(result["metrics"][m]["value"])
                raw[m].append(audit["raw"].get(m, result["metrics"][m]["value"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m}={cal[m][-1]:.6g}" for m in bounds), flush=True)
        rows = {}
        print(f"\n{workload}: {len(seeds)} runs, reference median "
              f"{statistics.median(refs):.0f} ns (spread {spread(refs):.3f})")
        print(f"  {'metric':<12} {'median':>12} {'spread':>8} {'raw':>8} "
              f"{'bound':>6}  verdict")
        for m, bound in bounds.items():
            s_cal, s_raw = spread(cal[m]), spread(raw[m])
            calibrated = m != "peak_rss_mb"
            verdict = []
            if m != "setup_s":
                verdict.append("within bound/3" if s_cal < bound / 3
                               else "within bound" if s_cal < bound else "OVER BOUND")
            if calibrated and s_cal >= s_raw:
                verdict.append("calibration does not reduce the spread")
            print(f"  {m:<12} {statistics.median(cal[m]):>12.6g} {s_cal:>8.4f} "
                  f"{s_raw if calibrated else float('nan'):>8.4f} {bound:>6}  "
                  + "; ".join(verdict))
            rows[m] = {
                "calibrated": cal[m],
                "raw": raw[m] if calibrated else None,
                "spread_calibrated": round(s_cal, 4),
                "spread_raw": round(s_raw, 4) if calibrated else None,
                "bound": bound,
            }
        study[workload] = {
            "reference": audit["reference"],
            "r_nominal_ns": audit["r_nominal_ns"],
            "seeds": seeds,
            "ref_median_ns": refs,
            "metrics": rows,
        }

    if args.write:
        doc = {}
        if os.path.exists(args.write):
            with open(args.write) as f:
                doc = json.load(f)
        doc["nproc"] = os.cpu_count()
        doc["run_seconds"] = seconds
        doc.setdefault("workloads", {}).update(study)
        with open(args.write, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
