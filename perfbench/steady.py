#!/usr/bin/env python3
"""Steadiness check for the benchmark of record.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a source checkout. For each workload it runs the
benchmark once per seed and prints, for every metric, the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. With
--trace 0 it fails (exit 1) when any end-to-end spread reaches its bound
in BENCHMARK.json, or when a result is not correct. It also prints the
spreads of the unscaled host-clock values kept in each record (host.*),
so the calibration's effect is seen on the same runs.

It also reruns the first seed and fails unless the sim fingerprint
(sim_events, sim_time_us and the delivery digest) repeats exactly: a
simulator-only change must leave it unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2])["record"], json.loads(out[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = []
    for workload in args.workloads.split(","):
        values, first_record = {}, None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            record, result = run(workload, seed, args.seconds, args.trace)
            first_record = first_record or record
            if not result["correct"] or result["failed"]:
                bad.append(f"{workload} seed {seed}: {result['failed']} failed checks")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in record.get("host", {}).items():
                values.setdefault("host." + name, []).append(float(v))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        again, _ = run(workload, args.first_seed, args.seconds, args.trace)
        if again["fingerprint"] != first_record["fingerprint"]:
            bad.append(f"{workload}: fingerprint {again['fingerprint']} != "
                       f"{first_record['fingerprint']} on seed {args.first_seed}")
        print(f"{workload}: fingerprint {first_record['fingerprint']} "
              f"{'repeats' if again['fingerprint'] == first_record['fingerprint'] else 'DRIFTS'}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {name:32s} median {med:.6g} spread {spread:.4f}{note}")
            if bound is not None and spread >= bound:
                bad.append(f"{workload} {name}: spread {spread:.4f} >= bound {bound}")
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
