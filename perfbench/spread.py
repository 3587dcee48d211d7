#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (inter-quartile distance over the median,
quartiles as `statistics.quantiles(values, n=4)` gives them) against the
bound `BENCHMARK.json` sets for it.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]
                                [--seconds S] [--bin PATH] [--out FILE]

Run from the repository root. Without `--bin` each run uses the command
`BENCHMARK.json` names; `--bin` runs an already built `perfbench`
executable instead. `--out` appends every run's result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--bin")
    ap.add_argument("--out")
    args = ap.parse_args()
    command = [args.bin] if args.bin else bench["command"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for wl in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        calib = []
        for seed in seeds(args.seeds):
            run = subprocess.run(
                command + ["--workload", wl, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["perfbench"]
            calib.append(detail["host.calib_ms"])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "result": result,
                                        "detail": detail}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: incorrect: {detail.get('failures')}")
                ok = False
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"== {wl}: {len(calib)} runs, host.calib_ms median "
              f"{statistics.median(calib):.2f} (spread "
              f"{spread(calib):.3f})")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals)
            flag = "" if m["name"] == "setup_s" or s <= m["bound"] / 3 else "  <-- over bound/3"
            if m["name"] != "setup_s" and s > m["bound"]:
                flag, ok = "  <-- OVER BOUND", False
            print(f"  {m['name']:<16} median {statistics.median(vals):>14.6g} {m['unit']:<5} "
                  f"spread {s:.4f} bound {m['bound']}{flag}")
    return 0 if ok else 1


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


if __name__ == "__main__":
    sys.exit(main())
