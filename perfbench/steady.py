#!/usr/bin/env python3
"""Steadiness check: runs the benchmark repeatedly and reports each
end-to-end metric's median and quartiles per workload against its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--out FILE]

Each run uses another seed. The spread of a metric is the distance between
the first and third quartiles of its values (statistics.quantiles, n=4) as a
share of their median. A metric is steady when its spread stays below a third
of its bound in BENCHMARK.json. Also reports, per workload, whether every
run failed the same share of its operations. Exits 1 when any run fails, is
incorrect, or a metric spreads past its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(command, workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write every run's result here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    record = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = one_run(spec["command"], workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            ok &= result["correct"]
        record[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'})")
        ok &= len(shares) == 1
        print(f"{'metric':22s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for name, spec_m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec_m["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"{name:22s} {spec_m['unit']:5s} {med:12.3f} {q1:12.3f} {q3:12.3f} "
                  f"{spread:7.3f} {bound:6.2f}  {verdict}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
