#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs (run.py --tiny) for one
second, untraced and traced, with every correctness check the full runs make.
Each run must exit 0 and end with one JSON line holding exactly `correct`
(true), `attempted` (>= 1), `failed` (0) and `metrics`, whose names and units
are the end-to-end metrics (untraced) or the per-layer metrics (traced) of
BENCHMARK.json. Then copies BENCHMARK.json and perfbench/ alone into
.bench_work/bare/ and checks that the benchmark refuses to run there: no
source tree, non-zero exit, no result line. Takes about a minute once the
first build is done.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(spec["command"] + ["--workload", workload, "--seed", "7",
                                                     "--seconds", "1", "--trace", str(trace), "--tiny"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(lines[-1])
            expect = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: incorrect\n{proc.stderr[-1500:]}")
            if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
                problems.append(f"{where}: {result.get('failed')} of {result.get('attempted')} failed")
            if got != expect:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expect))}")
            print(f"{where}: {result['attempted']} operations, correct={result['correct']}", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without a source tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"without a source tree: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
