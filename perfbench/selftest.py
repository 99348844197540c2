#!/usr/bin/env python3
"""Self-test of the release benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through run.py, with --trace 0 and
--trace 1, and checks that:
  - the last line has exactly the keys correct, attempted, failed, metrics;
  - every output check passed (correct, failed = 0);
  - every metric BENCHMARK.json names for the mode is there, with its unit;
  - two runs with one seed release byte-identical graphs with bit-identical
    final energies, and another seed releases a different graph.
Exits 1 on the first failure.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        fail("%s trace %d exited %d: %s" % (workload, trace, p.returncode,
                                            p.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            summary, result = run(w, 7, trace)
            if trace == 0:
                first = summary
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (w, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail("%s trace %d: %s" % (w, trace, summary["problems"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s trace %d: metrics differ from BENCHMARK.json: %s"
                     % (w, trace, sorted(set(want.items()) ^ set(got.items()))))
            print("ok  %-13s trace %d  %3d metrics, %d operations"
                  % (w, trace, len(got), result["attempted"]))
        again, _ = run(w, 7, 0)
        other, _ = run(w, 8, 0)
        pin = ("release_md5", "final_energy_bits")
        if any(again[k] != first[k] for k in pin):
            fail("%s: two runs with seed 7 released different results" % w)
        if other["release_md5"] == again["release_md5"]:
            fail("%s: seeds 7 and 8 released the same graph" % w)
        print("ok  %-13s same seed, same release %s" % (w, again["release_md5"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
