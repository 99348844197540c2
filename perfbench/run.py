#!/usr/bin/env python3
"""Run one workload of the wPINQ release benchmark.

    python3 perfbench/run.py --workload grqc-tbi --seed 1 --seconds 20 --trace 0

Builds perfbench/wbench.exe from the source tree this file sits in (dune,
build directory .bench_build, shared dune cache off), runs the workload in a
fresh process and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.  The line before it summarises the run (host and input metadata, the
released graph's MD5, the final energy's bits, notes); the full record, spans
included, is written under .bench_build/results/.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed); 2 when the tree holds no buildable source or
the build or run broke (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "wbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, env=None):
    """Runs [cmd] in its own process group and waits for it; on timeout the
    whole group (dune's compiler children included) is killed and reaped."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    return p.returncode, out, err


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s under %s: nothing to build" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/wbench.exe"]
    try:
        code, out, err = run_group(cmd, BUILD_TIMEOUT_S, env)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if code != 0 or not os.path.exists(EXE):
        die("build failed:\n" + out + err)


def source_id():
    """The git commit when there is one, else an MD5 over the sources."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return "git:" + p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "md5:" + h.hexdigest()


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    build()

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-tiny" if args.tiny else "")
    work = os.path.join(BUILD_DIR, "work", args.workload)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        code, out, err = run_group(cmd, RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("run failed: %s" % e)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        die("run failed (exit %d):\n%s" % (code, err[-4000:]))
    record = json.loads(lines[-1])

    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    with open(os.path.join(BUILD_DIR, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh)

    got = record["metrics"]
    metrics, problems = {}, list(record["problems"])
    for m in declared:
        v = got.get(m["name"])
        if v is None or v["value"] is None or not math.isfinite(v["value"]):
            problems.append("metric %s missing or not finite" % m["name"])
        elif v["unit"] != m["unit"]:
            problems.append("metric %s in %s, declared %s"
                            % (m["name"], v["unit"], m["unit"]))
        else:
            metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    extra = {k: v["value"] for k, v in got.items()
             if k not in metrics and v["value"] is not None}
    summary = {k: record[k] for k in ("workload", "seed", "trace", "tiny",
                                      "host", "input", "config",
                                      "release_md5", "final_energy_bits",
                                      "notes")}
    summary["other_metrics"] = extra
    summary["problems"] = problems
    print(json.dumps(summary))

    correct = not problems and record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, record["attempted"]),
                      "failed": record["failed"] if record["failed"] or correct
                      else 1,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
