#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it, and checks that the metrics
it printed are exactly the ones BENCHMARK.json names (end_to_end for
--trace 0, per_layer for --trace 1), with the same units.  The last line
of standard output is the result object.  Exits 1 when any check fails and
2 when there is no source tree to build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no source tree to build next to perfbench/", file=sys.stderr)
        sys.exit(2)
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        sys.exit(2)

    # No shared build cache: the build writes only under ROOT/_build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/main.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if not lines:
        print("perfbench: no output (exit %d)" % run.returncode, file=sys.stderr)
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    want = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        print("perfbench: metric %s named in BENCHMARK.json was not printed" % name, file=sys.stderr)
    for name in sorted(set(got) - set(want)):
        print("perfbench: printed metric %s is not in BENCHMARK.json" % name, file=sys.stderr)
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            print("perfbench: metric %s has unit %s, BENCHMARK.json says %s"
                  % (name, got[name], want[name]), file=sys.stderr)
    names_ok = got == want
    result["correct"] = bool(result["correct"]) and names_ok and run.returncode == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
