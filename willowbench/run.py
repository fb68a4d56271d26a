#!/usr/bin/env python3
"""Build and run the Willow benchmark.

One run of one workload, as the benchmark contract calls it:

    python3 willowbench/run.py --workload sim-100k-steady --seed 1 --seconds 20 --trace 0

Steadiness mode: repeat workloads over several seeds and print, for
every end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median):

    python3 willowbench/run.py --steady --runs 10 [--workloads a,b] [--seconds 20]

Run from the root of a checkout. The Go build cache, the binary, traces
and the serve workloads' scratch files all live under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def go_env():
    out = build_dir()
    env = dict(os.environ)
    env.update({
        "CARGO_TARGET_DIR": out,
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    return env


def build():
    """Compile the benchmark against the checkout it sits in."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod at %s; run from a full checkout of the repository" % ROOT)
    binary = os.path.join(build_dir(), "willowbench")
    os.makedirs(build_dir(), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if proc.returncode != 0:
        sys.exit("run.py: go build failed (exit %d)" % proc.returncode)
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; return its exit code and standard output."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=go_env(), stdout=subprocess.PIPE, timeout=RUN_TIMEOUT, text=True)
    return proc.returncode, proc.stdout


def steady(binary, args):
    names = args.workloads.split(",")
    for name in names:
        values = {}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            code, out = run_once(binary, name, seed, args.seconds, 0)
            if code != 0:
                sys.exit("run.py: %s seed %d exited %d" % (name, seed, code))
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit("run.py: %s seed %d failed its checks:\n%s" % (name, seed, out))
            shares.add(res["failed"] / res["attempted"])
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print("%s seed %d: %s" % (name, seed, json.dumps(res)), flush=True)
        print("== %s over %d seeds from %d; failed share %s" % (name, args.runs, args.first_seed, sorted(shares)))
        for metric in sorted(values):
            v = values[metric]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            print("   %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%"
                  % (metric, q2, q1, q3, 100 * (q3 - q1) / q2))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--steady", action="store_true", help="repeat workloads over seeds and print spreads")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="sim-100k-steady,sim-2k-deficit-chaos,serve-10k-read,serve-18-write")
    args = p.parse_args()
    if not args.steady and not args.workload:
        p.error("--workload is required (or --steady)")

    binary = build()
    if args.steady:
        steady(binary, args)
        return
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
