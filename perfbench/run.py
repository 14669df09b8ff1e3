#!/usr/bin/env python3
"""Run the HALOTIS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --selftest         # tiny-size smoke of every workload

Run it from anywhere inside a source checkout: it builds the benchmark
executable and the halotis CLI with dune, runs the workload, and passes
the executable's output through.  The last line of standard output is
the JSON result {"correct", "attempted", "failed", "metrics"}.  Scratch
files (journals, CLI output, span dumps) go to .perfbench/ at the root
of the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sim-rand", "campaign-rand", "serve-mix"]
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "halotis_cli.exe")
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_tree():
    for rel in ["dune-project", "lib", os.path.join("bin", "halotis_cli.ml")]:
        if not os.path.exists(os.path.join(ROOT, rel)):
            die("%s is missing: run from a full HALOTIS source checkout" % rel)
    if shutil.which("dune") is None:
        die("dune is not on PATH")


def build():
    # dune's own output goes to stderr: stdout carries only results.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/halotis_cli.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def provenance():
    rev = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return rev, h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, tiny, capture):
    rev, digest = provenance()
    argv = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--spec", os.path.join(ROOT, "BENCHMARK.json"),
            "--work-dir", WORK_DIR, "--cli", CLI,
            "--rev", rev, "--source-digest", digest]
    if tiny:
        argv.append("--tiny")
    try:
        r = subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(os.path.join(WORK_DIR, "tmp"), ignore_errors=True)
    if r.returncode != 0:
        die("%s exited %d" % (workload, r.returncode))
    return r.stdout


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_report"]


def run_all(args):
    results = {}
    for w in WORKLOADS:
        out = run_one(w, args.seed, args.seconds, args.trace, args.tiny, capture=True)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[w] = json.loads(lines[-1])
    metrics = {}
    for w, res in results.items():
        for name, m in res["metrics"].items():
            metrics[w + "." + name] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


def selftest():
    """Tiny-size smoke of every workload: every metric of BENCHMARK.json
    is emitted with its unit, each per-layer metric is measured by some
    workload and every other one carries the reason it is not, no
    workload reports a metric BENCHMARK.json does not list, two same-seed
    runs agree on every counter and digest, and no operation fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    measured = set()
    for w in WORKLOADS:
        runs = {}
        for key, trace in [("a", 0), ("b", 0), ("t", 1)]:
            out = run_one(w, 7, 1, trace, True, capture=True)
            runs[key] = last_json(out)
        for key, (res, report) in runs.items():
            trace = 1 if key == "t" else 0
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace %d: metrics/units differ from BENCHMARK.json: %s"
                                % (w, trace, sorted(set(got.items()) ^ set(want[trace].items()))))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s run %s: correct=%s failed=%d of %d"
                                % (w, key, res["correct"], res["failed"], res["attempted"]))
            if trace == 0 and not all(v["value"] > 0 for v in res["metrics"].values()):
                problems.append("%s: an end-to-end metric is not positive" % w)
            if trace == 1:
                zero = {k for k, v in res["metrics"].items() if v["value"] == 0}
                if not set(report["not_exercised"]) <= zero:
                    problems.append("%s: a metric with a drop reason is nonzero" % w)
                measured |= set(res["metrics"]) - set(report["not_exercised"])
                if report["unlisted"]:
                    problems.append("%s reports metrics BENCHMARK.json does not list: %s"
                                    % (w, report["unlisted"]))
        if runs["a"][1]["checks"] != runs["b"][1]["checks"]:
            problems.append("%s: counters or digests differ between same-seed runs" % w)
        if runs["a"][1]["checks"] != runs["t"][1]["checks"]:
            problems.append("%s: counters or digests differ between traced and untraced runs" % w)
        print("selftest %s: %s" % (w, "checked"), flush=True)
    if set(want[1]) - measured:
        problems.append("per-layer metrics no workload measures: %s"
                        % sorted(set(want[1]) - measured))
    for p in problems:
        print("selftest FAIL: " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("give --workload NAME, --workload all or --selftest")
    check_tree()
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.selftest:
        sys.exit(selftest())
    if args.workload == "all":
        run_all(args)
    else:
        sys.stdout.flush()
        run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny, capture=False)


if __name__ == "__main__":
    main()
