#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune (no shared dune cache, so nothing is read or written outside the
checkout), runs one workload in a fresh process, and re-prints its output.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; per-layer metrics a workload's
timed units never reach are reported as 0. `--workload all` runs every
workload in turn, for a person reading the numbers.

Exits non-zero without printing a result when the R3 sources are missing,
the build fails, or the benchmark fails or times out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no R3 sources (dune-project, lib/) next to the benchmark")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (exit %d)" % r.returncode)


def provenance():
    """Git commit when the checkout is a git repository, plus a digest of
    the library sources, which identifies the code under test either way."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.md5()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "lib"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "git_commit=%s lib_md5=%s" % (commit, h.hexdigest())


def run_one(spec, workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(os.path.join(ROOT, "_perfbench"), ignore_errors=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        die("%s exited with %d" % (workload, r.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("%s printed no result line" % workload, 1)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            die("%s: metric %s (%s) is not in BENCHMARK.json with that unit"
                % (workload, name, m["unit"]), 1)
    missing = [n for n in units if n not in metrics]
    if not args.trace and missing:
        die("%s: end-to-end metrics missing: %s" % (workload, missing), 1)
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    result["metrics"] = {n: metrics[n] for n in units}
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        selected = names
    elif args.workload in names:
        selected = [args.workload]
    else:
        die("unknown workload %r (one of %s, or all)" % (args.workload, names))
    build()
    print("provenance: " + provenance())
    results = []
    for workload in selected:
        lines, result = run_one(spec, workload, args)
        print("\n".join(lines))
        results.append((workload, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s/%s" % (w, n): m for w, r in results
                        for n, m in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final))


if __name__ == "__main__":
    main()
