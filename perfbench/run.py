#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

Usage, from the repository root:
    python3 perfbench/run.py --workload served_p2 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-reference

Builds the library and the benchmark from source into .bench_build/perfbench
(CMake, Release), then runs the benchmark binary. Build output goes to
stderr; the binary's last stdout line is the JSON result. Exits non-zero
without a result when the sources or the build are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lcn_perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def source_sha():
    """sha256 over the library sources and the benchmark (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "none"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; nothing to build")
    build()

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    elif args.write_reference:
        cmd = [BINARY, "--write-reference", REFERENCE]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("need --workload, --seed, --seconds and --trace")
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE, "--source-sha", source_sha(),
               "--git-sha", git_sha(),
               "--spans-out", os.path.join(
                   BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
