#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

The script builds perfbench (a Go module of its own that imports the
simulator from the parent directory) into the build directory, then runs
it with the given arguments plus the revision under test, as PROCESSES
consecutive processes whose results it combines. Everything the
build writes (binary, Go build cache, ledgers) stays under that directory:
$CARGO_TARGET_DIR when set, else .bench_build.

The revision comes from git when the root is a git checkout: the HEAD
commit and whether tracked files differ from it. Elsewhere it is a digest
of the source files, and the dirty flag is "unknown".
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A measuring run is split over this many consecutive processes. On a
# shared host the quietest pass times of one process hold steady, but
# differ by up to 15% from one process to the next; the median over
# three processes halves that spread between runs.
PROCESSES = 3


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def source_digest(skip):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if os.path.realpath(os.path.join(dirpath, d)) not in skip)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def revision(build):
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) == os.path.realpath(ROOT):
            dirty = git("status", "--porcelain", "--untracked-files=no") != ""
            return git("rev-parse", "HEAD"), "true" if dirty else "false"
    except (OSError, subprocess.CalledProcessError):
        pass
    return source_digest({os.path.realpath(build)}), "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no simulator source (no go.mod)" % ROOT, file=sys.stderr)
        return 2
    go = shutil.which("go") or "/usr/local/go/bin/go"
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: the result must be stdout's last line.
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rev, dirty = revision(build)
    cmd = [binary, "--root", ROOT, "--revision", rev, "--dirty", dirty]
    args = parse_args()
    if args is None:
        # Not a measuring run (e.g. -record or a usage error): pass it through.
        return subprocess.run([*cmd, *sys.argv[1:]], cwd=ROOT).returncode
    return measure(cmd, args)


def parse_args():
    """Returns the measuring flags, or None when the arguments ask for
    anything else."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0)
    args, rest = p.parse_known_args()
    return args if args.workload and not rest else None


def measure(cmd, args):
    """Splits the run into PROCESSES consecutive processes, each measuring
    an equal share of --seconds, and prints the report of each and, as the
    last line, their combined result: every metric the median over the
    processes, the job counts summed."""
    results = []
    for _ in range(PROCESSES):
        out = subprocess.run(
            [*cmd, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.rstrip("\n").split("\n")
        if out.returncode != 0:
            sys.stdout.write(out.stdout)
            return out.returncode
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
    metrics = {}
    for name, m in results[0]["metrics"].items():
        metrics[name] = {"value": statistics.median(r["metrics"][name]["value"] for r in results), "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
