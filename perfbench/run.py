#!/usr/bin/env python3
"""Entry point of the repo benchmark (see BENCHMARK.json and README.md here).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds dsd_core, dsd_server and the measuring
binary from source into .bench_build/ (Release), runs one workload, files a
run record with the host-noise fields under .bench_build/runs/, and prints
the result JSON as the last line of stdout. Exits non-zero without a result
when the repository sources are missing or the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("batch-peel", "serve-steady")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def git(root, *args):
    """Output of a git command in root, or None when it fails."""
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id(root):
    """The commit when root is a clean git checkout. Otherwise a content hash
    of the sources the benchmark builds, after the commit when there is one,
    so runs on uncommitted changes are not filed under their parent."""
    if git(root, "rev-parse", "--show-toplevel") == root:
        commit = git(root, "rev-parse", "HEAD")
        if commit and git(root, "status", "--porcelain") == "":
            return commit
    else:
        commit = None
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    tree = "tree-" + digest.hexdigest()[:16]
    return f"{commit}+{tree}" if commit else tree


def build(bench_dir, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "perfbench", "dsd_server"],
                   stdout=sys.stderr, check=True)
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for needed in ("src/CMakeLists.txt", "tools/dsd_server.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"missing {needed}: run from the repository root")
            return 2

    host = {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "source": source_id(root),
    }
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        host["build_type"] = build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    log("host " + json.dumps(host))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, ".bench_build", "work", tag)
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "dsd_server"),
               "--workdir", workdir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        for name in os.listdir(workdir):
            if name.endswith(".txt"):
                os.remove(os.path.join(workdir, name))
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        log(f"perfbench exited {run.returncode}")
        return 1
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1

    runs_dir = os.path.join(root, ".bench_build", "runs")
    os.makedirs(runs_dir, exist_ok=True)
    with open(os.path.join(runs_dir, tag + ".json"), "w") as f:
        json.dump({"host": host, "record": record, "result": result}, f,
                  indent=1)
    log("counts " + json.dumps(record["counts"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
