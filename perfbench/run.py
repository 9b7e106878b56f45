#!/usr/bin/env python3
"""Build and run the ccsa end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rank_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library sources under src/) with CMake in
Release mode into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs the driver with the given arguments. The
driver's last line of output is one JSON object with the verdict and the
metrics; this script checks its metric names against BENCHMARK.json and
exits non-zero when the build, the run or that check fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """Git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def check_names(result_line, trace):
    """The printed metric names must be exactly BENCHMARK.json's."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    result = json.loads(result_line)
    if sorted(result["metrics"]) != sorted(expected):
        fail("metric names differ from BENCHMARK.json: got %s, want %s"
             % (sorted(result["metrics"]), sorted(expected)))


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.hh")):
        fail("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    binary = build(build_dir)
    if argv == ["--selftest"]:
        return subprocess.run([binary, "--selftest"]).returncode

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary] + argv + ["--commit", source_revision(),
                             "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the run printed no result")
    check_names(lines[-1], "--trace" in argv and
                argv[argv.index("--trace") + 1:][:1] == ["1"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
