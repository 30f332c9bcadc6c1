#!/usr/bin/env python3
"""Campaign benchmark: time-to-result and injections/s of closed-loop
fault-injection campaigns, plus an outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The first call builds the library,
the `fidelity_service` binary and the driver (perfbench/campaign_bench.cc)
into $CARGO_TARGET_DIR (default .bench_build).  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it stamps the host and the workload's size.  Workloads and
metrics are described in perfbench/README.md and BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = (
    "fixed_resnet_fp16_1t",
    "adaptive_transformer_int8_2t",
    "dist_resnet_fp16_2w",
)
# The driver enforces its own hard deadline (160 s) over the run; this
# one only guards against the driver itself hanging.
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the driver up to date; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("run.py: no CMakeLists.txt at", ROOT, "- nothing to benchmark")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "campaign_bench",
           "-j", jobs]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def source_rev():
    """Git revision when the tree is a checkout, else a digest of the
    sources the benchmark builds (the tree may not be a git repo)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_driver(binary, args, work_dir):
    """Run the driver in its own process group; returns (rc, stdout)."""
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--work-dir=" + os.path.relpath(work_dir, ROOT)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run.py: driver exceeded", RUN_TIMEOUT_S, "s; killed")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check seed determinism and that the output "
                         "check rejects a corrupted result")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        log("run.py: build failed")
        return 1
    binary = os.path.join(build_dir, "campaign_bench")
    work_dir = os.path.join(build_dir, "work")

    if args.self_test:
        rc, out = run_driver(binary, ["--self-test"], work_dir)
        sys.stdout.write(out)
        return rc

    rc, out = run_driver(binary, [
        "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds, "--trace=%d" % args.trace],
        work_dir)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        log("run.py: driver failed with exit code", rc)
        return 1
    result = json.loads(lines[-1])
    host = result.pop("host")
    host["rev"] = source_rev()
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
