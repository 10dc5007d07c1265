#!/usr/bin/env python3
"""Repository benchmark: builds spindle_perfbench (Release) from this
checkout and runs one workload.

    python3 perfbench/run.py --workload fleet_search --seed 1 --seconds 10 --trace 0

Workloads: fleet_search, live_mixed, strategy_graph (perfbench/README.md).
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; server logs, snapshots and traces go to
<build dir>/work/<workload>/. The last line of stdout is the JSON result;
everything the build prints goes to stderr.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_search", "live_mixed", "strategy_graph")
RUN_TIMEOUT_S = 170


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_stamp():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def build():
    """Configures (once) and builds the load generator and the two server
    binaries; returns the load generator's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no spindle sources at %s/src; run from a full "
                 "checkout" % ROOT)
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "spindle_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "spindle_perfbench")


def run(binary, args, extra=()):
    """Runs the load generator in its own process group (so a timeout
    also stops the servers it started) and returns (exit code, stdout)."""
    work = os.path.join(build_root(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work, "--git-sha=" + source_stamp()]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    try:
        code, out = run(binary, args)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
