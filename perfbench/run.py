#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sweep|metro|serve --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds, in release mode and into
$CARGO_TARGET_DIR (default: .bench_build), the `phantom` binary of the
root workspace, which the serve workload starts as its daemon, and the
`phantom-perfbench` binary of perfbench/, a workspace of its own. Then
it runs the workload. Build output goes to standard error. Standard
output gets the benchmark's detail line and, last, its result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A build runs only when the sources changed since the last one: a hash of
the toolchain, RUSTFLAGS and every file the two builds read is kept
beside the binaries. (Cargo alone would rebuild every time in a checkout
without .git, since crates/metrics/build.rs watches .git/HEAD.)

The exit code is the benchmark's: 0 when every output check passed. If
the build fails, or the benchmark dies or overruns, nothing is printed
on standard output and the exit code is not 0. Every process the run
starts is in one process group, which is killed and waited for at the
end. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

# Seconds one workload may run once built: runs must end within 180 s.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Everything the two builds read, relative to the repository root.
SOURCES = (
    "Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "src",
    "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src",
)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(cmd, root, env):
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    print(f"perfbench: {' '.join(cmd)} took {time.monotonic() - started:.1f}s", file=sys.stderr)


def source_key(root):
    """Hash of the toolchain, RUSTFLAGS and every source file of the builds."""
    h = hashlib.sha256()
    rustc = subprocess.run(["rustc", "-vV"], capture_output=True)
    h.update(rustc.stdout)
    h.update(os.environ.get("RUSTFLAGS", "").encode())
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def group_alive(pgid):
    """True while any process of process group `pgid` exists."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group; zombies
        # have ended and only wait for their parent.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def reap_group(pgid):
    """Kill what is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "metro", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates", "BENCHMARK.json", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the repository root: {need} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    bench = os.path.join(target, "release", "phantom-perfbench")
    phantom = os.path.join(target, "release", "phantom")
    stamp = os.path.join(target, "perfbench-sources.sha256")
    key = source_key(root)
    built = os.path.exists(stamp) and open(stamp).read() == key
    if not (built and os.path.exists(bench) and os.path.exists(phantom)):
        build(["cargo", "build", "--release", "--offline", "-p", "phantom-cli"], root, env)
        build(
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
            root,
            env,
        )
        with open(stamp, "w") as f:
            f.write(key)

    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", root,
        "--phantom", phantom,
    ]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(f"{args.workload} overran {RUN_TIMEOUT_S}s", 3)
    finally:
        reap_group(proc.pid)
        # A benchmark that died leaves its daemon spool behind.
        work = os.path.join(root, ".bench_work")
        if os.path.isdir(work):
            for name in os.listdir(work):
                if name.startswith("serve-"):
                    shutil.rmtree(os.path.join(work, name), ignore_errors=True)

    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == RESULT_KEYS
    except (IndexError, ValueError, AssertionError):
        fail(f"{args.workload} printed no result (exit code {proc.returncode})", 4)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
