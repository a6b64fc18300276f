#!/usr/bin/env python3
"""Build and run the engine benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adhoc-cold --seed 1 --seconds 10 --trace 0

builds `perfbench/` (a cargo package of its own that compiles the engine
crates from `crates/`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload, and passes its output through. The
last line of output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. Add `--out FILE` to also keep the result with the host
fingerprint, and compare two such files with

    python3 perfbench/run.py compare BASE.json NEW.json

which refuses results whose host fingerprints differ.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        fail("engine sources not found next to perfbench/ (run from a checkout)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(target, "release", "aqe-perfbench")


def run(args):
    binary = build()
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if "host" not in base or "host" not in new:
        fail("a result without a host fingerprint cannot be compared")
    if base["host"] != new["host"]:
        fail(f"host fingerprints differ:\n  {base['host']}\n  {new['host']}")
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            fail(f"{key} differs: {base.get(key)} vs {new.get(key)}")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in bm:
        if name not in nm:
            continue
        b, n = bm[name]["value"], nm[name]["value"]
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:36s} {b:14.4f} {n:14.4f} {change:>8s} {bm[name]['unit']}")
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.json NEW.json")
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
