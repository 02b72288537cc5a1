#!/usr/bin/env python3
"""Builds the stage-graph benchmark when its sources changed, then runs it.

    python3 stagebench/run.py --workload e3_dense --seed 1 --seconds 25 --trace 0

Run it from the repository root; the arguments go to the benchmark binary
unchanged, and its output and exit code are the benchmark's. The binary is
rebuilt with cargo only when it is missing or older than a source file: in
a tree without `.git`, a `cargo run` would rebuild part of the workspace
on every call, because a build script watches `.git/HEAD`. Cargo's output
goes to stderr, so the last line of stdout stays the result line.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("stagebench", "Cargo.toml")
SOURCES = ["Cargo.toml", "crates", "vendor", os.path.join("stagebench", "Cargo.toml"),
           os.path.join("stagebench", "Cargo.lock"), os.path.join("stagebench", "src")]


def newest_source_mtime():
    newest = 0.0
    for top in SOURCES:
        if os.path.isfile(top):
            newest = max(newest, os.path.getmtime(top))
            continue
        for root, _, files in os.walk(top):
            for name in files:
                if name.endswith((".rs", ".toml", ".lock")):
                    newest = max(newest, os.path.getmtime(os.path.join(root, name)))
    return newest


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("stagebench", "target"))
    binary = os.path.join(target, "release", "stagebench")
    if not os.path.exists(binary) or os.path.getmtime(binary) < newest_source_mtime():
        build = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", MANIFEST],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
