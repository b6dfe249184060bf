#!/usr/bin/env python3
"""Build the `serve` binary and the benchmark program from source, then run
one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --serve-flags "--queries 5000 --epochs 20 --hidden 64" \
        --workload serial_unique --seed 1 --seconds 10 --trace 0

`--serve-flags` is the bootstrap configuration every run serves (BENCHMARK.json
fixes it). Builds go to $CARGO_TARGET_DIR (default `.bench_build`); the server
log and the traced run's spans go to `.bench_out/`. The last line of standard
output is the run's JSON result; build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

# What the source digest covers: everything that builds the server and
# the benchmark program.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "vendor", "perfbench"]


def parse(argv):
    if len(argv) % 2:
        sys.exit(f"run.py: flags come in --name value pairs, got {argv}")
    flags = {}
    for name, value in zip(argv[::2], argv[1::2]):
        if not name.startswith("--"):
            sys.exit(f"run.py: unexpected argument {name!r}")
        flags[name[2:]] = value
    for required in ("serve-flags", "workload", "seed", "seconds", "trace"):
        if required not in flags:
            sys.exit(f"run.py: missing --{required}")
    return flags


def source_digest(root):
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = root / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "target" not in p.relative_to(root).parts)
        for f in files:
            digest.update(str(f.relative_to(root)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(args, root):
    result = subprocess.run(["cargo", "build", "--release", "--offline", *args], cwd=root,
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: build failed: cargo build {' '.join(args)}")


def main():
    flags = parse(sys.argv[1:])
    root = Path.cwd()
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
        os.environ["CARGO_TARGET_DIR"] = str(target)
    build(["-p", "lc-serve", "--bin", "serve"], root)
    build(["--manifest-path", "perfbench/Cargo.toml"], root)
    command = [
        str(target / "release" / "lc-perfbench"),
        "--serve-bin", str(target / "release" / "serve"),
        "--out", str(root / ".bench_out"),
        "--commit", git_commit(root),
        "--source", source_digest(root),
    ]
    for name, value in flags.items():
        command += [f"--{name}", value]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=root).returncode)


if __name__ == "__main__":
    main()
