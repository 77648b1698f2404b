#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaign|mine|serve|all \
        --seed N --seconds S --trace 0|1

The build (dune, release profile, shared cache disabled so nothing is
written outside the checkout) goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout. Exits non-zero, without
a result, when the tree holds no buildable repository.
"""

import hashlib
import os
import subprocess
import sys

TIMEOUT_S = 175


def source_id():
    """The commit under test: git's, or a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            )
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run(
            [exe] + sys.argv[1:] + ["--commit", source_id()], timeout=TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
