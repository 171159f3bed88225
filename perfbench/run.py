#!/usr/bin/env python3
"""Build the benchmark harness and the server from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness's last stdout line is the JSON
result; build output goes to stderr. Set-up time is counted from the
moment the harness process is started, after the build.
"""

import os
import subprocess
import sys
import time

DRIVER = os.path.join("_build", "default", "perfbench", "main.exe")
SERVER = os.path.join("_build", "default", "bin", "impactc.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the working tree; keep every
    # build artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/impactc.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    t0 = time.time()
    return subprocess.run([DRIVER, *sys.argv[1:], "--impactc", SERVER, "--t0", repr(t0)], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
