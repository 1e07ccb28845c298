#!/usr/bin/env python3
"""Build and run the machd end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 50 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), with its build cache and
temporary files kept there too. It is then run with the same arguments,
and the traced run's span dump goes to spans/ in the build directory.
Its standard output is passed through unchanged; the last line is the
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(build, "spans")
    return subprocess.run([binary, "--spans", spans] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
