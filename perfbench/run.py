#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage, from the root of a checkout of this repository:

    python3 perfbench/run.py --workload dirhostile-16c --seed 1 --seconds 30 --trace 0

The Go toolchain's build cache, temporary files and the binary all live in
.bench_build/ under the checkout, so a run reads and writes nothing outside
it. Every argument is passed through to the binary; see perfbench/README.md
for the workloads and metrics. The last line of standard output is the
result object.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    # The benchmark measures the repository's own packages: without the
    # module they live in there is nothing to build or run.
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            print("perfbench: %s not found; run from the root of a repository checkout" % need,
                  file=sys.stderr)
            return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2

    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
