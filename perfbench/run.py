#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_cold|zoo_exact|serve_mix \
        --seed N --seconds S --trace 0|1

Builds `bsched-serve` from the repository workspace and the `perfbench`
package (its own workspace, depending on the repository crates by
path) in release mode, into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs `perfbench run` with the same arguments. The
JSON result line is the last line of stdout; build output and the human
summary go to stderr. Exits non-zero, printing no result, when the
repository sources are missing or the build or run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env):
    r = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {r.returncode}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no repository sources next to {HERE}; run from a full checkout")
    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    for var in [v for v in env if v.startswith("BSCHED_")]:
        del env[var]
    cargo(["build", "--release", "--offline", "--quiet", "-p", "bsched-serve"], env)
    cargo(["build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    server = os.path.join(target, "release", "bsched-serve")
    bench = os.path.join(target, "release", "perfbench")
    r = subprocess.run([bench, "run", *sys.argv[1:], "--server-bin", server], cwd=ROOT, env=env)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
