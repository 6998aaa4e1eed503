#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels-default --seed 1 --seconds 50 --trace 0

Every argument is passed to perfbench/main.exe (see README.md in this
directory).  The build goes to _build/ in the checkout with dune's shared
cache disabled, so nothing is read or written outside the checkout except
the OCaml toolchain itself.  The last line of standard output is the JSON
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# A run ends within one compile or simulation of --seconds; a traced run
# takes about half a minute.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: %s is not a checkout of the repository" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run interrupted or over %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
