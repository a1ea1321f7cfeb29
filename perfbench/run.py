#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload steady-mix --seed 1 --seconds 30 --trace 0

Arguments are passed through to the benchmark executable unchanged; see
perfbench/README.md. The build's own output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # Keep every file the build and the run write inside the checkout:
    # no shared dune cache, and the runtime_events ring under out/.
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT)
    build = subprocess.run(
        [dune, "build", "--root", ROOT,
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
