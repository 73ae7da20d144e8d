"""Peak resident memory and wall time of one `lambda1` study.

    python3 tools/memory.py --domain '{"kind":"ball","dim":3,"params":{"center":[0,0,0],"radius":1}}' \\
        --h-start 0.125 --levels 4

Runs `specbound lambda1` with the given arguments in a fresh interpreter
with one BLAS thread, importing `specbound` from the `src/` next to this
script, and writes the artifact to a scratch file that it then deletes.
Prints the interpreter's peak resident set (VmHWM from /proc/self/status,
so Linux only) in MiB and the wall time of the study in seconds, which
leaves out the interpreter's start and its imports, and exits with the
CLI's exit code.  The README's memory figures come from this command.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import sys, time
from specbound.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(f"VmHWM {kib / 1024:.1f} MiB, wall {wall:.2f} s")
sys.exit(code)
"""


def main(argv: list) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as scratch:
        out = str(Path(scratch) / "lambda1.json")
        done = subprocess.run([sys.executable, "-c", CHILD, "lambda1", *argv, "--out", out], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
