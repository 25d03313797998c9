"""Child process timed by ``run.py`` for ``setup_s``.

A fresh interpreter imports ``imagewell.cli``, runs the warm-up jobs (the
one-time work a first call pays, such as lazy imports or JIT compilation
when numba is present) and prints ``ready``.  The parent times the whole
span from spawn to that line.
"""

import contextlib
import io
import sys
from pathlib import Path

# Smallest jobs that take the electrostatics path and the eigensolver path.
WARMUP = (
    ("potential", "--k1", "2", "--k2", "1", "--k3", "5", "--a", "0", "--b", "1", "--z0", "0.5"),
    ("eigen", "--gap", "1", "--states", "1", "--points", "101"),
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from imagewell import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(list(argv)) for argv in WARMUP]
    if any(codes):
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
