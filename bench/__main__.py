"""Entry point: pin BLAS threads, locate the program, hand over to the CLI."""

import os
import sys
from pathlib import Path

from bench import THREAD_ENV

# OpenBLAS/OMP/MKL read these when numpy loads, so they must be set
# before anything below imports it.  One thread: the default two-thread
# OpenBLAS makes the DES session slower while doubling its CPU time.
for _name in THREAD_ENV:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        f"bench: no program to measure: {ROOT / 'src' / 'repro'} not found\n"
    )
    sys.exit(2)
# The checkout's own sources, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
