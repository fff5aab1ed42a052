"""The command line: ``python -m newton_calc`` and the ``newton-calc`` script.

The library calls no BLAS routine, yet OpenBLAS starts a thread pool as
numpy loads, which costs about 0.1 s of CPU (not wall time) per process.
So the command line asks for one BLAS thread before it imports numpy
(through ``.cli``; the package ``__init__`` imports nothing).  A value
already set in the environment wins.  Importing the library leaves the
environment alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # after the variable is set, so numpy sees it

if __name__ == "__main__":
    sys.exit(main())
