"""The command line: ``python -m newton_calc`` and the ``newton-calc`` script.

Both enter through ``run``, which does what concerns the whole process;
``cli.main`` leaves the process alone, so tests and in-process callers
can run it many times.

The library calls no BLAS routine, yet OpenBLAS starts a thread pool as
numpy loads, which costs about 0.1 s of CPU (not wall time) per process.
So the command line asks for one BLAS thread before it imports numpy
(through ``.cli``; the package ``__init__`` imports nothing).  A value
already set in the environment wins.  Importing the library leaves the
environment alone.

When the command is done, ``run`` freezes the garbage collector's tracked
objects (``gc.freeze``), so the full collections of interpreter shutdown
do not walk them, numpy's included: 13-27 ms of CPU per command on a
2-core x86_64 machine, spent on a process that is ending.  The rest of
shutdown still runs: atexit handlers, the flushing of stdout and stderr,
module teardown.  A closed stdout, or one whose reader went away, ends in
one line on stderr and exit code 74, not a traceback.
"""

import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import EXIT_IOERR, main  # after the variable is set, so numpy sees it


def run(argv=None) -> int:
    """Run one command as a whole process; returns its exit code."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        print("newton-calc: stdout is closed", file=sys.stderr)
        return EXIT_IOERR
    try:
        try:
            return main(argv)
        finally:
            sys.stdout.flush()  # a reader gone shows here, not at shutdown
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the interpreter's own
        # flush at exit raises nothing (the Python docs' SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("newton-calc: stdout closed before all output was written",
              file=sys.stderr)
        return EXIT_IOERR
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
