"""Entry point of ``python -m condsurv`` and of the installed ``condsurv`` script."""

import os
import sys


def console_main() -> None:
    # condsurv calls no BLAS routine, yet numpy's and scipy's bundled OpenBLAS each start one worker per extra
    # core that spins for about 0.1 s; the variable is read when a BLAS loads, so it is set before `.cli`
    # imports numpy (`import condsurv` loads nothing), and a thread variable the user set is left as given
    if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    console_main()
