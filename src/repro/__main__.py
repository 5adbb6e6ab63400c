"""``python -m repro`` — regenerate paper tables/figures from the shell."""

import os
import sys

from repro.harness.cli import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Python flushes stdout
        # again at exit, so point it at devnull before leaving quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
