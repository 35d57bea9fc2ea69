"""Times one cold benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_time.py SRC

Importing ``run`` sets the BLAS thread limits and loads numpy and scipy,
as ``run.py`` does; the timer then covers what a user's first command pays
on top: importing ``blgeom`` from ``SRC`` (and every scipy submodule it
pulls in), emitting the specs and loading the references.  Prints the
seconds as the last line of stdout.
"""

import sys
import time
from pathlib import Path

import references
import run


def main(src: Path) -> int:
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    run.prepare(src)
    references.load()
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]).resolve()))
