"""The command line's one entry: ``python -m blaschke_lab`` and the ``blaschke-lab`` script.

Importing the CLI, and numpy with it, makes about 34,000 objects that the
cyclic collector tracks, nearly all of which live until the process
exits.  Collections while they are made would traverse them again and
again, and a later full collection once more.  So the entry pauses the
collector over the import, then freezes what the import made
(gc.freeze), which no collection traverses again, and turns the
collector back on: the run itself collects as usual.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    from .cli import main as run

    gc.freeze()
    gc.enable()
    return run()


if __name__ == "__main__":
    sys.exit(main())
