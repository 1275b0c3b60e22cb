"""Run the command-line interface via ``python -m jumpstab``.

``run`` is the process entry, here and as the installed ``jumpstab``
command.  It freezes the heap after ``main``, so the interpreter's final
collections skip the modules, classes and functions that numpy and
jumpstab loaded instead of walking and freeing them; shutdown still
flushes the streams, runs ``atexit`` and returns ``main``'s exit code.
``main`` itself freezes nothing.
"""

import gc

from .cli import main


def run() -> int:
    """Run ``main`` on ``sys.argv``; returns the process exit code."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
