"""Run one shapelab experiment as the ``shapelab`` console script does
(``sys.exit(shapelab.cli.main())``), and record when the command's runner
starts: everything before it (interpreter start, ``import shapelab.cli``,
argument and config parsing) is the run's set-up.

The CLOCK_MONOTONIC reading at that point is written to the file named by
``PERFBENCH_MARK`` after the run; the parent subtracts its own reading
taken just before it started this process.
"""

import os
import sys
import time

import shapelab.cli as cli


def main() -> int:
    started = []
    runners = cli._RUNNERS

    def marked(fn):
        def run(*args, **kwargs):
            if not started:
                started.append(time.monotonic())
            return fn(*args, **kwargs)
        return run

    for name, fn in list(runners.items()):
        runners[name] = marked(fn)
    try:
        return cli.main(sys.argv[1:])
    finally:
        if started:
            with open(os.environ["PERFBENCH_MARK"], "w") as fh:
                fh.write(repr(started[0]))


if __name__ == "__main__":
    sys.exit(main())
