"""Run one soclecoh CLI command in this process, for the benchmark harness.

    python3 bench/child.py MODE STATS_PATH CLI_ARG...

The report goes to standard output exactly as `soclecoh` writes it.  At exit
the child writes STATS_PATH, a JSON object with `ready`, the CLOCK_MONOTONIC
time at which the ObstructionContext was built (the harness stamps the launch
on the same clock), and in trace mode the recorded spans.

MODE is one of
    plain  run the command to the end;
    setup  stop with exit 0 as soon as the context is built;
    trace  like plain, with spans around each layer's entry points.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class _SetupDone(BaseException):
    """Unwinds through the CLI's handlers once the context is built."""


def main(argv):
    mode, stats_path, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "setup", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    from soclecoh import cli, obstruction

    recorder = None
    if mode == "trace":
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    stats = {"ready": None}
    build = obstruction.ObstructionContext.__init__

    def stamped_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        stats["ready"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone

    obstruction.ObstructionContext.__init__ = stamped_init
    code = 1
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    finally:
        if recorder is not None:
            stats["spans"] = recorder.spans
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
