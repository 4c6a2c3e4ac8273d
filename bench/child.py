"""Run one ``loopcurrents`` CLI command in this process.

    python3 bench/child.py READY_JSON [--trace TRACE_JSON] -- CLI_ARGS...
    python3 bench/child.py READY_JSON --setup-only

It does what the ``loopcurrents`` console script does (``cli.main`` on the
arguments, its return value as the exit code), and writes to READY_JSON the
``time.monotonic()`` reading taken once ``import loopcurrents.cli`` has
finished, so the parent can tell interpreter start-up plus import apart
from the command itself.  With ``--trace`` the library's public functions
are wrapped first and the per-layer trace is written to TRACE_JSON.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    ready_path = opts[0]

    import loopcurrents
    from loopcurrents import cli

    ready = time.monotonic()
    import json

    with open(ready_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "module": loopcurrents.__file__}, fh)
    if "--setup-only" in opts:
        return 0

    tracer = None
    if "--trace" in opts:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, loopcurrents)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            with open(opts[opts.index("--trace") + 1], "w", encoding="utf-8") as fh:
                json.dump(tracer.to_json_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
