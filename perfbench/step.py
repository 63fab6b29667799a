"""Run one firmgrowth CLI step as the benchmark's child process.

    python3 step.py STAMP SPANS [CLI ARGS...]

Does what the ``firmgrowth`` console script does (import ``firmgrowth.cli``,
call ``main``) and writes to STAMP the ``time.monotonic()`` reading taken
once the import finished, so the parent can tell set-up from work.  When
SPANS is not ``-`` the package's public functions are traced and the spans
are written to SPANS at exit.  The step kills itself after STEP_TIMEOUT_S.
"""

import signal
import sys
import time

STEP_TIMEOUT_S = 100


def main():
    stamp, spans_path, *cli_args = sys.argv[1:]
    signal.alarm(STEP_TIMEOUT_S)
    from firmgrowth import cli

    imported = time.monotonic()
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(stamp, "w") as fh:
            fh.write(repr(imported))
        if tracer is not None:
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
