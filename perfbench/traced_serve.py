"""Start ``repro serve`` with span-recording wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR serve ARTIFACT ...``

Installs the wrappers of :func:`spans.install_serving_wrappers`, then
hands the remaining arguments to ``repro.cli.main``.  The server
process writes its spans to ``SPAN_DIR`` when ``main`` returns (after
the SIGTERM drain); each forked worker writes its own when its serve
loop ends.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    """Run the CLI under tracing; returns its exit code."""
    span_dir, cli_args = argv[0], argv[1:]
    from common import require_program
    from spans import Recorder, install_serving_wrappers

    require_program()
    from repro import cli
    from repro.serving import workers

    recorder = Recorder()
    install_serving_wrappers(recorder)
    worker_main = workers.worker_main

    def traced_worker_main(*args, **kwargs):
        recorder.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump(span_dir)

    workers.worker_main = traced_worker_main
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(span_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
