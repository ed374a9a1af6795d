"""Run the program's HTTP daemon with the benchmark's layer spans.

Usage: ``python perfbench/serve_traced.py SPANS_FILE serve --repo DIR ...``

Installs :mod:`layertrace`'s wrappers inside this (daemon) process,
then hands the remaining arguments to ``repro.cli.main``. The daemon
shuts down gracefully on SIGTERM; once it has, the recorded spans and
per-match counters are written to ``SPANS_FILE`` as JSON.
"""

from __future__ import annotations

import sys

import layertrace


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = layertrace.SpanRecorder()
    recorder.install()
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
