"""Run one ``repro`` CLI command with the timing wrappers installed.

Usage: ``python3 perfbench/traced.py SPANS.json <repro arguments...>``

Equivalent to ``python3 -m repro <repro arguments...>``, except that the
wrappers of :mod:`tracing` record spans while the command runs, and the
spans are written to ``SPANS.json`` when it ends (for ``serve``: when
the server is interrupted).
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder, serve=command[:1] == ["serve"])
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
