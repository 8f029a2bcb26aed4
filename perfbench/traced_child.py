"""Run ``rehearsal <argv>`` with the benchmark's spans installed.

Usage: ``python -m perfbench.traced_child <spans.json> <rehearsal args...>``
from the checkout root with ``src`` and the root on ``PYTHONPATH``.
The spans are held in memory and written to ``spans.json`` once the
command returns (for ``serve``: after its graceful SIGTERM shutdown).
``PERFBENCH_REQUEST`` names the request the spans belong to.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    spans_path, rehearsal_args = argv[0], argv[1:]
    from perfbench import tracing

    tracer = tracing.Tracer()
    tracer.set_request(os.environ.get("PERFBENCH_REQUEST"))
    tracing.install(tracer)
    from repro.core import cli

    try:
        return cli.main(rehearsal_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
