"""Run one CLI invocation in this fresh process with the tracer installed.

Usage: ``python bench/trace_cli.py <fanoenum argv...>``

The CLI's stdout is captured; one JSON line goes to the real stdout with
the exit code, the sha256 of the captured output and the spans.
"""

import hashlib
import io
import json
import sys

import fanoenum.cli
from tracer import Tracer


def main(argv: list[str]) -> None:
    tracer = Tracer()
    real_stdout = sys.stdout
    captured = io.BytesIO()
    # Keep a name on the wrapper: collecting it would close ``captured``.
    capture = io.TextIOWrapper(captured, encoding="utf-8", newline="\n", write_through=True)
    sys.stdout = capture
    try:
        with tracer.op(0):
            try:
                code = fanoenum.cli.run(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        capture.flush()
    finally:
        sys.stdout = real_stdout
    real_stdout.write(
        json.dumps(
            {
                "returncode": code,
                "stdout_sha256": hashlib.sha256(captured.getvalue()).hexdigest(),
                "spans": tracer.spans,
            }
        )
        + "\n"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
