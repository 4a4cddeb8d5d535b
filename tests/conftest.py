"""Run the interpreters that tests start against the checkout's package.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; child processes (``python -m fanoenum``, fresh-start probes) see it
through ``PYTHONPATH``, so ``python3 -m pytest`` works without installing.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
