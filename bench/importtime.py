"""Per-module import cost, parsed from ``python -X importtime`` output.

Each output line reads ``import time: <self us> | <cumulative us> | <name>``,
with two spaces of indentation per nesting level; a module's line follows
those of the modules it imports.  Top-level entries printed before the first
one that loads ``fanoenum`` were imported by the interpreter and ``site``
before the package (a ``.pth`` file can pull in ``importlib.resources`` and
``pathlib`` there); they are recorded as preloaded, not charged to the
package.
"""

from __future__ import annotations

import re
import subprocess
from statistics import median

from common import PYTHON, ROOT

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")

IMPORT_MODULES = (
    "fanoenum",
    "fanoenum.cli",
    "fanoenum.enumerator",
    "fanoenum.table_oracle",
    "fanoenum.ray_constraints",
    "fanoenum.picard_lattice",
    "fanoenum.chern_calculus",
    "fanoenum.errors",
    "dataclasses",
    "inspect",
    "fractions",
    "json",
    "csv",
    "argparse",
)
PROBE_STATEMENT = "import fanoenum.cli"


def parse(text: str) -> dict:
    """Split one importtime log into preloaded modules and the package's imports.

    Returns {"preloaded": {name: self_us}, "charged": {name: self_us},
    "package_cumulative_us": int}.
    """
    entries = []
    for line in text.splitlines():
        match = _LINE.match(line)
        if match:
            self_us, cumulative_us, indent, name = match.groups()
            entries.append((len(indent) // 2, name, int(self_us), int(cumulative_us)))
    # Group entries into top-level blocks: a block ends at a depth-0 line.
    blocks, current = [], []
    for entry in entries:
        current.append(entry)
        if entry[0] == 0:
            blocks.append(current)
            current = []
    preloaded, charged, cumulative = {}, {}, 0
    in_package = False
    for block in blocks:
        if not in_package and any(n.split(".")[0] == "fanoenum" for _, n, _, _ in block):
            in_package = True
        target = charged if in_package else preloaded
        for _, name, self_us, _ in block:
            target[name] = target.get(name, 0) + self_us
        if in_package:
            cumulative += block[-1][3]
    return {"preloaded": preloaded, "charged": charged, "package_cumulative_us": cumulative}


def probe(env: dict[str, str], runs: int) -> tuple[dict[str, float], list[str]]:
    """Import the package ``runs`` times in fresh processes; median per metric.

    Returns the ``import.*`` layer metrics and the modules ``site`` had
    already imported before the package.
    """
    logs = []
    for _ in range(runs):
        done = subprocess.run(
            [PYTHON, "-X", "importtime", "-c", PROBE_STATEMENT],
            env=env, cwd=ROOT, capture_output=True, check=True,
        )
        logs.append(parse(done.stderr.decode("utf-8", "replace")))
    metrics = {
        f"import.{name}.self_us": median(log["charged"].get(name, 0) for log in logs)
        for name in IMPORT_MODULES
    }
    metrics["import.package.cumulative_us"] = median(
        log["package_cumulative_us"] for log in logs
    )
    metrics["import.site_preloaded.us"] = median(
        sum(log["preloaded"].values()) for log in logs
    )
    return metrics, sorted(logs[0]["preloaded"])
