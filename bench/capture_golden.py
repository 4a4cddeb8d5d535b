"""Record the golden outputs the benchmark checks every op against.

Usage: ``python3 bench/capture_golden.py`` (writes bench/golden.json)

Run it only on a commit whose outputs are known to be right: it stores the
sha256 of the stdout of every ``cli_mix`` argv, run in a fresh process, and
of every full-table ``emit`` (truth and computed, both ranks, three formats).
"""

import hashlib
import json
import subprocess
import sys

from common import GOLDEN_PATH, PYTHON, ROOT, SRC, child_env, warm_bytecode_cache
from workloads import CLI_ARGVS, EMIT_FORMATS, argv_key, export_tables


def main() -> None:
    env = child_env(0)
    warm_bytecode_cache(env)
    cli = {}
    for argv in CLI_ARGVS:
        done = subprocess.run(
            [PYTHON, "-m", "fanoenum", *argv], env=env, cwd=ROOT, capture_output=True
        )
        if done.returncode != 0:
            raise SystemExit(f"error: {argv_key(argv)} exited {done.returncode}")
        cli[argv_key(argv)] = hashlib.sha256(done.stdout).hexdigest()
    sys.path.insert(0, str(SRC))
    import fanoenum

    emit = {
        key: {fmt: hashlib.sha256(fanoenum.emit(rows, fmt)).hexdigest() for fmt in EMIT_FORMATS}
        for key, rows in sorted(export_tables(fanoenum).items())
    }
    golden = {"cli_stdout_sha256": cli, "emit_sha256": emit}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cli)} CLI and {len(emit) * len(EMIT_FORMATS)} emit hashes to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
