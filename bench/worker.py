"""Entry point of the in-process worker; see inproc.py (kept small so it compiles fast)."""

import sys

from inproc import main

sys.exit(main(sys.argv[1:]))
