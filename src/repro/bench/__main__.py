"""``python -m repro.bench [FIG ...] [--runtime SHARDS]``."""

import sys

from .figures import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
