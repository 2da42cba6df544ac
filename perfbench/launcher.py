"""``python -m perfbench.launcher SPANS_OUT <repro.serve flags>`` —
the traced run's server: install the timing wrappers, hand over to
``repro.serve``'s own ``main``, and write the spans out once it has
drained and returned."""

from __future__ import annotations

import sys

from .trace import Tracer


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.serve import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
