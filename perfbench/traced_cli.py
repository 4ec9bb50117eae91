"""Run the `srs` command line with span tracing and write the spans to a
file when it returns. Spans of the pool workers stay in the workers.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json run --phantom smooth ...
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import srsct.cli
    tracer = Tracer()
    try:
        tracer.install()
        code = srsct.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
