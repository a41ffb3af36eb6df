"""`python -m codeweft.cli` with spans: cli_child.py SPANS_JSON ARGS...

Installs the tracer before calling `codeweft.cli.main(ARGS)`, writes the
spans to SPANS_JSON when main returns, and exits with main's code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import codeweft.cli

    try:
        return codeweft.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
