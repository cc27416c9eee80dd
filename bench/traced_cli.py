"""Run one ``bellsim`` command with the benchmark's tracer installed.

Usage: python traced_cli.py SPANS_JSON ARG...

Imports ``bellsim.cli``, wraps the layer entry points (see ``tracing``),
runs ``bellsim.cli.main(ARG...)``, writes the spans and counts to
SPANS_JSON and exits with the command's exit code.
"""

import json
import sys

import tracing


def main(argv):
    spans_path, args = argv[0], argv[1:]
    import bellsim.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = bellsim.cli.main(args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
