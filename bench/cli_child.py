"""Run graphprod's CLI once with spans around its public functions.

The traced ``cli-cold`` pass starts this file in place of
``python -m graphprod.cli``, under ``-X importtime``, with the CLI's
arguments.  After the command returns, the span summary goes to standard
error as one line starting with ``tracer.SUMMARY_MARK``.
"""

import json
import sys

import tracer
import graphprod.cli

if __name__ == "__main__":
    spans = tracer.Tracer()
    spans.install()
    try:
        code = graphprod.cli.main(sys.argv[1:])
    finally:
        spans.uninstall()
    sys.stderr.write(tracer.SUMMARY_MARK + json.dumps(spans.summary()) + "\n")
    sys.exit(code)
