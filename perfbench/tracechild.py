"""Run one twobeam CLI invocation with the layer tracer installed.

    python tracechild.py SPANS.npz ARG...

Behaves like `python -m twobeam.cli ARG...` (same output and exit
code) and writes the spans of the call to SPANS.npz. The cli-mix
workload uses it for its traced operations.
"""

import sys

import tracer
import twobeam.cli as cli


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        code = spans.run_op(0, cli.main, argv)
    spans.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
