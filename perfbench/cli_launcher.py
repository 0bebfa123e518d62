"""Traced stand-in for ``python -m matched_transforms.cli``.

Usage: ``python perfbench/cli_launcher.py SPANS_PATH <mtf arguments>``.
Installs the outside-in wrappers, runs ``matched_transforms.cli.main`` on
the remaining arguments, writes the spans to SPANS_PATH and exits with
main's code.
"""

import sys

from tracer import Tracer


def launch(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from matched_transforms import cli

    try:
        return cli.main(args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
