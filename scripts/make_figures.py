#!/usr/bin/env python3
"""Render the eigenmode overlay and the spectral growth figure as SVG.

Runs the `modes` and `growth` commands back to back with shared options so
both figures come from one consistent configuration.  The positional mode
indices go to `modes` only:

    python3 scripts/make_figures.py --out out 1 2 3
"""

import sys

from shakerbeam.cli import _SETTINGS, _build_parser, main


def growth_argv(argv):
    """argv for `growth`: the options `modes` read from argv, without the mode indices."""
    args = vars(_build_parser().parse_args(["modes", *argv]))
    flags = {"config": "--config", "out": "--out"}
    flags.update((key, flag) for key, (_, flag, _) in _SETTINGS.items() if flag is not None)
    options = [f"{flag}={args[key]}" for key, flag in flags.items() if args.get(key) is not None]
    return ["growth", *options, *["--quiet"] * bool(args.get("quiet"))]


if __name__ == "__main__":
    extra = sys.argv[1:]
    code = main(["modes", *extra])
    if code == 0:
        code = main(growth_argv(extra))
    sys.exit(code)
