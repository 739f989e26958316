"""Command-line front end.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure
(refinement/conditioning), 4 output I/O problem.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from fracresolvent.errors import ConfigurationError, NumericalError, OutputError
from fracresolvent.experiments import run_experiment

_DEMOS = {"kimura-abc": "kimura_abc.cfg", "bessel-w": "bessel_w.cfg"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracresolvent",
        description="Decay sweeps and diagnostics for kernel-driven resolvent families",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run an experiment described by a config file "
             "(run.mode: smoothing, caputo or admissibility)",
    )
    run.add_argument("config", help="path to a section.key = value config")

    demo = sub.add_parser("demo", help="run a bundled demonstration config")
    demo.add_argument("name", choices=sorted(_DEMOS))
    return p


def _cmd_demo(args) -> int:
    ref = resources.files("fracresolvent").joinpath("configs", _DEMOS[args.name])
    with resources.as_file(ref) as path:
        return run_experiment(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(args.config)
        return _cmd_demo(args)
    except ConfigurationError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 3
    except (OutputError, OSError) as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
