"""Command-line entry point.

Verbs:
    run <config-file> [--out DIR]      run one experiment config
    preset <name> [--out DIR] [--desk] run a named preset (desk = reduced N)
    list-presets                       print available preset names
    oracle-check [--out DIR]           run the small-size cross-oracle suite

`run` and `preset` print the directories they wrote; `oracle-check` prints
its PASS/FAIL lines and writes them to `oracle_check.txt` in a run directory
named `oracle-small-n`.
Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numeric failure
(a failed oracle check included).
`THERMOGA_OUTPUT_DIR` overrides the output directory for all verbs.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermoga",
                                     description="GA effective-temperature experiments "
                                                 "on solvable spin-glass models")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--desk", action="store_true",
                          help="reduced system size for quick runs")

    sub.add_parser("list-presets", help="list preset names")
    p_oracle = sub.add_parser("oracle-check", help="run the cross-oracle suite")
    p_oracle.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "list-presets":
            for name in experiment.list_presets():
                print(name)
        elif args.verb == "oracle-check":
            out = experiment.resolve_output_dir("oracle-small-n", override=args.out)
            passed, lines = experiment.oracle_check(output_dir=out)
            print("\n".join(lines))
            return EXIT_OK if passed else EXIT_NUMERIC
        elif args.verb == "preset":
            for out in experiment.run_preset(args.name, desk=args.desk, output_dir=args.out):
                print(out)
        else:
            print(experiment.run_config(experiment.load_config(args.config), output_dir=args.out))
        return EXIT_OK
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
