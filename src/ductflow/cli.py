"""Command-line interface.

Subcommands: one per ``presets.ACTIONS`` entry, which gives its runner and
help text, plus ``preset NAME``, which runs a named experiment preset end to end.

Common flags: ``--config`` (key = value file), ``--set key=value``
(repeatable, highest precedence), ``--seed``, ``--out`` (the directory the
CSV tables are written to), ``--threads`` (at least 1): the number of forked
worker processes of the particle engine, capped at ``os.cpu_count()`` and
shared by every engine run of the call; above 1 it needs a POSIX ``fork``.
The worker count never changes results.  ``ser`` writes one row per method
listed in ``ook.method``.
Exit codes: 0 success, 2 configuration error, 3 runtime error (a failed call keeps no table).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .presets import ACTIONS, PRESETS, preset_config, publish

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="configuration file (key = value lines)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one configuration key")
    parser.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="particle-engine worker processes (does not change results)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ductflow",
        description="Molecular-communication channel models for laminar duct flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in ACTIONS.items():
        _add_common(sub.add_parser(name, help=help_text))
    preset = sub.add_parser("preset", help="run a named experiment preset")
    preset.add_argument("name", choices=sorted(PRESETS))
    _add_common(preset)
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _dispatch(args: argparse.Namespace) -> list[Path]:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    overrides = _parse_overrides(args.overrides)
    if args.command == "preset":
        runner = PRESETS[args.name][0]
        cfg = preset_config(args.name, file_path=args.config,
                            overrides=overrides, seed=args.seed)
    else:
        runner = ACTIONS[args.command][0]
        cfg = load_config(file_path=args.config, overrides=overrides, seed=args.seed)
    return publish(runner(cfg, args.threads), args.out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        written = _dispatch(args)
    except ConfigError as exc:
        print(f"ductflow: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ductflow: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
