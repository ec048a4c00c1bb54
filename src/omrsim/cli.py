"""Batch experiment runner."""

from __future__ import annotations

import argparse
import sys

from .analytic import CalibrationError, TruncationError
from .config import ConfigError, SCENARIOS, load_config, parse_config
from .experiments import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omrsim",
        description="Run multihop-relaying simulation scenarios and sweeps.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="override the scenario from the config file")
    parser.add_argument("--trials", type=int, help="trials per sweep point")
    parser.add_argument("--seed", type=int, help="base reproducibility seed")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--workers", type=int,
                        help="worker processes (0 = all cores, 1 = inline)")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the configuration and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # flags set on the command line override the file's keys
    overrides = {key: getattr(args, key) for key in
                 ("scenario", "trials", "seed", "out_dir", "workers")
                 if getattr(args, key) is not None}
    try:
        spec = (load_config(args.config, **overrides) if args.config
                else parse_config("", **overrides))
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        print("configuration ok")
        return 0

    try:
        paths = run(spec)
    except (CalibrationError, TruncationError) as exc:
        kind = "calibration" if isinstance(exc, CalibrationError) else "recursion"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
