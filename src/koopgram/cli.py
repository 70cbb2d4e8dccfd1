"""Command-line driver for the reduction pipeline.

Subcommands mirror the pipeline stages; `run` executes them all.  Every
stage reads and writes JSON artifacts in the output directory, so a stage
can be rerun and diffed in isolation.  Exit codes: 0 when every verdict is
PASS or SKIPPED, 2 when any verdict is FAIL, 1 on usage errors, a config
that cannot be read, lacks or mistypes a key, or has a value out of range,
missing prerequisites, an output directory that cannot be written, or a
failed computation (for example a full-system solve that blows up, an
expression that divides by zero, an output map the dictionary does not
span, an H-infinity norm whose peak gain cannot be bracketed, or a
probe-signal worker that died).
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import _STAGES, MissingArtifactError, PipelineConfig, run_pipeline, stage_report

_STAGE_COMMANDS = dict(_STAGES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopgram",
        description=(
            "Factor, balance, truncate, and certify nonlinear control systems "
            "through a norm-preserving lifted realization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["run", *list(_STAGE_COMMANDS), "report"]:
        p = sub.add_parser(name, help=f"{name} stage" if name != "run" else "full pipeline")
        p.add_argument("--config", required=True, help="path to the pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--orders",
            default=None,
            help="comma-separated reduction orders, e.g. 1,2,4",
        )
        p.add_argument("--slack", type=float, default=None, help="override the gain slack")
    return parser


def _config_from_args(args) -> PipelineConfig:
    overrides = {
        "seed": args.seed,
        "output_dir": args.out,
        "slack": args.slack,
    }
    if args.orders is not None:
        overrides["reduction_orders"] = [int(v) for v in args.orders.split(",") if v]
    return PipelineConfig.from_file(args.config, overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: unreadable config: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            _, code = run_pipeline(config)
            return code
        if args.command == "report":
            _, code = stage_report(config)
            return code
        _STAGE_COMMANDS[args.command](config)
        return 0
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError, KeyError,
        # MinimalityError and SlackViolationError are ValueErrors;
        # StiffnessError, hinf_norm's bracket failure and a dead probe-signal
        # worker are RuntimeErrors;
        # expression systems evaluate in Python floats and raise
        # ZeroDivisionError or OverflowError; an unwritable output directory
        # raises an OSError, caught only after MissingArtifactError above
        RuntimeError, ArithmeticError, OSError,
    ) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
