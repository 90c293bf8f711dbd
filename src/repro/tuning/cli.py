"""Command-line entry point: ``python -m repro.tuning``.

Subcommands
-----------

``calibrate``
    Run the micro-calibration engine and persist the resulting
    :class:`~repro.tuning.HardwareProfile` (default: the user cache dir;
    ``--out`` overrides, ``--dry-run`` skips persisting). ``--quick``
    selects the CI-sized plan.
``show``
    Load, verify, and pretty-print an existing profile.
``path``
    Print the path the library would read the profile from.

Exit status: ``0`` success, ``2`` bad invocation or unusable profile.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..exceptions import ProfileError
from .calibrate import CalibrationOptions, calibrate
from .profile import default_profile_path, load_profile, save_profile

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="Measured hardware calibration for scheduling decisions.",
    )
    sub = parser.add_subparsers(dest="command")

    cal = sub.add_parser(
        "calibrate", help="measure this machine and persist a HardwareProfile"
    )
    cal.add_argument(
        "--quick", action="store_true", help="CI-sized plan (seconds, 2 reps)"
    )
    cal.add_argument("--seed", type=int, default=0, help="calibration RNG seed")
    cal.add_argument(
        "--reps",
        type=int,
        default=None,
        help="timing repetitions per quantity (default: 3, or 2 with --quick)",
    )
    cal.add_argument(
        "--out",
        type=Path,
        default=None,
        help="profile destination (default: the user cache dir)",
    )
    cal.add_argument(
        "--dry-run",
        action="store_true",
        help="print the profile JSON without persisting it",
    )

    show = sub.add_parser("show", help="verify and print an existing profile")
    show.add_argument(
        "--path",
        type=Path,
        default=None,
        help="profile to read (default: the active default path)",
    )

    sub.add_parser("path", help="print the default profile path")
    return parser


def _run_calibrate(args: argparse.Namespace) -> int:
    options = (
        CalibrationOptions.quick_options(seed=args.seed)
        if args.quick
        else CalibrationOptions(seed=args.seed)
    )
    if args.reps is not None:
        if args.reps < 1:
            print("repro.tuning: error: --reps must be >= 1", file=sys.stderr)
            return 2
        options = CalibrationOptions(
            seed=options.seed,
            reps=args.reps,
            lengths=options.lengths,
            metrics=options.metrics,
            n_series=options.n_series,
            serving_batches=options.serving_batches,
            quick=options.quick,
        )
    profile = calibrate(options=options)
    body = profile.body_dict()
    body["checksum"] = profile.checksum()
    if args.dry_run:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    destination = save_profile(profile, args.out)
    print(f"wrote hardware profile to {destination}")
    print(
        "  cpu_count={cpu}  process_spawn={spawn:.4f}s  "
        "serving max_batch={batch}".format(
            cpu=profile.cpu_count,
            spawn=profile.overheads["process_spawn_s"],
            batch=profile.serving_max_batch,
        )
    )
    return 0


def _run_show(args: argparse.Namespace) -> int:
    path = args.path or default_profile_path()
    try:
        profile = load_profile(path)
    except ProfileError as exc:
        print(f"repro.tuning: error: {exc}", file=sys.stderr)
        return 2
    body = profile.body_dict()
    body["checksum"] = profile.checksum()
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "calibrate":
        return _run_calibrate(args)
    if args.command == "show":
        return _run_show(args)
    if args.command == "path":
        print(default_profile_path())
        return 0
    parser.print_help()
    return 2
