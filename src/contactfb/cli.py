"""Command-line entry point.

Subcommands:
  validate   check a config file and print the defaulted parameters
  run        execute a verification suite and write report artifacts
  classify   classify points against a serialized push-out construction
  plan-path  print a piecewise-polynomial horizontal path between points

Exit code is 0 only when every executed check passed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
from dataclasses import fields

from .contact import ContactPoint, chow_path
from .experiment import (
    ConfigError,
    SUITES,
    run_experiment,
    validate_config,
)
from .fatou_bieberbach import load_state, omega_membership


def _parse_point(text: str) -> ContactPoint:
    """Comma-separated finite complex coordinates, e.g. '0,0,1' or
    '1+2j,0,0'."""
    coords = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    for j, c in enumerate(coords):
        if not cmath.isfinite(c):
            raise ValueError(f"coordinate {j} is not finite")
    return ContactPoint.from_flat(coords)


def _cmd_validate(args) -> int:
    try:
        cfg = validate_config(args.config)
    except (ConfigError, OSError) as e:
        print(f"config invalid: {e}", file=sys.stderr)
        return 2
    # restarts and iterations stay on the config but no config sets them
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg)
           if f.name not in ("raw", "restarts", "iterations")}
    out["config_hash"] = cfg.config_hash()
    print(json.dumps(out, indent=1, default=str))
    return 0


def _cmd_run(args) -> int:
    try:
        cfg = validate_config(args.config)
    except (ConfigError, OSError) as e:
        print(f"config invalid: {e}", file=sys.stderr)
        return 2
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            print(f"out invalid: {args.out}: {e.strerror}", file=sys.stderr)
            return 2
    report = run_experiment(cfg, args.suite, out_dir=args.out)
    for c in sorted(report.checks, key=lambda c: c.name):
        status = "PASS" if c.verdict else "FAIL"
        print(f"{status} {c.name} value={c.value:.6g} "
              f"margin={c.margin:.6g} t={c.runtime:.2f}s")
    print(f"suite={report.suite} hash={report.config_hash} "
          f"passed={report.passed}")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    try:
        state = load_state(args.state)
    except (ValueError, OSError) as e:
        print(f"state invalid: {e}", file=sys.stderr)
        return 2
    try:
        with open(args.points, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, rec) for rec in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        print(f"points invalid: {e}", file=sys.stderr)
        return 2
    verdicts = []
    for line_num, rec in rows:
        if not rec or rec[0].startswith("#"):
            continue
        try:
            coords = [complex(tok.replace(" ", "")) for tok in rec]
            if len(coords) != state.dim:
                raise ValueError(f"expected {state.dim} coordinates, "
                                 f"got {len(coords)}")
            verdicts.append(omega_membership(state, coords))
        except (ValueError, OverflowError) as e:
            print(f"row {line_num} {rec!r}: {e}", file=sys.stderr)
            return 2
    writer = csv.writer(sys.stdout)
    writer.writerow(["point_index", "classification"])
    for idx, verdict in enumerate(verdicts):
        writer.writerow([idx, verdict])
    return 0


def _cmd_plan_path(args) -> int:
    try:
        p = _parse_point(getattr(args, "from"))
        q = _parse_point(args.to)
    except ValueError as e:
        print(f"invalid point: {e}", file=sys.stderr)
        return 2
    if p.n != q.n:
        print("endpoints must have the same dimension", file=sys.stderr)
        return 2
    try:
        plan = chow_path(p, q)
        doc = {
            "segments": [
                {"components": [[repr(c.real) + "+" + repr(c.imag) + "j"
                                 for c in comp.coeffs]
                                for comp in seg.components]}
                for seg in plan.segments
            ],
            "endpoint": [repr(c) for c in plan.endpoint().flat()]
            if plan.segments else [repr(c) for c in p.flat()],
        }
    except OverflowError:
        print("invalid point: the path between the points leaves float "
              "range", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactfb",
        description="certified contact-geometry experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run a verification suite")
    p_run.add_argument("--suite", choices=SUITES, default="all")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="directory for report and data artifacts")
    p_run.set_defaults(func=_cmd_run)

    p_cls = sub.add_parser("classify",
                           help="classify points against a saved construction")
    p_cls.add_argument("--state", required=True,
                       help="serialized push-out state JSON")
    p_cls.add_argument("--points", required=True,
                       help="CSV of complex coordinates, one point per row")
    p_cls.set_defaults(func=_cmd_classify)

    p_path = sub.add_parser("plan-path",
                            help="horizontal path between two points")
    p_path.add_argument("--from", required=True, dest="from",
                        help="comma-separated complex coordinates")
    p_path.add_argument("--to", required=True)
    p_path.set_defaults(func=_cmd_plan_path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
