"""Command-line entry point.

Each subcommand runs one scenario from a config file and writes its artifacts
under --out.  Exit codes: 0 on success, 1 when a numerical record failed, 2
for configuration errors (found at load, before --out is made; the key is named).
"""

from __future__ import annotations

import argparse
import sys

from .config import SCENARIOS, ConfigError, describe_schema, load_config
from .runner import run_scenario

_EPILOG = """config file keys (with defaults):

%s""" % describe_schema()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pulsefront",
        description=("Pulsating-front laboratory for periodic bistable "
                     "reaction-diffusion equations"),
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="scenario", required=True)
    helps = {
        "front": "compute one pulsating front and classify it",
        "homogenize": "small-period sweep against the averaged front",
        "eigen": "principal eigenvalue trace around a steady state",
        "steady": "find and classify periodic steady states",
        "scan-e": "classify fronts over a grid of periods",
        "stability": "phase/rate experiment for a front-like datum",
        "decay": "exponential tail-rate root solve",
        "quench-scan": "oscillating-diffusivity pinning scan over amplitudes",
    }
    for name in SCENARIOS:
        p = sub.add_parser(name, help=helps.get(name, name))
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.scenario)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(cfg, args.out)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for line in result.summary_lines:
        print(line)
    for art in result.artifacts:
        print(f"wrote {art}")
    if result.failures:
        for f in result.failures:
            print(f"FAILED: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
