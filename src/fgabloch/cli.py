"""Command-line front end.

Commands: bands, decompose, propagate, reference, convergence, report.
Shared flags: --config PATH, --set section.key=value (repeatable),
--out DIR.

Exit codes: 0 success, 2 configuration error, 3 numeric or invariant
failure, 4 resource refusal.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, RunReport
from .errors import ConfigError, FgaError, ResourceLimitError
from . import pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

_COMMANDS = {
    "bands": pipeline.cmd_bands,
    "decompose": pipeline.cmd_decompose,
    "propagate": pipeline.cmd_propagate,
    "reference": pipeline.cmd_reference,
    "convergence": pipeline.cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgabloch",
        description="Frozen Gaussian propagation on Bloch bands with a "
                    "Bloch-decomposition reference solver and convergence harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("bands", "band structure, gauge fixing and gap report"),
            ("decompose", "windowed Bloch decomposition of the initial field"),
            ("propagate", "FGA propagation with checkpoint wave fields"),
            ("reference", "fine-grid Bloch-decomposition reference run"),
            ("convergence", "FGA-vs-reference error table over an eps ladder")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config value, e.g. numerics.dt=5e-4")
        p.add_argument("--out", default=None, help="output directory")
    p = sub.add_parser("report", help="validate and summarize a run report")
    p.add_argument("path", help="report file to read")
    return parser


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            cfg = RunConfig.from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    cfg.apply_overrides(args.set)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _cmd_report(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    report = RunReport.from_text(text)
    if RunReport.from_text(report.to_text()) != report:
        print("report round-trip FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"report: {args.path}")
    for sect in ("meta", "monitors", "errors", "timings", "work"):
        if sect not in report.sections:
            continue
        print(f"[{sect}]")
        for key, val in report.sections[sect].items():
            print(f"  {key} = {val}")
    print("round-trip: ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        cfg = _load_config(args)
        report = _COMMANDS[args.command](cfg)
        status = report.sections.get("errors", {}).get("status")
        if status == "FAIL":
            print(f"{args.command}: FAIL (see report)", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"{args.command}: ok")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FgaError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
