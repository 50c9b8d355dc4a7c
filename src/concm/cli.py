"""Command-line interface.

Commands:
  concm gen --config <gen.json> --out <dir>      generate a synthetic benchmark
  concm run --manifest <m> --config <c> --strategy <s> --seed <n> --out <dir>
  concm report <report.json>                     pretty-print a run report

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 I/O error.
The CONCM_LOG environment variable (error | info | debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .data import load_config
from .errors import ConcmError, InvalidConfig, ValidationError
from .metrics import format_report_table, load_report, report_to_csv, report_to_json
from .session import STRATEGIES, SessionConfig, run_from_files
from .synth import GenConfig, generate_benchmark, write_benchmark

logger = logging.getLogger("concm.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _setup_logging(out_dir: Path | None = None) -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("CONCM_LOG", "error"))
    if level is None:
        raise InvalidConfig("CONCM_LOG must be one of error, info, debug")
    fmt = logging.Formatter("%(levelname)s %(name)s: %(message)s")
    root = logging.getLogger("concm")
    root.setLevel(logging.DEBUG)
    for handler in root.handlers[:]:
        root.removeHandler(handler)
        handler.close()
    stream = logging.StreamHandler(sys.stderr)
    stream.setLevel(level)
    stream.setFormatter(fmt)
    root.addHandler(stream)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        fh = logging.FileHandler(out_dir / "run.log", mode="w", encoding="utf-8")
        fh.setLevel(logging.INFO)
        fh.setFormatter(fmt)
        root.addHandler(fh)


def _suggested_run_config(cfg: GenConfig) -> dict:
    """Run config tuned for the synthetic benchmark scale."""
    run = SessionConfig(way=cfg.way, shot=cfg.shot, sessions=cfg.sessions,
                        base_classes=cfg.base_classes,
                        d_g=max(cfg.d_f, cfg.total_classes + 1),
                        lr_projector=0.5, epochs_base=30, epochs_incremental=15,
                        meta_episodes=1000, seed=cfg.seed)
    run.validate()
    return dataclasses.asdict(run)


def cmd_gen(args) -> int:
    cfg = GenConfig() if args.config is None else load_config(GenConfig, args.config)
    out = Path(args.out)
    bench = generate_benchmark(cfg)
    manifest_path = write_benchmark(bench, out)
    (out / "config.json").write_text(
        json.dumps(_suggested_run_config(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    logger.info("benchmark written under %s", out)
    print(manifest_path)
    return EXIT_OK


def cmd_run(args) -> int:
    out = Path(args.out)
    _setup_logging(out)
    result = run_from_files(args.manifest, args.config, strategy=args.strategy,
                            seed=args.seed)
    (out / "report.json").write_text(report_to_json(result.report),
                                     encoding="utf-8")
    (out / "report.csv").write_text(report_to_csv(result.report),
                                    encoding="utf-8")
    print(format_report_table(result.report), end="")
    return EXIT_OK


def cmd_report(args) -> int:
    report = load_report(args.path)
    print(format_report_table(report), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="concm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic benchmark")
    p_gen.add_argument("--config", help="generator config JSON (defaults used if omitted)")
    p_gen.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="run the full incremental pipeline")
    p_run.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_run.add_argument("--config", help="session config JSON (defaults used if omitted)")
    p_run.add_argument("--strategy", default="concm", choices=STRATEGIES)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", required=True, help="output directory")

    p_rep = sub.add_parser("report", help="pretty-print a report JSON")
    p_rep.add_argument("path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            _setup_logging()
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        _setup_logging()
        return cmd_report(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        _error_record(exc)
        return EXIT_VALIDATION
    except OSError as exc:
        _error_record(exc)
        return EXIT_IO
    except (ConcmError, ValueError, MemoryError) as exc:
        _error_record(exc)
        return EXIT_RUNTIME


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
