"""Command-line experiment runner.

Exit codes: 0 on full success, 1 on configuration errors (an output
directory that cannot be made among them), 2 when some trials failed but
the run completed. A trial fails when it raises, or when its pool worker
dies also on a rerun alone in a fresh pool; its traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .config import build_experiment_config, parse_config_file
from .experiment import make_out_dir, run_experiment, sweep_config, worker_count


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="srs", description="Simultaneous reconstruction and "
                                             "segmentation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run the resolution sweep")
    _common_flags(sweep_p)
    sweep_p.add_argument("--sides", required=True,
                         help="comma-separated grid sides, e.g. 64,128,256")
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--phantom", choices=("piecewise", "smooth"))
    p.add_argument("--n", type=int, dest="grid_side", help="grid side in pixels")
    p.add_argument("--noise", type=float, dest="noise_level")
    p.add_argument("--variant", choices=("model-9", "model-16"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--pgm-binary", action="store_true", default=None,
                   dest="pgm_binary", help="write P5 instead of P2 images")


def _report_lines(report) -> str:
    cfg = report.config
    return (f"{cfg.phantom} n={cfg.grid_side} {cfg.variant} trials={cfg.trials}: "
            f"rec_err={report.mean_rec_err:.4f} seg_err={report.mean_seg_err:.4f} "
            f"mean_seconds={report.mean_seconds:.2f} failed={report.n_failed}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config", "sides") and v is not None}
        cfg = build_experiment_config(file_values, overrides)
        worker_count()  # a bad SRS_THREADS fails here, before any trial runs
        configs = [cfg]
        if args.command == "sweep":
            sides = [int(s) for s in args.sides.split(",") if s.strip()]
            if not sides:
                raise ValueError("--sides must list at least one grid side")
            configs = [sweep_config(cfg, side) for side in sides]
        for c in configs:  # a bad --out fails before any trial
            make_out_dir(c)
    except (_CliError, ValueError, OSError) as exc:
        print(f"srs: configuration error: {exc}", file=sys.stderr)
        return 1

    reports = [run_experiment(c) for c in configs]
    for report in reports:
        print(_report_lines(report))
    if any(r.n_failed for r in reports):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
