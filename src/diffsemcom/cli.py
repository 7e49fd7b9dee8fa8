"""Command-line interface.

Subcommands: verify-prop1, sweep, ablate, train.
Exit codes: 0 success, 1 tolerance failure, 2 configuration error,
3 runtime error.  The output directory is --out, else the config file's
``[output] directory``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import parse_config
from .errors import ConfigError, FieldError
from . import harness


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the experiment config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker pool size for grid cells (at most one per seed and per usable CPU)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diffsemcom",
        description="Simulator for diffusion-based semantic communication over AWGN channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-prop1", help="Monte-Carlo check of the noise budget")
    _add_common(p)

    p = sub.add_parser("sweep", help="SNR x seed grid of the pipeline and its baseline")
    _add_common(p)
    p.add_argument("--plot", choices=("on", "off"), default=None,
                   help="emit SVG line charts")

    p = sub.add_parser("ablate", help="split/depth ablation grid at channel.snr_db")
    _add_common(p)

    p = sub.add_parser("train", help="train the MLP denoiser")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        run = {key: getattr(args, key) for key in ("seed", "jobs")
               if getattr(args, key) is not None}
        sweep = {"plot": args.plot == "on"} if getattr(args, "plot", None) else {}
        cfg = replace(cfg, run=replace(cfg.run, **run), sweep=replace(cfg.sweep, **sweep))
        out_dir = args.out or cfg.output.directory
    except (ConfigError, FieldError) as exc:  # FieldError: a bad --seed or --jobs
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify-prop1":
            code, _report = harness.cmd_verify_prop1(cfg, out_dir)
            return code
        if args.command == "sweep":
            _rows, csv_path = harness.cmd_sweep(cfg, out_dir)
            print(f"wrote {csv_path}")
            return 0
        if args.command == "ablate":
            _rows, csv_path = harness.cmd_ablate(cfg, out_dir)
            print(f"wrote {csv_path}")
            return 0
        if args.command == "train":
            ckpt, loss_csv = harness.cmd_train(cfg, out_dir)
            print(f"wrote {ckpt} and {loss_csv}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
