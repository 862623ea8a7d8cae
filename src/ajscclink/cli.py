"""Command-line entry points.

Subcommands: simulate (one link run), sweep (MSE vs. level count),
reproduce (figure/table datasets), staircase (encoder transfer curve).
Exit codes: 0 success, 2 configuration error, 3 runtime/stage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from .analysis import write_peaks_csv
from .codec import AjsccParams, staircase
from .errors import ConfigError
from .harness import (
    EXPERIMENT_IDS,
    RunConfig,
    load_config,
    reproduce,
    run_link,
    sweep_levels,
    write_report_json,
    write_staircase_csv,
    write_sweep_csv,
)

_CHANNEL_NAMES = {
    "awgn": "awgn",
    "flat": "flat_rayleigh",
    "jtc-indoor": "jtc_indoor_a",
    "jtc-outdoor": "jtc_outdoor_low_a",
}


def _parse_levels(text: str) -> list[int]:
    """Accept 'start:stop:step' (inclusive stop) or a comma list."""
    try:
        if ":" not in text:
            return [int(v) for v in text.split(",") if v]
        parts = [int(v) for v in text.split(":")]
    except ValueError:
        raise ConfigError(f"bad level list {text!r}; expected integers") from None
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad level range {text!r}; expected start:stop[:step]")
    start, stop, step = (parts + [1])[:3]
    if step <= 0 or stop < start:
        raise ConfigError(f"bad level range {text!r}")
    return list(range(start, stop + 1, step))


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--duration", type=float, help="source duration in seconds")
    parser.add_argument("--profile", choices=("fast", "slow"))
    parser.add_argument("--channel", choices=sorted(_CHANNEL_NAMES))
    parser.add_argument("--csnr-db", type=float, help="CSNR in dB, or 'inf'")
    parser.add_argument("--doppler-hz", type=float)
    parser.add_argument("--no-interp", action="store_false", dest="interpolate", default=None,
                        help="raw FFT-bin frequency readout")
    parser.add_argument("--out", default=".", help="output directory")


# (flag's argparse dest, RunConfig field) of each run override: a flag that is
# given replaces the config's field.  Only simulate has a level-count flag.
_OVERRIDES = (
    ("seed", "seed"), ("duration", "duration"), ("profile", "profile"),
    ("channel", "channel_family"), ("csnr_db", "csnr_db"), ("doppler_hz", "doppler_hz"),
    ("interpolate", "interpolate"), ("levels", "levels"),
)


def _build_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    updates = {f: getattr(args, d) for d, f in _OVERRIDES if getattr(args, d, None) is not None}
    if "channel_family" in updates:
        updates["channel_family"] = _CHANNEL_NAMES[updates["channel_family"]]
    return dataclasses.replace(config, **updates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ajscclink")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one link simulation")
    _add_run_overrides(p_sim)
    p_sim.add_argument("--levels", type=int)

    p_sweep = sub.add_parser("sweep", help="sweep the number of coding levels")
    _add_run_overrides(p_sweep)
    p_sweep.add_argument("--levels", dest="level_list", metavar="LEVELS", default="5:100:5",
                         help="range start:stop:step or comma list")

    p_rep = sub.add_parser("reproduce", help="regenerate a figure/table dataset")
    p_rep.add_argument("--id", required=True, choices=EXPERIMENT_IDS)
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--duration", type=float, default=20.0)
    p_rep.add_argument("--out", default=".")

    p_stair = sub.add_parser("staircase", help="emit the encoder transfer curve")
    p_stair.add_argument("--levels", type=int, default=16)
    p_stair.add_argument("--x1", type=float, help="fixed x1 (defaults to mid-scale)")
    p_stair.add_argument("--x1-max", type=float, default=2.25)
    p_stair.add_argument("--x2-max", type=float, default=3.0)
    p_stair.add_argument("--points", type=int, default=4096)
    p_stair.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        out = pathlib.Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError, PermissionError) as exc:
            raise ConfigError(f"cannot use output directory {out}: {exc.strerror}") from exc

        if args.command == "simulate":
            config = _build_config(args)
            report = run_link(config)
            write_report_json(report, out / "run_report.json")
            write_peaks_csv(report.source_peaks, out / "peaks_source.csv")
            write_peaks_csv(report.receiver_peaks, out / "peaks_receiver.csv")
            print(f"mse_x1={report.mse.mse_x1:.6g} mse_x2={report.mse.mse_x2:.6g} "
                  f"peaks={len(report.source_peaks)}/{len(report.receiver_peaks)}")
            print(f"wrote {out / 'run_report.json'}")

        elif args.command == "sweep":
            l_values = _parse_levels(args.level_list)
            if not l_values:
                print("empty level list; nothing to do")
                return 0
            config = _build_config(args)
            reports = sweep_levels(config, l_values)
            write_sweep_csv(reports, out / "sweep.csv")
            print(f"wrote {out / 'sweep.csv'} ({len(reports)} points)")

        elif args.command == "reproduce":
            written = reproduce(args.id, out, seed=args.seed, duration=args.duration)
            for path in written:
                print(f"wrote {path}")

        elif args.command == "staircase":
            params = AjsccParams(levels=args.levels, x1_max=args.x1_max, x2_max=args.x2_max)
            x1 = args.x1 if args.x1 is not None else params.x1_max / 2
            curve = staircase(params, x1_fixed=x1, n_points=args.points)
            write_staircase_csv(curve, out / "staircase.csv")
            print(f"wrote {out / 'staircase.csv'}")

    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
