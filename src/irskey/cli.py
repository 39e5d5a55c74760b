"""Command-line entry point: skr, baseline, train, sweep, mc-check."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments, neural
from .baseline import baseline_design, waterfill_design
from .channel import SystemConfig, channel_statistics, mw_to_dbm
from .errors import ConfigError, NumericalError
from .skr import skr_closed_form, skr_monte_carlo

__all__ = ["main", "run", "EXIT_OK", "EXIT_CONFIG", "EXIT_NUMERICAL", "EXIT_IO"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # Argument mistakes are configuration errors; keep exit codes under our control.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="irskey", description="Secret key rate toolkit for surface-assisted probing.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p):
        p.add_argument("--config", default=None, help="INI file with [system]/[train]/[sweep] sections")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default=".", help="directory for output artifacts")

    p_skr = sub.add_parser("skr", help="evaluate the key rate of one probing design")
    common(p_skr)
    p_skr.add_argument("--method", choices=experiments.METHODS, default="baseline")
    p_skr.add_argument("--checkpoint", default=None, help="trained checkpoint (pkg_net method)")
    p_skr.add_argument("--trials", type=int, default=100, help="averaging draws for the random method")

    p_base = sub.add_parser("baseline", help="run the water-filling design and report it")
    common(p_base)

    p_train = sub.add_parser("train", help="train the probing network")
    common(p_train)

    p_sweep = sub.add_parser("sweep", help="run the sweep from the [sweep] config section")
    common(p_sweep)
    p_sweep.add_argument("--checkpoints", default=None, help="directory of pre-trained checkpoints")

    p_mc = sub.add_parser("mc-check", help="compare the closed form against Monte Carlo")
    common(p_mc)
    p_mc.add_argument("--samples", type=int, default=200_000)
    p_mc.add_argument("--batches", type=int, default=10)

    return parser


def _load(args) -> tuple[SystemConfig, neural.TrainConfig, experiments.SweepSpec | None]:
    """The config file's three sections (defaults without ``--config``), with ``--seed`` applied."""
    if args.config is None:
        system, train_cfg, spec = SystemConfig(), neural.TrainConfig(), None
    else:
        system, train_cfg, spec = experiments.load_experiment_config(args.config)
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
        spec = spec if spec is None else dataclasses.replace(spec, seed=args.seed)
    return system, train_cfg, spec


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_skr(args) -> int:
    system, _, _ = _load(args)
    stats = channel_statistics(system)
    if args.method == "pkg_net" and args.checkpoint is None:
        raise ConfigError("pkg_net method needs --checkpoint")
    rng = np.random.default_rng(args.seed or 0)
    [(bits, std_error)] = experiments._methods_bits(
        (args.method,), system, stats, rng, args.trials, lambda: neural.load_checkpoint(args.checkpoint, system)[0]
    )
    out_dir = _ensure_out(args)
    payload = {
        "method": args.method,
        "skr_bits": bits,
        "std_error": std_error,
        "M": system.M,
        "L": system.L,
        "power_a_dbm": mw_to_dbm(system.power_a),
        "power_b_dbm": mw_to_dbm(system.power_b),
        "eta": system.eta,
        "ue_position": list(system.pos_ue),
    }
    _write_json(os.path.join(out_dir, "skr.json"), payload)
    print(f"skr[{args.method}] = {bits!r} bits/probe")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    system, _, _ = _load(args)
    stats = channel_statistics(system)
    design, result = waterfill_design(system, stats)
    bits = skr_closed_form(design, stats, system.power_b, system.noise).bits
    out_dir = _ensure_out(args)
    payload = {
        "skr_bits": bits,
        "objective_bits": result.objective_bits,
        "water_level": result.water_level,
        "mode_powers": [float(q) for q in result.mode_powers],
        "M": system.M,
        "L": system.L,
    }
    _write_json(os.path.join(out_dir, "baseline.json"), payload)
    print(f"baseline skr = {bits!r} bits/probe over {system.M} modes")
    return EXIT_OK


def _cmd_train(args) -> int:
    system, train_cfg, _ = _load(args)
    out_dir = _ensure_out(args)
    history_rows = []

    def progress(epoch: int, mean_loss_bits: float, wall_seconds: float) -> None:
        history_rows.append((epoch, mean_loss_bits, wall_seconds))

    params, history = neural.train(train_cfg, system, progress=progress)
    ckpt_path = os.path.join(out_dir, experiments.checkpoint_name(system))
    neural.save_checkpoint(ckpt_path, params, seed=train_cfg.seed)
    hist_path = os.path.join(out_dir, "train_history.csv")
    with open(hist_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,mean_loss_bits,wall_seconds\n")
        for epoch, loss_bits, wall in history_rows:
            fh.write(f"{epoch},{loss_bits!r},{wall!r}\n")
    print(f"trained {train_cfg.epochs} epochs; final mean loss {history[-1]!r} bits; wrote {ckpt_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    system, train_cfg, spec = _load(args)
    if spec is None:
        raise ConfigError("sweep needs a config file with a [sweep] section")
    result = experiments.run_sweep(spec, system, train_cfg, checkpoint_dir=args.checkpoints)
    out_dir = _ensure_out(args)
    csv_path = os.path.join(out_dir, "sweep.csv")
    experiments.write_csv(result, csv_path)
    experiments.write_plot_script(result, os.path.join(out_dir, "sweep_plot.py"))
    print(f"sweep over {spec.variable}: wrote {len(result.rows)} rows to {csv_path}")
    return EXIT_OK


def _cmd_mc_check(args) -> int:
    system, _, _ = _load(args)
    stats = channel_statistics(system)
    design = baseline_design(system, stats)
    closed = skr_closed_form(design, stats, system.power_b, system.noise)
    mc = skr_monte_carlo(
        design,
        stats,
        system.power_b,
        system.noise,
        n_samples=args.samples,
        rng=np.random.default_rng(args.seed or 0),
        n_batches=args.batches,
    )
    gap = abs(closed.bits - mc.bits)
    within = bool(gap <= 2.0 * mc.std_error)
    out_dir = _ensure_out(args)
    payload = {
        "closed_form_bits": closed.bits,
        "monte_carlo_bits": mc.bits,
        "std_error": mc.std_error,
        "abs_gap": gap,
        "within_two_std_errors": within,
        "n_samples": args.samples,
    }
    _write_json(os.path.join(out_dir, "mc_check.json"), payload)
    print(
        f"closed {closed.bits!r} vs mc {mc.bits!r} (se {mc.std_error!r}): "
        + ("CONSISTENT" if within else "DISAGREE")
    )
    return EXIT_OK


_COMMANDS = {
    "skr": _cmd_skr,
    "baseline": _cmd_baseline,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "mc-check": _cmd_mc_check,
}


def run(argv=None) -> int:
    """Parse and execute; raises on failure (see ``main`` for exit codes)."""
    args = _build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    """Entry point mapping failures onto stable exit codes.

    0 success, 1 configuration error, 2 numerical failure, 3 I/O error.
    Float overflow, invalid operations and division by zero raise (exit 2); underflow does not.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
