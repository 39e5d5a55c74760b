"""The benchmark workloads: generated inputs, the CLI call, and output checks.

Each workload is one ``irskey`` verb run in-process through
``irskey.cli.main``. Its constructor writes the inputs (INI files and, for
``sweep-l``, checkpoints) into a work directory; that is part of set-up. The
workload seed reaches the program only through those files and the
``mc-check --seed`` flag.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from irskey import ConfigError, SystemConfig, channel_statistics, baseline_design
from irskey import neural
from irskey.experiments import checkpoint_name
from irskey.probing import validate_design

from oracle import gaussian_mi_bits

ORACLE_RTOL = 1e-9
# The CLI's standard error is a 10-batch estimate, so gap / SE follows roughly
# a t distribution with 9 degrees of freedom, not a normal one: over seeds
# 0-99 its spread was 1.30 and one seed reached 4.45, so a 4-SE bound fails
# about 1% of seeds by chance. 6.6 is the two-sided 1e-4 quantile of t(9).
MC_MAX_STD_ERRORS = 6.6


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _oracle_baseline_bits(system: SystemConfig) -> float:
    stats = channel_statistics(system)
    design = baseline_design(system, stats)
    return gaussian_mi_bits(design.precoder, design.phases, stats, system.power_b, system.noise)


class SweepL:
    """``irskey sweep`` over the surface size L at M = 8 with saved checkpoints.

    The SKR-vs-L figure of the paper: dense covariances up to 1160², about
    510 closed-form evaluations per call, five points on the sweep pool.
    """

    name = "sweep-l"
    item = "sweep_points"
    M = 8
    VALUES = (16, 36, 64, 100, 144)
    METHODS = ("pkg_net", "baseline", "random")
    TRIALS = 100
    items_per_op = len(VALUES)

    def __init__(self, workdir: str, seed: int) -> None:
        self.config = _write(
            os.path.join(workdir, "sweep.ini"),
            f"[system]\nm = {self.M}\n\n"
            "[sweep]\nvariable = l\n"
            f"values = {', '.join(str(v) for v in self.VALUES)}\n"
            f"methods = {', '.join(self.METHODS)}\n"
            f"trials = {self.TRIALS}\nseed = {seed}\n",
        )
        self.checkpoints = os.path.join(workdir, "checkpoints")
        os.makedirs(self.checkpoints)
        for system in self._systems():
            params = neural.init_params(system.M, system.L, np.random.default_rng([seed, system.L]))
            neural.save_checkpoint(
                os.path.join(self.checkpoints, checkpoint_name(system)), params, seed=seed
            )
        self._oracle = None

    def _systems(self):
        for value in self.VALUES:
            side = math.isqrt(value)
            yield SystemConfig(M=self.M, L_h=side, L_v=side)

    def argv(self, out_dir: str) -> list:
        return ["sweep", "--config", self.config, "--checkpoints", self.checkpoints, "--out", out_dir]

    def check(self, out_dir: str) -> list:
        if self._oracle is None:
            self._oracle = [_oracle_baseline_bits(s) for s in self._systems()]
        with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        errors = []
        if records[:1] != [["variable", "value", "method", "skr_bits", "std_error"]]:
            errors.append(f"sweep.csv header {records[:1]}")
        expected = [(v, m) for v in self.VALUES for m in self.METHODS]
        rows = records[1:]
        if len(rows) != len(expected):
            return errors + [f"sweep.csv has {len(rows)} rows, expected {len(expected)}"]
        for rec, (value, method) in zip(rows, expected):
            if len(rec) != 5 or rec[0] != "l" or float(rec[1]) != value or rec[2] != method:
                errors.append(f"sweep row {rec} where (l, {value}, {method}) was expected")
                continue
            bits = float(rec[3])
            if not (math.isfinite(bits) and bits >= 0.0):
                errors.append(f"sweep {method} at L={value}: skr_bits {bits}")
            if method == "random":
                se = float(rec[4]) if rec[4] else math.nan
                if not (math.isfinite(se) and se >= 0.0):
                    errors.append(f"sweep random at L={value}: std_error {rec[4]!r}")
            if method == "baseline":
                reference = self._oracle[self.VALUES.index(value)]
                if _rel_gap(bits, reference) > ORACLE_RTOL:
                    errors.append(f"sweep baseline at L={value}: {bits!r} vs oracle {reference!r}")
        return errors


class Train:
    """``irskey train`` at the paper size: 20 epochs of 10 Adam steps of batch 100."""

    name = "train"
    item = "train_steps"
    EPOCHS = 20
    SAMPLES = 1000
    BATCH = 100
    items_per_op = EPOCHS * SAMPLES // BATCH

    def __init__(self, workdir: str, seed: int) -> None:
        self.system = SystemConfig(M=4, L_h=5, L_v=5)
        self.config = _write(
            os.path.join(workdir, "train.ini"),
            "[system]\nm = 4\nl_h = 5\nl_v = 5\n\n"
            f"[train]\nepochs = {self.EPOCHS}\nsamples_per_epoch = {self.SAMPLES}\n"
            f"batch_size = {self.BATCH}\nseed = {seed}\n",
        )

    def argv(self, out_dir: str) -> list:
        return ["train", "--config", self.config, "--out", out_dir]

    def check(self, out_dir: str) -> list:
        errors = []
        with open(os.path.join(out_dir, "train_history.csv"), encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        if records[:1] != [["epoch", "mean_loss_bits", "wall_seconds"]]:
            errors.append(f"train_history.csv header {records[:1]}")
        rows = records[1:]
        if len(rows) != self.EPOCHS:
            errors.append(f"train history has {len(rows)} rows, expected {self.EPOCHS}")
        for i, rec in enumerate(rows):
            if len(rec) != 3 or rec[0] != str(i) or not all(math.isfinite(float(x)) for x in rec[1:]):
                errors.append(f"train history row {i}: {rec}")
        params, _ = neural.load_checkpoint(os.path.join(out_dir, checkpoint_name(self.system)))
        if (params.M, params.L) != (self.system.M, self.system.L):
            errors.append(f"checkpoint sized M={params.M}, L={params.L}")
            return errors
        design = neural.forward(params, self.system.pos_ue, self.system)
        try:
            validate_design(design, self.system.power_a)
        except ConfigError as exc:
            errors.append(f"trained design infeasible: {exc}")
        return errors


class McCheck:
    """``irskey mc-check`` at the paper size: 200k simulated probing rounds in 10 batches."""

    name = "mc-check"
    item = "mc_samples"
    SAMPLES = 200_000
    BATCHES = 10
    items_per_op = SAMPLES

    def __init__(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.system = SystemConfig(M=4, L_h=5, L_v=5)
        self.config = _write(os.path.join(workdir, "mc.ini"), "[system]\nm = 4\nl_h = 5\nl_v = 5\n")
        self._oracle = None

    def argv(self, out_dir: str) -> list:
        return [
            "mc-check", "--config", self.config, "--seed", str(self.seed),
            "--samples", str(self.SAMPLES), "--batches", str(self.BATCHES), "--out", out_dir,
        ]

    def check(self, out_dir: str) -> list:
        if self._oracle is None:
            self._oracle = _oracle_baseline_bits(self.system)
        with open(os.path.join(out_dir, "mc_check.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        errors = []
        closed, mc, se = report["closed_form_bits"], report["monte_carlo_bits"], report["std_error"]
        if _rel_gap(closed, self._oracle) > ORACLE_RTOL:
            errors.append(f"mc-check closed form {closed!r} vs oracle {self._oracle!r}")
        if not (math.isfinite(mc) and math.isfinite(se) and se > 0.0):
            errors.append(f"mc-check estimate {mc!r} with std error {se!r}")
        elif abs(closed - mc) > MC_MAX_STD_ERRORS * se:
            errors.append(f"mc-check gap {abs(closed - mc)!r} exceeds {MC_MAX_STD_ERRORS} x {se!r}")
        if report["n_samples"] != self.SAMPLES:
            errors.append(f"mc-check n_samples {report['n_samples']}")
        return errors


WORKLOADS = {w.name: w for w in (SweepL, Train, McCheck)}
