"""Reproducible experiment harness: sweeps, benchmarks, CSV and plot emission."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import neural
from ._blas import single_blas_thread
from .baseline import baseline_design
from .channel import (
    ChannelStatistics,
    SystemConfig,
    _parse_system_section,
    _read_ini,
    channel_statistics,
    dbm_to_mw,
)
from .errors import ConfigError
from .probing import ProbeDesign
from .skr import closed_form_bits, skr_closed_form

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "VARIABLES",
    "METHODS",
    "random_design",
    "random_design_bits",
    "run_sweep",
    "write_csv",
    "read_csv",
    "write_plot_script",
    "load_experiment_config",
    "checkpoint_name",
]

VARIABLES = ("m", "l", "power", "eta")
METHODS = ("pkg_net", "baseline", "random")

CSV_HEADER = "variable,value,method,skr_bits,std_error"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which knob to vary, over which points, with which methods."""

    variable: str
    values: tuple
    methods: tuple = ("baseline", "random")
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; pick from {VARIABLES}")
        if len(self.values) == 0:
            raise ConfigError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError(f"sweep values must be strictly increasing, got {self.values}")
        if self.variable in ("m", "l"):
            for val in self.values:
                if not (float(val).is_integer() and val >= 1):
                    raise ConfigError(f"{self.variable} values must be positive integers, got {val}")
        if self.variable == "l":
            for val in self.values:
                root = math.isqrt(int(val))
                if root * root != int(val):
                    raise ConfigError(f"surface sizes must be perfect squares, got {val}")
        if len(self.methods) == 0:
            raise ConfigError("sweep needs at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}; pick from {METHODS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"sweep seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    method: str
    skr_bits: float
    std_error: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


def _draw_designs(
    config: SystemConfig, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """``trials`` random designs as precoders [K, M, M] and phases [K, L].

    Each trial consumes ``rng`` as one ``random_design`` call always has: the
    real then the imaginary M x M Gaussian block (one fill of a [2, M, M]
    slot), then L uniform angles. Scaling onto the budget, the angles' 2π
    factor and the phase exponential run once over all trials.
    """
    m, l = config.M, config.L
    try:
        normals = np.empty((trials, 2, m, m))
        angles = np.empty((trials, l))
    except MemoryError as exc:
        raise ConfigError(f"{trials} random designs of M={m}, L={l} do not fit in memory") from exc
    for k in range(trials):
        rng.standard_normal(out=normals[k])
        rng.random(out=angles[k])
    angles *= 2.0 * np.pi  # uniform(0, 2π) is 0 + 2π·u, bit for bit
    raw = normals[:, 0] + 1j * normals[:, 1]
    raw *= np.sqrt(m * config.power_a / np.sum(np.abs(raw) ** 2, axis=(1, 2)))[:, None, None]
    return raw, np.exp(1j * angles)


def random_design(config: SystemConfig, rng: np.random.Generator) -> ProbeDesign:
    """Uniform random phases and an i.i.d. Gaussian precoder scaled onto the budget."""
    precoders, phases = _draw_designs(config, rng, 1)
    return ProbeDesign(precoder=precoders[0], phases=phases[0])


def random_design_bits(
    config: SystemConfig, stats: ChannelStatistics, rng: np.random.Generator, trials: int
) -> tuple[float, float | None]:
    """Mean closed-form SKR over ``trials`` random designs, and its standard error.

    The designs are drawn one after another from ``rng``, in the order of
    repeated ``random_design`` calls, and evaluated in one batched kernel call.
    The standard error is None for a single trial.
    """
    if trials < 1:
        raise ConfigError(f"random trials must be >= 1, got {trials}")
    precoders, phases = _draw_designs(config, rng, trials)
    draws = closed_form_bits(precoders, phases, stats, config.power_b, config.noise)
    std_error = float(draws.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return float(draws.mean()), std_error


def _override(base: SystemConfig, variable: str, value) -> SystemConfig:
    if variable == "m":
        return dataclasses.replace(base, M=int(value))
    if variable == "l":
        root = math.isqrt(int(value))
        return dataclasses.replace(base, L_h=root, L_v=root)
    if variable == "power":
        try:
            mw = dbm_to_mw(float(value))
        except OverflowError as exc:  # 10**(dBm/10) overflows past ~3080 dBm
            raise ConfigError(f"bad sweep power: {value} dBm") from exc
        return dataclasses.replace(base, power_a=mw, power_b=mw)
    if variable == "eta":
        return dataclasses.replace(base, eta=float(value))
    raise ConfigError(f"unknown sweep variable {variable!r}")


def checkpoint_name(config: SystemConfig) -> str:
    return f"pkgnet_M{config.M}_L{config.L}.ckpt"


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _pkg_net_bits(
    cfg: SystemConfig,
    stats,
    point_index: int,
    train_config: neural.TrainConfig,
    checkpoint_dir: str | None,
) -> float:
    if checkpoint_dir is not None:
        path = os.path.join(checkpoint_dir, checkpoint_name(cfg))
        if not os.path.isfile(path):
            raise ConfigError(f"missing checkpoint for M={cfg.M}, L={cfg.L}: {path}")
        params, _ = neural.load_checkpoint(path, cfg)
    else:
        seeded = dataclasses.replace(train_config, seed=_derived_seed(train_config.seed, point_index))
        params, _ = neural.train(seeded, cfg)
    design = neural.forward(params, cfg.pos_ue, cfg)
    return skr_closed_form(design, stats, cfg.power_b, cfg.noise).bits


def _evaluate_point(
    spec: SweepSpec,
    cfg: SystemConfig,
    index: int,
    train_config: neural.TrainConfig,
    checkpoint_dir: str | None,
) -> list:
    value = spec.values[index]
    stats = channel_statistics(cfg)
    rows = []
    for method in spec.methods:
        std_error = None
        if method == "baseline":
            design = baseline_design(cfg, stats)
            bits = skr_closed_form(design, stats, cfg.power_b, cfg.noise).bits
        elif method == "random":
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
            bits, std_error = random_design_bits(cfg, stats, rng, spec.trials)
        else:  # pkg_net
            bits = _pkg_net_bits(cfg, stats, index, train_config, checkpoint_dir)
        rows.append(
            SweepRow(
                variable=spec.variable,
                value=value,
                method=method,
                skr_bits=bits,
                std_error=std_error,
            )
        )
    return rows


def run_sweep(
    spec: SweepSpec,
    base_config: SystemConfig,
    train_config: neural.TrainConfig | None = None,
    checkpoint_dir: str | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Evaluate every (value, method) pair at the configured UE position.

    Sweep points are independent: each gets its own statistics and its own
    derived random stream, so results never depend on evaluation order. Points
    run on a small thread pool (at most one thread per CPU and per point) and
    rows are assembled in spec order. The pool runs OpenBLAS on one thread:
    it already keeps the cores busy and a point's products are small. A serial
    run (one point, one CPU or ``max_workers=1``) keeps the caller's BLAS
    thread count. The random method averages ``spec.trials`` draws; the neural
    method loads a per-(M, L) checkpoint from ``checkpoint_dir`` when given,
    otherwise trains inline with a per-point derived seed.
    """
    if train_config is None:
        train_config = neural.TrainConfig()
    configs = [_override(base_config, spec.variable, value) for value in spec.values]  # reject bad points first
    n_points = len(spec.values)
    workers = max_workers if max_workers is not None else min(n_points, os.cpu_count() or 1)
    if workers <= 1 or n_points == 1:
        per_point = [
            _evaluate_point(spec, configs[i], i, train_config, checkpoint_dir)
            for i in range(n_points)
        ]
    else:
        with single_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_evaluate_point, spec, configs[i], i, train_config, checkpoint_dir)
                for i in range(n_points)
            ]
            per_point = [f.result() for f in futures]
    rows = [row for point_rows in per_point for row in point_rows]
    return SweepResult(rows=tuple(rows))


def _format_number(x) -> str:
    return repr(int(x)) if float(x) == int(x) else repr(float(x))


def write_csv(result: SweepResult, path: str) -> None:
    """Deterministic CSV with the fixed header; empty std_error cells when absent."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for row in result.rows:
                writer.writerow(
                    [
                        row.variable,
                        _format_number(row.value),
                        row.method,
                        repr(float(row.skr_bits)),
                        "" if row.std_error is None else repr(float(row.std_error)),
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def read_csv(path: str) -> SweepResult:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER.split(","):
                raise ConfigError(f"unexpected CSV header in {path}: {header}")
            rows = []
            for rec in reader:
                if len(rec) != 5:
                    raise ConfigError(f"malformed CSV row in {path}: {rec}")
                rows.append(
                    SweepRow(
                        variable=rec[0],
                        value=float(rec[1]),
                        method=rec[2],
                        skr_bits=float(rec[3]),
                        std_error=None if rec[4] == "" else float(rec[4]),
                    )
                )
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path}: {exc}") from exc
    return SweepResult(rows=tuple(rows))


_PLOT_TEMPLATE = '''"""Plot SKR sweep results (generated file; requires matplotlib)."""

import matplotlib.pyplot as plt

ROWS = {rows!r}

XLABEL = {xlabel!r}

by_method = {{}}
for variable, value, method, skr_bits in ROWS:
    by_method.setdefault(method, ([], []))
    by_method[method][0].append(value)
    by_method[method][1].append(skr_bits)

fig, ax = plt.subplots()
for method in sorted(by_method):
    xs, ys = by_method[method]
    ax.plot(xs, ys, marker="o", label=method)
ax.set_xlabel(XLABEL)
ax.set_ylabel("SKR (bits per probe)")
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig("sweep.png", dpi=150)
print("wrote sweep.png")
'''

_XLABELS = {
    "m": "BS antennas",
    "l": "surface elements",
    "power": "transmit power (dBm)",
    "eta": "antenna correlation",
}


def write_plot_script(result: SweepResult, path: str) -> None:
    """Emit a standalone matplotlib script with the sweep data embedded."""
    rows = [(r.variable, r.value, r.method, r.skr_bits) for r in result.rows]
    xlabel = _XLABELS.get(result.rows[0].variable, "value") if result.rows else "value"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_PLOT_TEMPLATE.format(rows=rows, xlabel=xlabel))
    except OSError as exc:
        raise OSError(f"cannot write plot script to {path}: {exc}") from exc


_TRAIN_KEYS = {
    "epochs": int,
    "samples_per_epoch": int,
    "batch_size": int,
    "learning_rate": float,
    "adam_beta1": float,
    "adam_beta2": float,
    "adam_eps": float,
    "seed": int,
}


def _parse_train_section(section) -> neural.TrainConfig:
    kwargs: dict = {}
    for key, caster in _TRAIN_KEYS.items():
        if key in section:
            try:
                kwargs[key] = caster(section[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for train.{key}: {section[key]!r}") from exc
    if "ue_region" in section:
        parts = [p for p in section["ue_region"].replace(",", " ").split() if p]
        if len(parts) != 4:
            raise ConfigError("train.ue_region must be 'x_lo, x_hi, y_lo, y_hi'")
        try:
            x_lo, x_hi, y_lo, y_hi = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad train.ue_region: {section['ue_region']!r}") from exc
        kwargs["ue_region"] = ((x_lo, x_hi), (y_lo, y_hi))
    if "fresh_samples" in section:
        raw = section["fresh_samples"].strip().lower()
        if raw not in ("true", "false", "1", "0", "yes", "no"):
            raise ConfigError(f"bad boolean for train.fresh_samples: {section['fresh_samples']!r}")
        kwargs["fresh_samples"] = raw in ("true", "1", "yes")
    unknown = set(section) - set(_TRAIN_KEYS) - {"ue_region", "fresh_samples"}
    if unknown:
        raise ConfigError(f"unknown keys in [train]: {sorted(unknown)}")
    return neural.TrainConfig(**kwargs)


def _parse_sweep_section(section) -> SweepSpec:
    if "variable" not in section or "values" not in section:
        raise ConfigError("[sweep] requires 'variable' and 'values'")
    try:
        values = tuple(
            float(p) for p in section["values"].replace(",", " ").split() if p
        )
    except ValueError as exc:
        raise ConfigError(f"bad sweep.values: {section['values']!r}") from exc
    kwargs: dict = {"variable": section["variable"].strip().lower(), "values": values}
    if "methods" in section:
        kwargs["methods"] = tuple(
            p for p in section["methods"].replace(",", " ").split() if p
        )
    if "trials" in section:
        try:
            kwargs["trials"] = int(section["trials"])
        except ValueError as exc:
            raise ConfigError(f"bad sweep.trials: {section['trials']!r}") from exc
    if "seed" in section:
        try:
            kwargs["seed"] = int(section["seed"])
        except ValueError as exc:
            raise ConfigError(f"bad sweep.seed: {section['seed']!r}") from exc
    unknown = set(section) - {"variable", "values", "methods", "trials", "seed"}
    if unknown:
        raise ConfigError(f"unknown keys in [sweep]: {sorted(unknown)}")
    return SweepSpec(**kwargs)


def load_experiment_config(path: str):
    """Parse [system], [train], [sweep] sections; missing sections give defaults.

    Returns (SystemConfig, TrainConfig, SweepSpec or None).
    """
    parser = _read_ini(path)
    extra = set(parser.sections()) - {"system", "train", "sweep"}
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    system = _parse_system_section(parser["system"]) if parser.has_section("system") else SystemConfig()
    train_cfg = (
        _parse_train_section(parser["train"]) if parser.has_section("train") else neural.TrainConfig()
    )
    sweep = _parse_sweep_section(parser["sweep"]) if parser.has_section("sweep") else None
    return system, train_cfg, sweep
