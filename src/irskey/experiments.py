"""Reproducible experiment harness: sweeps, benchmarks, CSV and plot emission."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import neural
from ._blas import parallel_map
from .baseline import baseline_design
from .channel import (
    _SYSTEM_KEYS,
    ChannelStatistics,
    SystemConfig,
    _numbers,
    _parse_section,
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
            raise ConfigError(f"unknown sweep.variable {self.variable!r}; pick from {VARIABLES}")
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
        repeated = sorted({method for method in self.methods if self.methods.count(method) > 1})
        if repeated:
            raise ConfigError(f"sweep.methods repeats {repeated}")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown sweep.methods entry {method!r}; pick from {METHODS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"sweep seed must be >= 0, got {self.seed}")


# INI key -> (SweepSpec field, caster); variable and values are required
_SWEEP_KEYS = {
    "variable": ("variable", lambda s: s.strip().lower()),
    "values": ("values", _numbers),
    "methods": ("methods", lambda s: tuple(s.replace(",", " ").split())),
    "trials": ("trials", int),
    "seed": ("seed", int),
}


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
    return dataclasses.replace(base, eta=float(value))  # eta: SweepSpec admits no other variable


def checkpoint_name(config: SystemConfig) -> str:
    return f"pkgnet_M{config.M}_L{config.L}.ckpt"


def _pkg_net_params(
    cfg: SystemConfig, point_index: int, train_config: neural.TrainConfig, checkpoint_dir: str | None
) -> neural.NetParams:
    """The point's network: loaded from ``checkpoint_dir`` when given, else trained on a derived seed."""
    if checkpoint_dir is not None:
        path = os.path.join(checkpoint_dir, checkpoint_name(cfg))
        if not os.path.isfile(path):
            raise ConfigError(f"missing checkpoint for M={cfg.M}, L={cfg.L}: {path}")
        return neural.load_checkpoint(path, cfg)[0]
    seed = int(np.random.SeedSequence((train_config.seed, point_index)).generate_state(1)[0])
    return neural.train(dataclasses.replace(train_config, seed=seed), cfg)[0]


def _method_bits(
    method: str, config: SystemConfig, stats: ChannelStatistics, rng, trials: int, params
) -> tuple[float, float | None]:
    """Closed-form SKR of ``method``'s design, and its standard error (random only).

    ``rng`` and ``trials`` serve the random method, ``params`` the pkg_net
    method; the baseline method uses neither.
    """
    if method == "random":
        return random_design_bits(config, stats, rng, trials)
    if method == "baseline":
        design = baseline_design(config, stats)
    else:  # pkg_net
        design = neural.forward(params, config.pos_ue, config)
    return skr_closed_form(design, stats, config.power_b, config.noise).bits, None


def _evaluate_point(
    spec: SweepSpec, cfg: SystemConfig, index: int, train_config: neural.TrainConfig, checkpoint_dir: str | None
) -> list:
    stats = channel_statistics(cfg)
    rows = []
    for method in spec.methods:
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index))) if method == "random" else None
        params = _pkg_net_params(cfg, index, train_config, checkpoint_dir) if method == "pkg_net" else None
        bits, std_error = _method_bits(method, cfg, stats, rng, spec.trials, params)
        rows.append(SweepRow(spec.variable, spec.values[index], method, bits, std_error))
    return rows


def run_sweep(
    spec: SweepSpec,
    base_config: SystemConfig,
    train_config: neural.TrainConfig | None = None,
    checkpoint_dir: str | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Evaluate every (value, method) pair at the configured UE position.

    Points run through ``parallel_map`` (``max_workers`` threads when given),
    each with its own statistics and derived random stream, so the rows, in
    spec order, do not depend on the pool size. The random method averages
    ``spec.trials`` draws; the neural method loads a per-(M, L) checkpoint
    from ``checkpoint_dir`` when given, else trains inline on a derived seed.
    """
    if train_config is None:
        train_config = neural.TrainConfig()
    configs = [_override(base_config, spec.variable, value) for value in spec.values]  # reject bad points first
    per_point = parallel_map(
        lambda i: _evaluate_point(spec, configs[i], i, train_config, checkpoint_dir), range(len(configs)), max_workers
    )
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


def load_experiment_config(path: str):
    """Parse [system], [train], [sweep] sections; missing sections give defaults.

    Returns (SystemConfig, TrainConfig, SweepSpec or None).
    """
    parser = _read_ini(path)
    extra = set(parser.sections()) - {"system", "train", "sweep"}
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    system = SystemConfig(**_parse_section(parser, "system", _SYSTEM_KEYS))
    train_cfg = neural.TrainConfig(**_parse_section(parser, "train", neural._TRAIN_KEYS))
    if not parser.has_section("sweep"):
        return system, train_cfg, None
    sweep = _parse_section(parser, "sweep", _SWEEP_KEYS)
    if "variable" not in sweep or "values" not in sweep:
        raise ConfigError("[sweep] requires 'variable' and 'values'")
    return system, train_cfg, SweepSpec(**sweep)
