"""Reproducible experiment harness: sweeps, benchmarks, CSV and plot emission."""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import neural
from ._blas import parallel_map
from .baseline import baseline_design
from .channel import (
    _SYSTEM_KEYS,
    ChannelStatistics,
    SystemConfig,
    _complex_normal,
    _finite,
    _numbers,
    _parse_section,
    _read_ini,
    channel_statistics,
    dbm_to_mw,
)
from .errors import ConfigError, _fits_in_memory
from .probing import ProbeDesign
from .skr import closed_form_bits

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
        if len(self.values) == 0 or not _finite(self.values):
            raise ConfigError(f"sweep values must be nonempty and finite, got {self.values}")
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
    """``trials`` random designs as precoders [K, M, M] and phases [K, L], one block per factor.

    One ``_complex_normal`` draw gives every precoder's real parts, then every imaginary part, each a
    standard normal; one uniform draw gives all K x L angles. For K = 1 this is ``random_design``'s stream.
    """
    m = config.M
    raw = _complex_normal(rng, trials * m * m, 2.0).reshape(trials, m, m)
    raw *= np.sqrt(m * config.power_a / np.sum(np.abs(raw) ** 2, axis=(1, 2)))[:, None, None]
    return raw, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (trials, config.L)))


def random_design(config: SystemConfig, rng: np.random.Generator) -> ProbeDesign:
    """Uniform random phases and an i.i.d. Gaussian precoder scaled onto the budget."""
    precoders, phases = _draw_designs(config, rng, 1)
    return ProbeDesign(precoder=precoders[0], phases=phases[0])


def random_design_bits(
    config: SystemConfig, stats: ChannelStatistics, rng: np.random.Generator, trials: int
) -> tuple[float, float | None]:
    """Mean closed-form SKR over ``trials`` random designs, and its standard error.

    The designs are drawn from ``rng`` by ``_draw_designs`` and evaluated in
    one batched kernel call. The standard error is None for a single trial.
    """
    return _methods_bits(("random",), config, stats, rng, trials, load_net=None)[0]


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


def _methods_bits(methods, config: SystemConfig, stats: ChannelStatistics, rng, trials: int, load_net) -> list:
    """(closed-form SKR, standard error or None) of each of ``methods``, in their order, from one kernel call.

    The batch holds ``trials`` random designs from ``rng``, the baseline's, and the UE position's design of
    the network ``load_net()`` returns (called for pkg_net only, so the network is freed before scoring).
    The random designs are drawn, before ``load_net()`` may train, and scored under memory rules naming them.
    """
    too_big = functools.partial(_fits_in_memory, f"{trials} random designs of M={config.M}, L={config.L}")
    designs = {}
    if "random" in methods:
        if trials < 1:
            raise ConfigError(f"random trials must be >= 1, got {trials}")
        with too_big():
            designs["random"] = _draw_designs(config, rng, trials)
    if "baseline" in methods:
        design = baseline_design(config, stats)
        designs["baseline"] = design.precoder[None], design.phases[None]
    if "pkg_net" in methods:
        design = neural.forward(load_net(), config.pos_ue, config)
        designs["pkg_net"] = design.precoder[None], design.phases[None]
    with too_big() if "random" in designs else nullcontext():
        precoders, phases = (np.concatenate(parts) for parts in zip(*designs.values()))
        bits = closed_form_bits(precoders, phases, stats, config.power_b, config.noise)
    per_method = dict(zip(designs, np.split(bits, np.cumsum([len(p) for p, _ in designs.values()])[:-1])))
    draws = map(per_method.get, methods)
    return [(float(d.mean()), float(d.std(ddof=1) / math.sqrt(len(d))) if len(d) > 1 else None) for d in draws]


def _evaluate_point(
    spec: SweepSpec, cfg: SystemConfig, index: int, train_config: neural.TrainConfig, checkpoint_dir: str | None
) -> list:
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    load_net = functools.partial(_pkg_net_params, cfg, index, train_config, checkpoint_dir)
    scored = _methods_bits(spec.methods, cfg, channel_statistics(cfg), rng, spec.trials, load_net)
    return [SweepRow(spec.variable, spec.values[index], method, *bits) for method, bits in zip(spec.methods, scored)]


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

    Other sections are rejected, and so is a [DEFAULT] with keys, which would reach every section.
    Returns (SystemConfig, TrainConfig, SweepSpec or None).
    """
    parser = _read_ini(path)
    extra = set(parser.sections()) - {"system", "train", "sweep"} | ({"DEFAULT"} if parser.defaults() else set())
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
