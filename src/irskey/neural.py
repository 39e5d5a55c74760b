"""Unsupervised neural designer: UE location in, feasible (precoder, phases) out.

A two-hidden-layer ReLU MLP maps the UE coordinates to two real head vectors
that are reshaped into a complex precoder and reflection phases. Normalization
layers enforce the power budget and unit modulus structurally, so every
forward output is feasible for arbitrary parameter values. Training minimizes
the negative batch-mean SKR with Adam. The loss and its cogradients with
respect to the whitened precoder A = U^H P^* and the effective variance come
from the Gaussian-MI core the closed form uses (``skr._whitened_mi``); they
are propagated analytically through both normalizations (no autodiff
framework involved).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._blas import single_blas_thread
from .channel import ChannelStatistics, SystemConfig, _numbers, _require_finite, channel_statistics, link_gains
from .errors import ConfigError, NumericalError, _fits_in_memory
from .probing import ProbeDesign
from .skr import _LN2, _variance, _whitened_mi

__all__ = [
    "NetParams",
    "TrainConfig",
    "PARAM_FIELDS",
    "init_params",
    "forward",
    "normalize_precoder",
    "normalize_phases",
    "loss",
    "loss_and_gradient",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

HIDDEN = 200
_EPS_GUARD = 1e-12
_CHECKPOINT_FORMAT = "irskey-net-1"
_PACKING = "real-imag-colmajor"
_HEADER_CAP = 64 * 1024  # bytes; a real header is ~300
_encoded = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # the header line, as saved

PARAM_FIELDS = ("W1", "b1", "W2", "b2", "Wp", "bp", "Wt", "bt")


class NetParams:
    """Weights and biases in one flat float64 vector ``vec`` (zeros at construction).

    ``vec`` holds the blocks in PARAM_FIELDS order, each in C order: the
    checkpoint's blob layout. The fields W1 ... bt are reshaped views of it.
    Assigning ``vec`` or a field copies into it; M, L and hidden are fixed.
    """

    def __init__(self, M: int, L: int, hidden: int = HIDDEN) -> None:
        shapes = _param_shapes(M, L, hidden)
        sizes = [math.prod(shape) for shape in shapes.values()]
        vec = np.zeros(sum(sizes))
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        views = {name: part.reshape(shape) for part, (name, shape) in zip(parts, shapes.items())}
        self.__dict__.update(views, M=M, L=L, hidden=hidden, vec=vec)

    def __setattr__(self, name: str, value) -> None:
        block = self.__dict__[name] if name in PARAM_FIELDS or name == "vec" else None
        if block is None:
            raise AttributeError(f"NetParams.{name} is read-only")
        if np.shape(value) != block.shape:
            raise ValueError(f"NetParams.{name} has shape {block.shape}, got {np.shape(value)}")
        block[...] = value


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    samples_per_epoch: int = 1000
    batch_size: int = 100
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    ue_region: tuple[tuple[float, float], tuple[float, float]] = ((5.0, 15.0), (5.0, 15.0))
    seed: int = 0
    fresh_samples: bool = True  # fresh UE draws each epoch; else fixed set reshuffled

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.epochs < 1 or self.samples_per_epoch < 1 or self.batch_size < 1:
            raise ConfigError("epochs, samples_per_epoch, batch_size must be >= 1")
        if self.samples_per_epoch % self.batch_size != 0:
            raise ConfigError(
                f"batch_size {self.batch_size} must divide samples_per_epoch {self.samples_per_epoch}"
            )
        if self.learning_rate <= 0.0 or self.adam_eps <= 0.0:
            raise ConfigError("learning_rate and adam_eps must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError(f"adam betas must lie in [0, 1), got {self.adam_beta1}, {self.adam_beta2}")
        if self.seed < 0:
            raise ConfigError(f"training seed must be >= 0, got {self.seed}")
        (x_lo, x_hi), (y_lo, y_hi) = self.ue_region
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ConfigError("ue_region must span a nonempty rectangle")
        if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
            raise ConfigError(f"ue_region {self.ue_region}: a side's length overflows the float range")


def _region(raw: str) -> tuple[tuple[float, float], tuple[float, float]]:
    x_lo, x_hi, y_lo, y_hi = _numbers(raw, 4)
    return ((x_lo, x_hi), (y_lo, y_hi))


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# INI key -> (TrainConfig field, caster)
_TRAIN_KEYS = {
    "epochs": ("epochs", int),
    "samples_per_epoch": ("samples_per_epoch", int),
    "batch_size": ("batch_size", int),
    "learning_rate": ("learning_rate", float),
    "adam_beta1": ("adam_beta1", float),
    "adam_beta2": ("adam_beta2", float),
    "adam_eps": ("adam_eps", float),
    "ue_region": ("ue_region", _region),  # x_lo, x_hi, y_lo, y_hi
    "seed": ("seed", int),
    "fresh_samples": ("fresh_samples", lambda s: _BOOLEANS[s.strip().lower()]),
}


def _param_shapes(M: int, L: int, hidden: int) -> dict:
    """Shape of every parameter block, in PARAM_FIELDS order."""
    return {
        "W1": (hidden, 3),
        "b1": (hidden,),
        "W2": (hidden, hidden),
        "b2": (hidden,),
        "Wp": (2 * M * M, hidden),
        "bp": (2 * M * M,),
        "Wt": (2 * L, hidden),
        "bt": (2 * L,),
    }


def init_params(M: int, L: int, rng: np.random.Generator, hidden: int = HIDDEN) -> NetParams:
    """Glorot-uniform weights drawn in order W1, W2, Wp, Wt; zero biases."""
    params = NetParams(M, L, hidden)
    for weights in (params.W1, params.W2, params.Wp, params.Wt):
        out_dim, in_dim = weights.shape
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        weights[...] = rng.uniform(-limit, limit, (out_dim, in_dim))
    return params


# ---------------------------------------------------------------------------
# normalization layers


def _normalize_precoder_batch(p_prime: np.ndarray, power_a: float):
    n_batch, width = p_prime.shape
    m_sq = width // 2
    m = math.isqrt(m_sq)
    # column-major packing: entry (i, j) of the raw matrix is p'[i + j*M]
    raw = (p_prime[:, :m_sq] + 1j * p_prime[:, m_sq:]).reshape(n_batch, m, m).swapaxes(1, 2)
    norm = np.sqrt(np.sum(p_prime**2, axis=1))
    if np.any(norm < _EPS_GUARD):
        raise NumericalError("degenerate precoder head activation: zero output norm")
    target = math.sqrt(m * power_a)
    precoder = (target / norm)[:, None, None] * raw
    return precoder, (raw, norm, target)


def _normalize_phases_batch(theta_prime: np.ndarray):
    n_batch, width = theta_prime.shape
    L = width // 2
    u = theta_prime[:, :L]
    v = theta_prime[:, L:]
    radius = np.hypot(u, v)
    live = radius > _EPS_GUARD
    safe_r = np.where(live, radius, 1.0)
    phases = np.where(live, (u + 1j * v) / safe_r, 1.0 + 0.0j)
    return phases, (u, v, safe_r, live)


def normalize_precoder(p_prime: np.ndarray, power_a: float) -> np.ndarray:
    """Pack a 2M^2 real vector into an M x M complex precoder on the power budget.

    First M^2 entries are real parts, last M^2 imaginary parts, both in
    column-major matrix order; the matrix is rescaled so its squared
    Frobenius norm equals M * power_a. Near-zero inputs (norm below 1e-12)
    are rejected as degenerate.
    """
    vec = np.asarray(p_prime, dtype=float).reshape(1, -1)
    precoder, _ = _normalize_precoder_batch(vec, power_a)
    return precoder[0]


def normalize_phases(theta_prime: np.ndarray) -> np.ndarray:
    """Map a 2L real vector to L unit-modulus coefficients (u + jv)/|u + jv|.

    Pairs with magnitude below the 1e-12 guard fall back to phase 0 (the
    coefficient 1), and their gradient is treated as zero.
    """
    vec = np.asarray(theta_prime, dtype=float).reshape(1, -1)
    phases, _ = _normalize_phases_batch(vec)
    return phases[0]


# ---------------------------------------------------------------------------
# forward / loss / gradient


def _forward_core(params: NetParams, locations: np.ndarray, power_a: float, h1: np.ndarray, h2: np.ndarray):
    # the (K, hidden) activations go into h1 and h2; returns the two normalization caches besides the design
    np.matmul(locations, params.W1.T, out=h1)
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, params.W2.T, out=h2)
    h2 += params.b2
    np.maximum(h2, 0.0, out=h2)
    p_prime = h2 @ params.Wp.T + params.bp
    t_prime = h2 @ params.Wt.T + params.bt
    precoder, p_cache = _normalize_precoder_batch(p_prime, power_a)
    phases, t_cache = _normalize_phases_batch(t_prime)
    return precoder, phases, p_cache, t_cache


def _as_location_array(batch_locations) -> np.ndarray:
    locs = np.asarray(batch_locations, dtype=float)
    if locs.ndim == 1:
        locs = locs.reshape(1, -1)
    if locs.ndim != 2 or locs.shape[1] != 3:
        raise ConfigError(f"locations must be (K, 3), got shape {locs.shape}")
    return locs


def forward(params: NetParams, ue_location, config: SystemConfig) -> ProbeDesign:
    """Evaluate the network at one (x, y, z) location, else ConfigError; output is feasible by construction."""
    loc = _as_location_array(ue_location)
    if loc.shape[0] != 1:
        raise ConfigError(f"forward takes one location, got shape {loc.shape}")
    h1, h2 = np.empty((2, 1, params.hidden))
    precoder, phases, _, _ = _forward_core(params, loc, config.power_a, h1, h2)
    return ProbeDesign(precoder=precoder[0], phases=phases[0])


class _Workspace:
    """A step's (k, hidden) activations and, unless value-only, backward products and gradient: train reuses one."""

    def __init__(self, k: int, params: NetParams, want_grad: bool = True) -> None:
        self.h1, self.h2 = (np.empty((k, params.hidden)) for _ in range(2))
        if want_grad:
            self.d_h2, self.d_h1 = (np.empty((k, params.hidden)) for _ in range(2))
            self.grads = NetParams(params.M, params.L, params.hidden)


def _loss_and_grad(
    params: NetParams, locations: np.ndarray, system: SystemConfig, stats: ChannelStatistics, want_grad: bool, work
):
    # correlations come from ``stats``, link gains from each location; writes into ``work``
    k = locations.shape[0]
    m = system.M
    precoder, phases, p_cache, t_cache = _forward_core(params, locations, system.power_a, work.h1, work.h2)
    beta_direct, beta_bs_irs, beta_irs_ue = link_gains(system, locations)
    gamma = beta_bs_irs * beta_irs_ue
    var, squared_theta = _variance(phases, stats, (beta_direct, gamma))  # per-sample effective variance
    lam, basis = stats.R_bs_eigh
    mi_nats, g_a, g_var, _ = _whitened_mi(
        basis.conj().T @ precoder.conj(), lam, var, system.power_b, system.noise, want_grad=want_grad
    )
    loss_bits = float(-np.mean(mi_nats) / _LN2)
    if not want_grad:
        return loss_bits, None

    scale = -1.0 / (k * _LN2)  # d(loss)/d(sum of per-sample MI in nats)
    # cogradients wrt conj(precoder) and conj(phases) of the scaled objective
    g_p = scale * (basis @ g_a).conj()
    g_theta = (scale * gamma * g_var)[:, None] * squared_theta

    # back through the phase normalization (radial components drop out)
    u, v, radius, live = t_cache
    g_re = 2.0 * g_theta.real
    g_im = 2.0 * g_theta.imag
    r3 = radius**3
    grad_u = np.where(live, (v / r3) * (g_re * v - g_im * u), 0.0)
    grad_v = np.where(live, (u / r3) * (g_im * u - g_re * v), 0.0)
    g_tprime = np.concatenate([grad_u, grad_v], axis=1)

    # back through the precoder normalization (projection removes the radial part)
    raw, norm, target = p_cache
    inner = np.einsum("kij,kij->k", g_p.conj(), raw).real
    g_raw = (target / norm)[:, None, None] * (g_p - (inner / norm**2)[:, None, None] * raw)
    g_raw_cm = g_raw.swapaxes(1, 2).reshape(k, m * m)  # column-major flatten per sample
    g_pprime = np.concatenate([2.0 * g_raw_cm.real, 2.0 * g_raw_cm.imag], axis=1)

    # back through the MLP, into the flat gradient; h > 0 is a > 0 for h = max(a, 0), NaN included
    h1, h2, d_h2, d_h1, grads = work.h1, work.h2, work.d_h2, work.d_h1, work.grads
    np.matmul(g_pprime.T, h2, out=grads.Wp)
    g_pprime.sum(axis=0, out=grads.bp)
    np.matmul(g_tprime.T, h2, out=grads.Wt)
    g_tprime.sum(axis=0, out=grads.bt)
    np.matmul(g_pprime, params.Wp, out=d_h2)
    d_h2 += np.matmul(g_tprime, params.Wt, out=d_h1)  # d_h1 serves as scratch here
    d_h2 *= h2 > 0.0  # now d_a2
    np.matmul(d_h2.T, h1, out=grads.W2)
    d_h2.sum(axis=0, out=grads.b2)
    np.matmul(d_h2, params.W2, out=d_h1)
    d_h1 *= h1 > 0.0  # now d_a1
    np.matmul(d_h1.T, locations, out=grads.W1)
    d_h1.sum(axis=0, out=grads.b1)
    return loss_bits, grads


def loss(params: NetParams, batch_locations, config: SystemConfig) -> float:
    """Negative batch-mean SKR in bits (exact closed form, per-sample link gains); an overflowing covariance raises."""
    locs = _as_location_array(batch_locations)
    work = _Workspace(len(locs), params, want_grad=False)
    return _loss_and_grad(params, locs, config, channel_statistics(config), False, work)[0]


def loss_and_gradient(params: NetParams, batch_locations, config: SystemConfig):
    """``loss`` and its exact reverse-mode gradient with respect to every parameter (a NetParams); raises as loss."""
    locs = _as_location_array(batch_locations)
    return _loss_and_grad(params, locs, config, channel_statistics(config), True, _Workspace(len(locs), params))


# ---------------------------------------------------------------------------
# training


class _AdamState:
    def __init__(self, size: int) -> None:
        self.m, self.v, self.scratch, self.denom = (np.zeros(size) for _ in range(4))
        self.t = 0


def _adam_step(params: NetParams, grads: NetParams, state: _AdamState, cfg: TrainConfig) -> None:
    """In-place Adam on the flat vectors at step ``state.t``; each weight moves by lr·(m/c1) / (√(v/c2) + eps)."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    g, m, v, step, denom = grads.vec, state.m, state.v, state.scratch, state.denom
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    np.square(g, out=step)
    v += np.multiply(step, 1.0 - b2, out=step)
    np.divide(m, corr1, out=step)
    step *= cfg.learning_rate
    np.divide(v, corr2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    np.subtract(params.vec, step, out=params.vec)
    if not np.isfinite(params.vec).all():  # np.linalg keeps its own error state: an inf can pass unflagged
        raise NumericalError("the update left non-finite weights")


def _draw_locations(rng: np.random.Generator, n: int, region) -> np.ndarray:
    (x_lo, x_hi), (y_lo, y_hi) = region
    with _fits_in_memory(f"samples_per_epoch {n}: the UE locations of an epoch"):
        x = rng.uniform(x_lo, x_hi, n)
        y = rng.uniform(y_lo, y_hi, n)
        return np.column_stack([x, y, np.zeros(n)])


def _check_region(system: SystemConfig, region) -> None:
    """ConfigError unless every UE location of ``region`` is a valid link end.

    Gains fall with distance, so the region's points nearest the BS and the
    surface (each x, y clipped to the rectangle, z = 0) decide.
    """
    (x_lo, x_hi), (y_lo, y_hi) = region
    anchors = np.array([system.pos_bs, system.pos_irs], dtype=float)
    nearest = np.column_stack(
        [np.clip(anchors[:, 0], x_lo, x_hi), np.clip(anchors[:, 1], y_lo, y_hi), np.zeros(2)]
    )
    try:
        link_gains(system, nearest)
    except ConfigError as exc:
        raise ConfigError(f"ue_region {region} comes too close to the BS or the surface: {exc}") from exc


@single_blas_thread()
def train(train_config: TrainConfig, system: SystemConfig, progress=None):
    """Run the full Adam loop; returns (params, per-epoch mean loss history).

    Deterministic given the seed. UE locations are drawn fresh each epoch
    (x block then y block) unless ``fresh_samples`` is off, in which case one
    fixed set is reshuffled. ``progress(epoch, mean_loss_bits, wall_seconds)``
    is invoked after each epoch when given. Float errors other than underflow
    raise, and the first step that raises, returns a non-finite loss or leaves
    a non-finite weight aborts with one NumericalError naming the step and the
    learning rate. A ``ue_region`` reaching within the reference distance of
    the BS or the surface is rejected before the first step. BLAS runs on one
    thread meanwhile.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _check_region(system, train_config.ue_region)
        stats = channel_statistics(system)
        rng = np.random.default_rng(train_config.seed)
        sizes = f"M={system.M}, L={system.L}, batch_size {train_config.batch_size}"
        with _fits_in_memory(f"training at {sizes}: the network and a step"):
            params = init_params(system.M, system.L, rng)
            state = _AdamState(params.vec.size)
            work = _Workspace(train_config.batch_size, params)
        fixed_set = None
        if not train_config.fresh_samples:
            fixed_set = _draw_locations(rng, train_config.samples_per_epoch, train_config.ue_region)
        history: list[float] = []
        for epoch in range(train_config.epochs):
            tick = time.perf_counter()
            if fixed_set is None:
                locations = _draw_locations(rng, train_config.samples_per_epoch, train_config.ue_region)
            else:
                locations = fixed_set[rng.permutation(len(fixed_set))]
            batch_losses = []
            for start in range(0, len(locations), train_config.batch_size):
                batch = locations[start : start + train_config.batch_size]
                state.t += 1
                try:
                    value, grads = _loss_and_grad(params, batch, system, stats, want_grad=True, work=work)
                    if not math.isfinite(value):
                        raise NumericalError(f"loss is {value}")
                    _adam_step(params, grads, state, train_config)
                except (FloatingPointError, NumericalError, np.linalg.LinAlgError) as exc:
                    lr = train_config.learning_rate
                    raise NumericalError(f"training step {state.t} at learning_rate {lr} failed: {exc}") from exc
                batch_losses.append(value)
            mean_loss = float(np.mean(batch_losses))
            history.append(mean_loss)
            if progress is not None:
                progress(epoch, mean_loss, time.perf_counter() - tick)
        return params, history


# ---------------------------------------------------------------------------
# serialization


def _header(M: int, L: int, hidden: int, seed: int | None) -> dict:
    """The checkpoint header for these sizes and seed: the only one load_checkpoint accepts."""
    shapes = {name: list(shape) for name, shape in _param_shapes(M, L, hidden).items()}
    return {"format": _CHECKPOINT_FORMAT, "M": M, "L": L, "hidden": hidden, "packing": _PACKING,
            "seed": seed, "fields": list(PARAM_FIELDS), "shapes": shapes}


def save_checkpoint(path: str, params: NetParams, seed: int | None = None) -> None:
    """Write a one-line JSON header, then ``params.vec`` as little-endian float64 in one call."""
    with open(path, "wb") as fh:
        fh.write(_encoded(_header(params.M, params.L, params.hidden, seed)).encode("utf-8") + b"\n")
        fh.write(params.vec.astype("<f8", copy=False))


def load_checkpoint(path: str, system: SystemConfig | None = None):
    """Inverse of save_checkpoint; returns (params, metadata dict).

    Every way a file can fail to be a checkpoint written by save_checkpoint
    raises ConfigError: a header line past 64 KiB, a header other than exactly the
    one save_checkpoint writes for its sizes and seed (null or an int >= 0), sizes
    other than ``system``'s M and L (when given), a blob shorter or longer than the
    header's shapes, non-finite weights. All but the last are checked before
    allocating ``params.vec``, which the blob is read into in one call. Only
    failing to read the file raises OSError.
    """
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_CAP + 1)
        if len(header) > _HEADER_CAP:
            raise ConfigError(f"not a checkpoint file: {path} (no header line in {_HEADER_CAP} bytes)")
        try:
            meta = json.loads(header.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past Python's 4300-digit limit
            raise ConfigError(f"not a checkpoint file: {path}") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"not a checkpoint file: {path}")
        if meta.get("format") != _CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format in {path}: {meta.get('format')!r}")
        sizes = [meta.get(key) for key in ("M", "L", "hidden")]
        if not all(type(n) is int and n >= 1 for n in sizes):
            raise ConfigError(f"checkpoint {path} has invalid sizes M/L/hidden {sizes}")
        seed = meta.get("seed")
        saved = _header(*sizes, seed)
        # == rejects other values first (their shapes may not encode); the encoding refuses 200.0 or true for 200 or 1
        if not (seed is None or type(seed) is int and seed >= 0) or meta != saved or _encoded(meta) != _encoded(saved):
            raise ConfigError(f"checkpoint {path}: header is not the one saved for M/L/hidden {sizes}, seed {seed!r}")
        if system is not None and sizes[:2] != [system.M, system.L]:
            raise ConfigError(
                f"checkpoint sized for M={sizes[0]}, L={sizes[1]}; "
                f"system has M={system.M}, L={system.L}: {path}"
            )
        expected = 8 * sum(math.prod(shape) for shape in _param_shapes(*sizes).values())
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available == expected:
            params = NetParams(*sizes)
            available = fh.readinto(params.vec)
        if available != expected:
            kind = "truncated" if available < expected else "followed by trailing bytes"
            raise ConfigError(f"checkpoint {path} is {kind}: {available} bytes, expected {expected}")
    if sys.byteorder == "big":
        params.vec.byteswap(inplace=True)
    if not np.isfinite(params.vec).all():
        raise ConfigError(f"checkpoint {path} holds non-finite weights")
    return params, meta
