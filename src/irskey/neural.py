"""Unsupervised neural designer: UE location in, feasible (precoder, phases) out.

A two-hidden-layer ReLU MLP maps the UE coordinates to two real head vectors
that are reshaped into a complex precoder and reflection phases. Normalization
layers enforce the power budget and unit modulus structurally, so every
forward output is feasible for arbitrary parameter values. Training minimizes
the negative batch-mean SKR with Adam; gradients are propagated analytically
through the log-determinants, the covariance assembly, and both
normalizations (no autodiff framework involved).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._blas import single_blas_thread
from .channel import ChannelStatistics, SystemConfig, channel_statistics, link_gains
from .errors import ConfigError, NumericalError
from .probing import ProbeDesign

__all__ = [
    "NetParams",
    "TrainConfig",
    "PARAM_FIELDS",
    "init_params",
    "forward",
    "normalize_precoder",
    "normalize_phases",
    "loss",
    "gradient",
    "loss_and_gradient",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "params_to_vector",
    "vector_to_params",
]

HIDDEN = 200
_LN2 = math.log(2.0)
_EPS_GUARD = 1e-12
_CHECKPOINT_FORMAT = "irskey-net-1"
_PACKING = "real-imag-colmajor"

PARAM_FIELDS = ("W1", "b1", "W2", "b2", "Wp", "bp", "Wt", "bt")


@dataclass
class NetParams:
    """Weights and biases; heads sized by (M, L) at construction."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wp: np.ndarray
    bp: np.ndarray
    Wt: np.ndarray
    bt: np.ndarray

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    @property
    def M(self) -> int:
        return math.isqrt(self.Wp.shape[0] // 2)

    @property
    def L(self) -> int:
        return self.Wt.shape[0] // 2


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
        if self.epochs < 1 or self.samples_per_epoch < 1 or self.batch_size < 1:
            raise ConfigError("epochs, samples_per_epoch, batch_size must be >= 1")
        if self.samples_per_epoch % self.batch_size != 0:
            raise ConfigError(
                f"batch_size {self.batch_size} must divide samples_per_epoch {self.samples_per_epoch}"
            )
        if self.learning_rate <= 0.0:
            raise ConfigError("learning rate must be positive")
        (x_lo, x_hi), (y_lo, y_hi) = self.ue_region
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ConfigError("ue_region must span a nonempty rectangle")


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

    def glorot(out_dim: int, in_dim: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-limit, limit, (out_dim, in_dim))

    return NetParams(
        **{
            name: glorot(*shape) if name.startswith("W") else np.zeros(shape)
            for name, shape in _param_shapes(M, L, hidden).items()
        }
    )


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


def _forward_core(params: NetParams, locations: np.ndarray, power_a: float):
    a1 = locations @ params.W1.T + params.b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ params.W2.T + params.b2
    h2 = np.maximum(a2, 0.0)
    p_prime = h2 @ params.Wp.T + params.bp
    t_prime = h2 @ params.Wt.T + params.bt
    precoder, p_cache = _normalize_precoder_batch(p_prime, power_a)
    phases, t_cache = _normalize_phases_batch(t_prime)
    cache = (locations, a1, h1, a2, h2, p_cache, t_cache)
    return precoder, phases, cache


def forward(params: NetParams, ue_location, config: SystemConfig) -> ProbeDesign:
    """Evaluate the network at one location; output is feasible by construction."""
    loc = np.asarray(ue_location, dtype=float).reshape(1, 3)
    precoder, phases, _ = _forward_core(params, loc, config.power_a)
    return ProbeDesign(precoder=precoder[0], phases=phases[0])


def _hermitize(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + np.swapaxes(mats, -1, -2).conj())


def _zero_grads(params: NetParams) -> NetParams:
    return NetParams(**{name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS})


def _loss_and_grad(
    params: NetParams, locations: np.ndarray, system: SystemConfig, stats: ChannelStatistics, want_grad: bool
):
    # correlations come from ``stats``, link gains from each location
    k = locations.shape[0]
    m = system.M
    precoder, phases, cache = _forward_core(params, locations, system.power_a)
    beta_direct, beta_bs_irs, beta_irs_ue = link_gains(system, locations)
    gamma = beta_bs_irs * beta_irs_ue
    r_bs = stats.R_bs
    r_sq = stats.R_irs * stats.R_irs

    r_sq_theta = phases @ r_sq  # R_irs o R_irs is real symmetric
    quad = np.sum(phases.conj() * r_sq_theta, axis=1).real
    var = beta_direct + gamma * quad  # per-sample effective variance
    sandwich = np.swapaxes(precoder, 1, 2) @ (r_bs @ precoder.conj())
    gram = np.einsum("kij,kim->kjm", precoder, precoder.conj())
    r_z = var[:, None, None] * sandwich

    noise = system.noise
    power_b = system.power_b
    sqrt_pb = math.sqrt(power_b)
    r_a = _hermitize(power_b * r_z + noise * gram)
    r_b = _hermitize(r_z + noise * np.eye(m))
    joint = np.empty((k, 2 * m, 2 * m), dtype=complex)
    joint[:, :m, :m] = r_a
    joint[:, :m, m:] = sqrt_pb * _hermitize(r_z)
    joint[:, m:, :m] = sqrt_pb * _hermitize(r_z)
    joint[:, m:, m:] = r_b

    def logdet(mats: np.ndarray) -> np.ndarray:
        chol = np.linalg.cholesky(mats)
        return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)

    try:
        mi_nats = logdet(r_a) + logdet(r_b) - logdet(joint)
    except np.linalg.LinAlgError:
        # singular determinant argument: surface as an infinite loss signal
        return math.inf, (_zero_grads(params) if want_grad else None)

    loss_bits = float(-np.mean(mi_nats) / _LN2)
    if not want_grad:
        return loss_bits, None

    inv_a = np.linalg.inv(r_a)
    inv_b = np.linalg.inv(r_b)
    inv_j = np.linalg.inv(joint)
    j11 = inv_j[:, :m, :m]
    j12 = inv_j[:, :m, m:]
    j22 = inv_j[:, m:, m:]
    k_z = power_b * (inv_a - j11) + (inv_b - j22) - sqrt_pb * (j12 + np.swapaxes(j12, -1, -2).conj())
    k_n = noise * (inv_a - j11)

    scale = -1.0 / (k * _LN2)  # d(loss)/d(sum of per-sample MI in nats)
    # cogradients wrt conj(precoder) and conj(phases) of the scaled objective
    d_p = var[:, None, None] * (r_bs @ precoder.conj() @ k_z) + precoder.conj() @ k_n
    g_p = scale * d_p.conj()
    trace_kz_w = np.einsum("kij,kji->k", k_z, sandwich).real
    g_theta = (scale * gamma * trace_kz_w)[:, None] * r_sq_theta

    # back through the phase normalization (radial components drop out)
    u, v, radius, live = cache[6]
    g_re = 2.0 * g_theta.real
    g_im = 2.0 * g_theta.imag
    r3 = radius**3
    grad_u = np.where(live, (v / r3) * (g_re * v - g_im * u), 0.0)
    grad_v = np.where(live, (u / r3) * (g_im * u - g_re * v), 0.0)
    g_tprime = np.concatenate([grad_u, grad_v], axis=1)

    # back through the precoder normalization (projection removes the radial part)
    raw, norm, target = cache[5]
    inner = np.einsum("kij,kij->k", g_p.conj(), raw).real
    g_raw = (target / norm)[:, None, None] * (g_p - (inner / norm**2)[:, None, None] * raw)
    g_raw_cm = g_raw.swapaxes(1, 2).reshape(k, m * m)  # column-major flatten per sample
    g_pprime = np.concatenate([2.0 * g_raw_cm.real, 2.0 * g_raw_cm.imag], axis=1)

    # back through the MLP
    locations_arr, a1, h1, a2, h2, _, _ = cache
    d_wp = g_pprime.T @ h2
    d_bp = g_pprime.sum(axis=0)
    d_wt = g_tprime.T @ h2
    d_bt = g_tprime.sum(axis=0)
    d_h2 = g_pprime @ params.Wp + g_tprime @ params.Wt
    d_a2 = d_h2 * (a2 > 0.0)
    d_w2 = d_a2.T @ h1
    d_b2 = d_a2.sum(axis=0)
    d_h1 = d_a2 @ params.W2
    d_a1 = d_h1 * (a1 > 0.0)
    d_w1 = d_a1.T @ locations_arr
    d_b1 = d_a1.sum(axis=0)

    grads = NetParams(W1=d_w1, b1=d_b1, W2=d_w2, b2=d_b2, Wp=d_wp, bp=d_bp, Wt=d_wt, bt=d_bt)
    return loss_bits, grads


def _as_location_array(batch_locations) -> np.ndarray:
    locs = np.asarray(batch_locations, dtype=float)
    if locs.ndim == 1:
        locs = locs.reshape(1, -1)
    if locs.ndim != 2 or locs.shape[1] != 3:
        raise ConfigError(f"locations must be (K, 3), got shape {locs.shape}")
    return locs


def loss(params: NetParams, batch_locations, config: SystemConfig) -> float:
    """Negative batch-mean SKR in bits (exact closed form, per-sample link gains)."""
    locs = _as_location_array(batch_locations)
    value, _ = _loss_and_grad(params, locs, config, channel_statistics(config), want_grad=False)
    return value


def gradient(params: NetParams, batch_locations, config: SystemConfig) -> NetParams:
    """Exact reverse-mode gradient of ``loss`` with respect to every parameter."""
    return loss_and_gradient(params, batch_locations, config)[1]


def loss_and_gradient(params: NetParams, batch_locations, config: SystemConfig):
    locs = _as_location_array(batch_locations)
    return _loss_and_grad(params, locs, config, channel_statistics(config), want_grad=True)


# ---------------------------------------------------------------------------
# training


@dataclass
class _AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def _adam_step(params: NetParams, grads: NetParams, state: _AdamState, cfg: TrainConfig) -> None:
    state.t += 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g**2
        step = cfg.learning_rate * (state.m[name] / corr1) / (np.sqrt(state.v[name] / corr2) + eps)
        getattr(params, name)[...] -= step


def _draw_locations(rng: np.random.Generator, n: int, region) -> np.ndarray:
    (x_lo, x_hi), (y_lo, y_hi) = region
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
    is invoked after each epoch when given. Aborts with an error after 5
    consecutive non-finite batch losses; a non-finite step leaves the weights
    and the Adam state as they were. A ``ue_region`` reaching within the
    reference distance of the BS or the surface is rejected before the first
    step. BLAS runs on one thread meanwhile.
    """
    _check_region(system, train_config.ue_region)
    stats = channel_statistics(system)
    rng = np.random.default_rng(train_config.seed)
    params = init_params(system.M, system.L, rng)
    state = _AdamState()
    fixed_set = None
    if not train_config.fresh_samples:
        fixed_set = _draw_locations(rng, train_config.samples_per_epoch, train_config.ue_region)
    history: list[float] = []
    bad_streak = 0
    for epoch in range(train_config.epochs):
        tick = time.perf_counter()
        if fixed_set is None:
            locations = _draw_locations(rng, train_config.samples_per_epoch, train_config.ue_region)
        else:
            locations = fixed_set[rng.permutation(len(fixed_set))]
        batch_losses = []
        for start in range(0, len(locations), train_config.batch_size):
            batch = locations[start : start + train_config.batch_size]
            value, grads = _loss_and_grad(params, batch, system, stats, want_grad=True)
            if math.isfinite(value):
                bad_streak = 0
                _adam_step(params, grads, state, train_config)
            else:
                bad_streak += 1
                if bad_streak >= 5:
                    raise NumericalError(
                        "training diverged: loss non-finite for 5 consecutive steps"
                    )
            batch_losses.append(value)
        mean_loss = float(np.mean(batch_losses))
        history.append(mean_loss)
        if progress is not None:
            progress(epoch, mean_loss, time.perf_counter() - tick)
    return params, history


# ---------------------------------------------------------------------------
# serialization and flattening helpers


def save_checkpoint(path: str, params: NetParams, seed: int | None = None) -> None:
    """Write a one-line JSON header plus little-endian float64 parameter blocks."""
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "M": params.M,
        "L": params.L,
        "hidden": params.hidden,
        "packing": _PACKING,
        "seed": seed,
        "fields": list(PARAM_FIELDS),
        "shapes": {name: list(getattr(params, name).shape) for name in PARAM_FIELDS},
    }
    header = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for name in PARAM_FIELDS:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


def load_checkpoint(path: str):
    """Inverse of save_checkpoint; returns (params, metadata dict).

    Every way a file can fail to be a checkpoint written by save_checkpoint
    (bad header, header sizes that disagree with the block shapes, a blob
    shorter or longer than those shapes, non-finite weights) raises
    ConfigError; only failing to read the file raises OSError.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    try:
        meta = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"not a checkpoint file: {path}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"not a checkpoint file: {path}")
    if meta.get("format") != _CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format in {path}: {meta.get('format')!r}")
    sizes = [meta.get(key) for key in ("M", "L", "hidden")]
    if not all(type(n) is int and n >= 1 for n in sizes):
        raise ConfigError(f"checkpoint {path} has invalid sizes M/L/hidden {sizes}")
    shapes = _param_shapes(*sizes)
    if meta.get("fields") != list(shapes) or meta.get("shapes") != {
        name: list(shape) for name, shape in shapes.items()
    }:
        raise ConfigError(
            f"checkpoint {path}: block shapes do not match M={sizes[0]}, L={sizes[1]}, "
            f"hidden={sizes[2]}"
        )
    expected = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != expected:
        kind = "truncated" if len(blob) < expected else "followed by trailing bytes"
        raise ConfigError(f"checkpoint {path} is {kind}: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f8").astype(float)
    if not np.isfinite(values).all():
        raise ConfigError(f"checkpoint {path} holds non-finite weights")
    arrays = {}
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = values[offset : offset + count].reshape(shape)
        offset += count
    return NetParams(**arrays), meta


def params_to_vector(params: NetParams) -> np.ndarray:
    return np.concatenate([getattr(params, name).ravel() for name in PARAM_FIELDS])


def vector_to_params(vec: np.ndarray, template: NetParams) -> NetParams:
    arrays = {}
    offset = 0
    for name in PARAM_FIELDS:
        ref = getattr(template, name)
        arrays[name] = vec[offset : offset + ref.size].reshape(ref.shape).copy()
        offset += ref.size
    return NetParams(**arrays)
