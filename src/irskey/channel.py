"""System geometry, spatial correlation models, and correlated channel sampling.

All powers are linear milliwatts internally; config files use dBm / dB and are
converted on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "SystemConfig",
    "ChannelStatistics",
    "ChannelRealization",
    "dbm_to_mw",
    "mw_to_dbm",
    "irs_correlation",
    "bs_correlation",
    "path_gain",
    "link_gains",
    "psd_sqrt",
    "cascade_covariance",
    "channel_statistics",
    "sample_realization",
    "sample_batch",
    "load_system_config",
]


def dbm_to_mw(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0)


def mw_to_dbm(x_mw: float) -> float:
    if x_mw <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(x_mw)


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one key-generation setup.

    Positions are metres, powers linear mW, ``spacing_wl`` is the surface
    element spacing in wavelengths. Every value and coordinate must be finite.
    """

    M: int = 4
    L_h: int = 5
    L_v: int = 5
    spacing_wl: float = 0.5
    eta: float = 0.3
    pos_bs: tuple[float, float, float] = (5.0, -35.0, 0.0)
    pos_irs: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pos_ue: tuple[float, float, float] = (10.0, 10.0, 0.0)
    power_a: float = 10.0
    power_b: float = 10.0
    noise: float = 1e-9
    ref_loss_db: float = -30.0
    ref_dist: float = 1.0
    alpha_direct: float = 3.67
    alpha_bs_irs: float = 2.0
    alpha_irs_ue: float = 2.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"{item.name} must be finite, got {value}")
        if self.M < 1:
            raise ConfigError(f"antenna count must be >= 1, got {self.M}")
        if self.L_h < 1 or self.L_v < 1:
            raise ConfigError(f"surface grid must be >= 1x1, got {self.L_h}x{self.L_v}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"antenna correlation must lie in [0, 1), got {self.eta}")
        if self.spacing_wl <= 0.0:
            raise ConfigError("element spacing must be positive")
        for name in ("power_a", "power_b", "noise"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive in linear scale")
        if self.ref_dist <= 0.0:
            raise ConfigError("reference distance must be positive")

    @property
    def L(self) -> int:
        return self.L_h * self.L_v


def irs_correlation(L_h: int, L_v: int, spacing_wl: float = 0.5) -> np.ndarray:
    """Spatial correlation matrix of an L_h x L_v planar reflecting surface.

    Element n sits at grid coordinates (y, z) = (n mod L_h, n // L_h) scaled by
    the spacing; the correlation between two elements is the radial sinc of
    their distance measured in half-wavelength units:
    sin(2*pi*d/lambda) / (2*pi*d/lambda).

    Returns
    -------
    np.ndarray
        (L, L) real symmetric matrix with unit diagonal, L = L_h * L_v.
    """
    if L_h < 1 or L_v < 1:
        raise ConfigError("surface grid must be at least 1x1")
    if spacing_wl <= 0.0:
        raise ConfigError("element spacing must be positive")
    n = np.arange(L_h * L_v)
    y = n % L_h
    z = n // L_h
    dist_wl = spacing_wl * np.hypot(y[:, None] - y[None, :], z[:, None] - z[None, :])
    # np.sinc(x) = sin(pi x)/(pi x), so the argument is 2*d/lambda.
    return np.sinc(2.0 * dist_wl)


def bs_correlation(eta: float, M: int) -> np.ndarray:
    """Exponential antenna correlation matrix [eta^|m-n|] of size M x M."""
    if not 0.0 <= eta < 1.0:
        raise ConfigError(f"antenna correlation must lie in [0, 1), got {eta}")
    if M < 1:
        raise ConfigError("antenna count must be >= 1")
    n = np.arange(M)
    return eta ** np.abs(n[:, None] - n[None, :])


def path_gain(dist, alpha: float, ref_loss_db: float = -30.0, ref_dist: float = 1.0):
    """Linear power gain of links of length ``dist`` (scalar or array) with exponent ``alpha``.

    The gain at the reference distance is ``ref_loss_db`` and decays as
    ``-10 * alpha * log10(dist / ref_dist)`` dB beyond it. Any distance below
    ``ref_dist``, or NaN, is a ConfigError.
    """
    dist = np.asarray(dist, dtype=float)
    if not np.all(dist >= ref_dist):
        raise ConfigError(f"link distance {dist.min()} below reference distance {ref_dist}")
    return 10.0 ** ((ref_loss_db - 10.0 * alpha * np.log10(dist / ref_dist)) / 10.0)


def link_gains(config: SystemConfig, ue_positions):
    """Path gains (beta_direct, beta_bs_irs, beta_irs_ue) of UE positions ``[..., 3]``.

    The two UE-side gains keep the leading shape of ``ue_positions``; the
    BS-surface gain is one scalar. This is the only place where geometry
    becomes link gains.
    """
    ue = np.asarray(ue_positions, dtype=float)
    if ue.shape[-1:] != (3,):
        raise ConfigError(f"UE positions must be [..., 3], got shape {ue.shape}")
    bs = np.asarray(config.pos_bs, dtype=float)
    irs = np.asarray(config.pos_irs, dtype=float)
    ref = (config.ref_loss_db, config.ref_dist)
    return (
        path_gain(np.linalg.norm(ue - bs, axis=-1), config.alpha_direct, *ref),
        path_gain(np.linalg.norm(irs - bs), config.alpha_bs_irs, *ref),
        path_gain(np.linalg.norm(ue - irs, axis=-1), config.alpha_irs_ue, *ref),
    )


def psd_sqrt(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Rejects inputs that are not Hermitian or have eigenvalues below
    ``-tol * scale``; tiny negative eigenvalues inside the tolerance are
    clipped to zero.
    """
    mat = np.asarray(mat)
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix square root requires a square matrix")
    if np.abs(mat - mat.conj().T).max(initial=0.0) > tol * scale:
        raise NumericalError("matrix square root requires a Hermitian input")
    w, v = np.linalg.eigh(mat)
    if w.min() < -tol * scale:
        raise NumericalError(f"matrix is indefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    if np.isrealobj(mat):
        root = root.real
    return root


@dataclass(frozen=True)
class ChannelStatistics:
    """Second-order statistics of the three links for a fixed UE position."""

    R_bs: np.ndarray      # (M, M) antenna correlation
    R_irs: np.ndarray     # (L, L) surface correlation
    beta_direct: float    # BS-UE link gain
    beta_bs_irs: float    # BS-surface link gain (per element)
    beta_irs_ue: float    # surface-UE link gain

    @property
    def M(self) -> int:
        return self.R_bs.shape[0]

    @property
    def L(self) -> int:
        return self.R_irs.shape[0]

    @cached_property
    def R_bs_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.R_bs)

    @cached_property
    def R_irs_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.R_irs)

    @cached_property
    def cascade_cov(self) -> np.ndarray:
        return cascade_covariance(self)


def cascade_covariance(stats: ChannelStatistics) -> np.ndarray:
    """Covariance of the stacked channel [h; vec(G dg(f))], size M(L+1) square.

    The direct block is beta_direct * R_bs; the reflected block is
    beta_bs_irs * beta_irs_ue * kron(R_irs o R_irs, R_bs) where ``o`` is the
    elementwise product. Cross blocks vanish because the links are independent
    and zero mean.
    """
    M, L = stats.M, stats.L
    dim = M * (L + 1)
    cov = np.zeros((dim, dim))
    cov[:M, :M] = stats.beta_direct * stats.R_bs
    cov[M:, M:] = stats.beta_bs_irs * stats.beta_irs_ue * np.kron(
        stats.R_irs * stats.R_irs, stats.R_bs
    )
    return cov


def channel_statistics(config: SystemConfig, pos_ue: tuple[float, float, float] | None = None) -> ChannelStatistics:
    """Evaluate correlation matrices and link gains for ``config``.

    ``pos_ue`` overrides the configured UE position; correlation matrices only
    depend on array geometry, so they are identical across UE positions.
    """
    beta_direct, beta_bs_irs, beta_irs_ue = link_gains(config, config.pos_ue if pos_ue is None else pos_ue)
    return ChannelStatistics(
        R_bs=bs_correlation(config.eta, config.M),
        R_irs=irs_correlation(config.L_h, config.L_v, config.spacing_wl),
        beta_direct=float(beta_direct),
        beta_bs_irs=float(beta_bs_irs),
        beta_irs_ue=float(beta_irs_ue),
    )


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the three links plus the stacked cascade vector."""

    h: np.ndarray        # (M,) direct channel
    G: np.ndarray        # (M, L) BS-surface channel
    f: np.ndarray        # (L,) surface-UE channel
    cascade: np.ndarray  # (M*(L+1),) equals [h; vec(G dg(f))]


def _complex_normal(rng: np.random.Generator, size: int, var: float) -> np.ndarray:
    # Real block drawn before imaginary block; each has variance var/2.
    scale = np.sqrt(var / 2.0)
    out = np.empty(size, dtype=complex)
    np.multiply(rng.standard_normal(size), scale, out=out.real)
    np.multiply(rng.standard_normal(size), scale, out=out.imag)
    return out


def sample_realization(stats: ChannelStatistics, rng: np.random.Generator) -> ChannelRealization:
    """Draw one correlated realization of all links.

    Draw order is fixed: direct vector, then the BS-surface matrix in
    column-major element order, then the surface-UE vector. Correlation is
    applied by multiplying i.i.d. factors with the PSD square roots.
    """
    M, L = stats.M, stats.L
    h_iid = _complex_normal(rng, M, stats.beta_direct)
    g_iid = _complex_normal(rng, M * L, stats.beta_bs_irs).reshape((M, L), order="F")
    f_iid = _complex_normal(rng, L, stats.beta_irs_ue)
    h = stats.R_bs_sqrt @ h_iid
    G = stats.R_bs_sqrt @ g_iid @ stats.R_irs_sqrt
    f = stats.R_irs_sqrt @ f_iid
    cascade = np.concatenate([h, (G * f[None, :]).ravel(order="F")])
    return ChannelRealization(h=h, G=G, f=f, cascade=cascade)


def sample_batch(stats: ChannelStatistics, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draw of ``n`` independent realizations.

    Returns (h, G, f) with shapes (n, M), (n, M, L), (n, L). Statistically
    identical to repeated ``sample_realization`` calls but with its own draw
    order, so streams do not interleave.
    """
    M, L = stats.M, stats.L
    h_iid = _complex_normal(rng, n * M, stats.beta_direct).reshape(n, M)
    g_iid = _complex_normal(rng, n * M * L, stats.beta_bs_irs).reshape(n, M, L)
    f_iid = _complex_normal(rng, n * L, stats.beta_irs_ue).reshape(n, L)
    h = h_iid @ stats.R_bs_sqrt.T
    G = stats.R_bs_sqrt @ g_iid @ stats.R_irs_sqrt
    f = f_iid @ stats.R_irs_sqrt.T
    return h, G, f


def _parse_position(raw: str, key: str) -> tuple[float, float, float]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ConfigError(f"{key} must hold three coordinates, got {raw!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key} has a non-numeric coordinate: {raw!r}") from exc
    return (x, y, z)


def _read_ini(path: str) -> configparser.ConfigParser:
    """Parse an INI file; OSError passes through, anything unparsable is a ConfigError."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parser


_SYSTEM_KEYS = {
    "m": ("M", int),
    "l_h": ("L_h", int),
    "l_v": ("L_v", int),
    "spacing_wl": ("spacing_wl", float),
    "eta": ("eta", float),
    "pos_bs_m": ("pos_bs", lambda s: _parse_position(s, "pos_bs_m")),
    "pos_irs_m": ("pos_irs", lambda s: _parse_position(s, "pos_irs_m")),
    "pos_ue_m": ("pos_ue", lambda s: _parse_position(s, "pos_ue_m")),
    "power_a_dbm": ("power_a", lambda s: dbm_to_mw(float(s))),
    "power_b_dbm": ("power_b", lambda s: dbm_to_mw(float(s))),
    "noise_dbm": ("noise", lambda s: dbm_to_mw(float(s))),
    "ref_loss_db": ("ref_loss_db", float),
    "ref_dist_m": ("ref_dist", float),
    "alpha_direct": ("alpha_direct", float),
    "alpha_bs_irs": ("alpha_bs_irs", float),
    "alpha_irs_ue": ("alpha_irs_ue", float),
}


def _parse_system_section(section) -> SystemConfig:
    kwargs: dict = {}
    for key, (dest, caster) in _SYSTEM_KEYS.items():
        if key in section:
            try:
                kwargs[dest] = caster(section[key])
            except (ValueError, OverflowError) as exc:  # 10**(dBm/10) overflows past ~3080 dBm
                raise ConfigError(f"bad value for system.{key}: {section[key]!r}") from exc
    unknown = set(section) - set(_SYSTEM_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in [system]: {sorted(unknown)}")
    return SystemConfig(**kwargs)


def load_system_config(path: str) -> SystemConfig:
    """Read a ``[system]`` section from an INI file into a SystemConfig.

    Power-like keys are given in dBm (``power_a_dbm``, ``power_b_dbm``,
    ``noise_dbm``) and converted to linear mW. Missing keys fall back to the
    dataclass defaults.
    """
    parser = _read_ini(path)
    return _parse_system_section(parser["system"]) if parser.has_section("system") else SystemConfig()
