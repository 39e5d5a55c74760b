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

from .errors import ConfigError, NumericalError, _fits_in_memory

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
    "channel_statistics",
    "sample_realization",
    "sample_batch",
]


def dbm_to_mw(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0)


def mw_to_dbm(x_mw: float) -> float:
    if x_mw <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(x_mw)


def _finite(value) -> bool:
    if isinstance(value, (tuple, list, np.ndarray)):
        return all(map(_finite, value))
    return isinstance(value, int) or math.isfinite(value)  # ints are exact, and may exceed the float range


def _require_finite(config) -> None:
    """ConfigError naming the first field of the dataclass ``config`` that holds a NaN or an infinity."""
    for item in fields(config):
        value = getattr(config, item.name)
        if not _finite(value):
            raise ConfigError(f"{item.name} must be finite, got {value}")


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
        _require_finite(self)
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
        if self.ref_loss_db > 0.0:  # with every distance at least ref_dist, no gain then exceeds 1
            raise ConfigError(f"ref_loss_db must be <= 0 dB (a link cannot amplify), got {self.ref_loss_db}")
        for name in ("alpha_direct", "alpha_bs_irs", "alpha_irs_ue"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0 (a gain cannot grow with distance), got {getattr(self, name)}")

    @property
    def L(self) -> int:
        return self.L_h * self.L_v


# INI key -> (SystemConfig field, caster); powers are dBm in the file, mW in the field.
_SYSTEM_KEYS = {
    "m": ("M", int),
    "l_h": ("L_h", int),
    "l_v": ("L_v", int),
    "spacing_wl": ("spacing_wl", float),
    "eta": ("eta", float),
    "pos_bs_m": ("pos_bs", lambda s: _numbers(s, 3)),
    "pos_irs_m": ("pos_irs", lambda s: _numbers(s, 3)),
    "pos_ue_m": ("pos_ue", lambda s: _numbers(s, 3)),
    "power_a_dbm": ("power_a", lambda s: dbm_to_mw(float(s))),
    "power_b_dbm": ("power_b", lambda s: dbm_to_mw(float(s))),
    "noise_dbm": ("noise", lambda s: dbm_to_mw(float(s))),
    "ref_loss_db": ("ref_loss_db", float),
    "ref_dist_m": ("ref_dist", float),
    "alpha_direct": ("alpha_direct", float),
    "alpha_bs_irs": ("alpha_bs_irs", float),
    "alpha_irs_ue": ("alpha_irs_ue", float),
}


def irs_correlation(L_h: int, L_v: int, spacing_wl: float = 0.5) -> np.ndarray:
    """Spatial correlation matrix of an L_h x L_v planar reflecting surface.

    Element n sits at grid coordinates (y, z) = (n mod L_h, n // L_h) scaled by
    the spacing; the correlation between two elements is the radial sinc of
    their distance measured in half-wavelength units:
    sin(2*pi*d/lambda) / (2*pi*d/lambda), evaluated once per grid offset
    (|dy|, |dz|). A distance past the float range is a ConfigError.

    Returns
    -------
    np.ndarray
        (L, L) real symmetric matrix with unit diagonal, L = L_h * L_v.
    """
    if L_h < 1 or L_v < 1:
        raise ConfigError("surface grid must be at least 1x1")
    if spacing_wl <= 0.0:
        raise ConfigError("element spacing must be positive")
    dy, dz = np.arange(L_h), np.arange(L_v)
    with np.errstate(over="ignore"):  # an overflowing distance is rejected below, not warned about
        # np.sinc(x) = sin(pi x)/(pi x), so the argument is 2*d/lambda; one per offset, [|dz|, |dy|]
        half_wl = 2.0 * (spacing_wl * np.hypot(dy[None, :], dz[:, None]))
        if not np.isfinite(np.pi * half_wl).all():
            raise ConfigError(f"spacing_wl = {spacing_wl}: the distances across the surface overflow the float range")
    offset_y, offset_z = np.abs(dy[:, None] - dy), np.abs(dz[:, None] - dz)
    return np.sinc(half_wl)[offset_z[:, None, :, None], offset_y[None, :, None, :]].reshape(L_h * L_v, L_h * L_v)


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
    with np.errstate(over="ignore"):  # past a subnormal ref_dist the ratio is inf and the gain reads 0
        return 10.0 ** ((ref_loss_db - 10.0 * alpha * np.log10(dist / ref_dist)) / 10.0)


def link_gains(config: SystemConfig, ue_positions):
    """Path gains (beta_direct, beta_bs_irs, beta_irs_ue) of UE positions ``[..., 3]``.

    The two UE-side gains keep the leading shape of ``ue_positions``; the
    BS-surface gain is one scalar. This is the only place where geometry
    becomes link gains. A distance past the float range or below ``ref_dist``
    is a ConfigError naming its link.
    """
    ue = np.asarray(ue_positions, dtype=float)
    if ue.shape[-1:] != (3,):
        raise ConfigError(f"UE positions must be [..., 3], got shape {ue.shape}")
    bs = np.asarray(config.pos_bs, dtype=float)
    irs = np.asarray(config.pos_irs, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing distance is rejected below, not warned about
        dists = {
            "BS-UE": np.linalg.norm(ue - bs, axis=-1),
            "BS-surface": np.linalg.norm(irs - bs),
            "surface-UE": np.linalg.norm(ue - irs, axis=-1),
        }
    for link, dist in dists.items():
        if np.isinf(dist).any():
            raise ConfigError(f"{link} distance overflows the float range")
        if not np.all(dist >= config.ref_dist):
            raise ConfigError(f"{link} distance {dist.min()} below reference distance {config.ref_dist}")
    ref = (config.ref_loss_db, config.ref_dist)
    return (
        path_gain(dists["BS-UE"], config.alpha_direct, *ref),
        path_gain(dists["BS-surface"], config.alpha_bs_irs, *ref),
        path_gain(dists["surface-UE"], config.alpha_irs_ue, *ref),
    )


def _hermitian_part(mat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Symmetrize, rejecting asymmetry beyond ``tol`` relative to each matrix's scale.

    Matrices may be stacked over leading axes; each is judged on its own scale.
    """
    adj = np.swapaxes(mat, -1, -2).conj()
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1), initial=0.0))
    gap = np.abs(mat - adj).max(axis=(-2, -1), initial=0.0)
    if np.any(gap > tol * scale):
        raise NumericalError(f"matrix deviates from Hermitian by {float(np.max(gap)):.3e}")
    return 0.5 * (mat + adj)


def psd_sqrt(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Rejects inputs that are not Hermitian or have eigenvalues below
    ``-tol * scale``; tiny negative eigenvalues inside the tolerance are
    clipped to zero.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix square root requires a square matrix")
    w, v = _psd_eigh(_hermitian_part(mat, tol), tol)
    return (v * np.sqrt(w)) @ v.conj().T


def _psd_eigh(mat: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, eigenvectors) of Hermitian ``mat``, judged positive semidefinite.

    An eigenvalue below ``-tol`` times max(1, largest entry) is a
    NumericalError; negatives inside that are roundoff and clipped to 0.
    """
    w, v = np.linalg.eigh(mat)
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if w.min() < -tol * scale:
        raise NumericalError(f"matrix is indefinite (min eigenvalue {w.min():.3e})")
    return np.clip(w, 0.0, None), v


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
        """PSD square root of R_bs, from ``R_bs_eigh`` so that R_bs is judged once."""
        w, v = self.R_bs_eigh
        return (v * np.sqrt(w)) @ v.conj().T

    @cached_property
    def R_bs_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """R_bs = U diag(lam) U^H as (lam ascending, U); NumericalError unless R_bs is Hermitian
        to 1e-8 and positive semidefinite to 1e-10 of its scale. Roundoff negatives in lam read 0."""
        return _psd_eigh(_hermitian_part(self.R_bs), 1e-10)

    @cached_property
    def R_irs_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.R_irs)


def channel_statistics(config: SystemConfig, pos_ue: tuple[float, float, float] | None = None) -> ChannelStatistics:
    """Evaluate correlation matrices and link gains for ``config``.

    ``pos_ue`` overrides the configured UE position; correlation matrices only
    depend on array geometry, so they are identical across UE positions.
    """
    beta_direct, beta_bs_irs, beta_irs_ue = link_gains(config, config.pos_ue if pos_ue is None else pos_ue)
    if beta_direct == 0.0 and beta_bs_irs * beta_irs_ue == 0.0:
        raise ConfigError(
            f"no signal path: the BS-UE link gain ({beta_direct:.3e}) and the BS-surface-UE cascade gain "
            f"({beta_bs_irs:.3e} x {beta_irs_ue:.3e}) both underflow to 0"
        )
    with _fits_in_memory(f"correlation matrices for M={config.M}, L={config.L}"):
        r_bs = bs_correlation(config.eta, config.M)
        r_irs = irs_correlation(config.L_h, config.L_v, config.spacing_wl)
    return ChannelStatistics(
        R_bs=r_bs,
        R_irs=r_irs,
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


def _iid_factors(stats: ChannelStatistics, n: int, rng: np.random.Generator):
    """The i.i.d. factors (h_iid [n, M], g_re, g_im [n, M, L], f_iid [n, L]) of ``n`` realizations.

    They are drawn in this order, the package's one. h_iid and f_iid carry their link gains;
    g_re and g_im are standard normal, so g_iid = sqrt(beta_bs_irs / 2) (g_re + 1j g_im).
    """
    M, L = stats.M, stats.L
    h_iid = _complex_normal(rng, n * M, stats.beta_direct).reshape(n, M)
    g_re = rng.standard_normal((n, M, L))
    g_im = rng.standard_normal((n, M, L))
    f_iid = _complex_normal(rng, n * L, stats.beta_irs_ue).reshape(n, L)
    return h_iid, g_re, g_im, f_iid


def sample_realization(stats: ChannelStatistics, rng: np.random.Generator) -> ChannelRealization:
    """Draw one correlated realization of all links: row 0 of ``sample_batch(stats, 1, rng)``."""
    h, G, f = (x[0] for x in sample_batch(stats, 1, rng))
    return ChannelRealization(h=h, G=G, f=f, cascade=np.concatenate([h, (G * f).ravel(order="F")]))


def sample_batch(stats: ChannelStatistics, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` independent realizations (h, G, f), shapes (n, M), (n, M, L), (n, L).

    Correlation is applied by multiplying the factors of ``_iid_factors`` with the PSD square roots.
    """
    h_iid, g_re, g_im, f_iid = _iid_factors(stats, n, rng)
    G = stats.R_bs_sqrt @ (np.sqrt(stats.beta_bs_irs / 2.0) * (g_re + 1j * g_im)) @ stats.R_irs_sqrt
    return h_iid @ stats.R_bs_sqrt.T, G, f_iid @ stats.R_irs_sqrt.T


def _numbers(raw: str, count: int | None = None) -> tuple[float, ...]:
    """The floats of a comma- or space-separated list; ValueError unless there are ``count`` of them."""
    values = tuple(float(p) for p in raw.replace(",", " ").split())
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} numbers, got {len(values)}")
    return values


def _read_ini(path: str) -> configparser.ConfigParser:
    """Parse an INI file; OSError passes through, anything unparsable is a ConfigError."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parser


def _parse_section(parser: configparser.ConfigParser, name: str, keys: dict) -> dict:
    """Dataclass keyword arguments from section ``name``; empty when the section is absent.

    ``keys`` maps each accepted INI key to (field, caster). An unknown key, or
    a value its caster rejects, is a ConfigError naming ``<name>.<key>``.
    """
    if not parser.has_section(name):
        return {}
    section = parser[name]
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    kwargs = {}
    for key in section:
        field, caster = keys[key]
        try:
            kwargs[field] = caster(section[key])
        # KeyError: an unknown word; OverflowError: dBm past ~3080; configparser.Error: bad %-interpolation
        except (ValueError, KeyError, OverflowError, configparser.Error) as exc:
            raise ConfigError(f"bad value for {name}.{key}: {parser.get(name, key, raw=True)!r}") from exc
    return kwargs
