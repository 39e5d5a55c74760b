"""Secret key rate evaluators: exact closed form, eigenmode approximation, Monte Carlo.

The SKR of one probing round is the Gaussian mutual information between the
two observations. It is computed from the joint observation covariance as
logdet(R_a) + logdet(R_b) - logdet(R_joint), in bits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import single_blas_thread
from .channel import ChannelStatistics, _complex_normal
from .errors import ConfigError, NumericalError
from .probing import ProbeDesign, dft_pilot

__all__ = [
    "SkrReport",
    "closed_form_bits",
    "combined_covariance",
    "effective_variance",
    "skr_closed_form",
    "skr_approximate",
    "skr_monte_carlo",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SkrReport:
    """A single SKR figure in bits per probing round."""

    bits: float
    method: str
    std_error: float | None = None


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


def _logdet_psd(mat: np.ndarray) -> np.ndarray:
    """log det of Hermitian positive definite matrices, stacked over leading axes."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance is not positive definite: {exc}") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.log(diag).sum(axis=-1)


def _mi_bits_from_joint(joint: np.ndarray) -> np.ndarray:
    """Gaussian mutual information (bits) from a 2M x 2M joint covariance."""
    two_m = joint.shape[-1]
    m = two_m // 2
    ld_a = _logdet_psd(_hermitian_part(joint[..., :m, :m]))
    ld_b = _logdet_psd(_hermitian_part(joint[..., m:, m:]))
    ld_j = _logdet_psd(_hermitian_part(joint))
    return (ld_a + ld_b - ld_j) / _LN2


def _assemble_joint(r_z: np.ndarray, gram: np.ndarray, power_b: float, noise: float) -> np.ndarray:
    """Joint covariance of (y_a, y_b) from the signal covariance and noise Gram."""
    m = r_z.shape[-1]
    eye = np.eye(m)
    cross = np.sqrt(power_b) * r_z
    joint = np.empty(r_z.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    joint[..., :m, :m] = power_b * r_z + noise * gram
    joint[..., :m, m:] = cross
    joint[..., m:, :m] = np.swapaxes(cross, -1, -2).conj()
    joint[..., m:, m:] = r_z + noise * eye
    return joint


def _signal_covariance(precoders: np.ndarray, phases: np.ndarray, stats: ChannelStatistics) -> np.ndarray:
    """var(phases) * P^T R_bs P^*, with precoders and phases stacked over leading axes.

    The cascade covariance is block diagonal with reflected block
    beta_bs_irs * beta_irs_ue * kron(R_irs o R_irs, R_bs), so its sandwich with
    kron(phases_ext, P) collapses to the antenna correlation scaled by the
    quadratic form of the squared surface correlation. The identity holds for
    any phases; unit modulus is not required.
    """
    p = np.asarray(precoders)
    theta = np.asarray(phases)
    squared_corr = stats.R_irs * stats.R_irs
    quad = np.real(np.sum(theta.conj() * (theta @ squared_corr), axis=-1))
    var = stats.beta_direct + stats.beta_bs_irs * stats.beta_irs_ue * quad
    return var[..., None, None] * (np.swapaxes(p, -1, -2) @ stats.R_bs @ p.conj())


def combined_covariance(design: ProbeDesign, stats: ChannelStatistics) -> np.ndarray:
    """Covariance of the noiseless combined observation P^T (h + G dg(phases) f).

    Equals the sandwich of the cascade covariance with kron(phases_ext, P),
    evaluated in the factored form var(phases) * P^T R_bs P^* without building
    the M(L+1)-square cascade covariance.
    """
    return _signal_covariance(design.precoder, design.phases, stats)


def effective_variance(phases: np.ndarray, stats: ChannelStatistics) -> float:
    """Per-antenna variance of the combined channel for given reflection phases.

    Equals beta_direct plus the surface contribution through the quadratic form
    of the squared surface correlation. Real and positive for unit-modulus
    phases.
    """
    theta = np.asarray(phases)
    mod_err = np.abs(np.abs(theta) - 1.0).max(initial=0.0)
    if mod_err > 1e-6:
        raise ConfigError(f"reflection coefficients deviate from unit modulus by {mod_err:.3e}")
    squared_corr = stats.R_irs * stats.R_irs
    quad = float(np.real(theta.conj() @ squared_corr @ theta))
    return stats.beta_direct + stats.beta_bs_irs * stats.beta_irs_ue * quad


_RANK_RTOL = 1e-12  # Gram eigenmodes below this fraction of the largest carry no signal
# A key rate is a difference of two log-determinants; a negative result within
# this fraction of their summed magnitudes (in bits) is roundoff and reads as 0.
_CLAMP_RTOL = 1e-10


def _nonnegative_bits(bits: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Clamp roundoff-level negative rates to 0; reject larger ones and non-finite ones."""
    bits = np.asarray(bits, dtype=float)
    if not np.isfinite(bits).all():
        raise NumericalError("key rate is not finite")
    beyond = bits < -_CLAMP_RTOL * np.asarray(scale)
    if np.any(beyond):
        raise NumericalError(
            f"key rate {float(bits[beyond].min()):.3e} bits is negative beyond roundoff"
        )
    return np.where(bits <= 0.0, 0.0, bits)


def closed_form_bits(
    precoders: np.ndarray,
    phases: np.ndarray,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
) -> np.ndarray:
    """Exact SKR in bits of K designs: precoders [K, M, M], phases [K, L] -> [K].

    Evaluates logdet(R_b) - logdet(R_b|a) in the eigenbasis of each precoder
    Gram matrix. The conditional covariance is assembled through the
    push-through identity, so every block is a sum of positive semidefinite
    pieces; the naive three-logdet combination cancels catastrophically once
    the two observations are nearly deterministic functions of each other.
    Uplink observation components outside the precoder row space have zero
    variance and carry no information, so the evaluation restricts to that
    subspace; power-starved designs (e.g. water-filling at low SNR) stay
    evaluable, and the retained Gram eigenmodes have dynamic range below
    1/_RANK_RTOL by construction.

    The retained rank differs between samples, so it is applied as a mask:
    dropped modes get identity rows and columns in the restricted uplink
    covariance and zero right-hand-side rows, which leaves the kept block's
    solve unchanged and zeroes the dropped rows of its solution.
    """
    p = np.asarray(precoders)
    gram = _hermitian_part(np.swapaxes(p, -1, -2) @ p.conj())
    if not np.isfinite(gram).all():
        raise NumericalError("precoder Gram matrix has non-finite entries")
    evals, evecs = np.linalg.eigh(gram)
    lam = evals[..., ::-1]
    basis = evecs[..., ::-1]
    top = lam[..., :1]
    live = top[..., 0] > 0.0  # a zero precoder observes nothing: 0 bits
    r_z = _hermitian_part(_signal_covariance(p, phases, stats))
    scale = np.maximum(1.0, np.abs(r_z).max(axis=(-2, -1), initial=0.0))
    eig_min = np.linalg.eigvalsh(r_z)[..., 0]
    if np.any(eig_min < -1e-10 * scale):
        raise NumericalError(f"signal covariance indefinite (min eigenvalue {float(eig_min.min()):.3e})")
    m = gram.shape[-1]
    eye = np.eye(m)
    keep = (lam > _RANK_RTOL * top) & live[..., None]
    keep_i = keep[..., :, None]
    keep_j = keep[..., None, :]
    z_rot = np.swapaxes(basis, -1, -2).conj() @ r_z @ basis
    z_rot = 0.5 * (z_rot + np.swapaxes(z_rot, -1, -2).conj())
    r_a = np.where(keep_i & keep_j, power_b * z_rot + noise * (lam[..., None] * eye), eye)
    try:
        x = np.linalg.solve(r_a, np.where(keep_i, z_rot, 0.0))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"restricted uplink covariance is singular: {exc}") from exc
    # conditional covariance of y_b given y_a, in units of the noise power:
    # kept rows I + Lambda_k X, the coupling mirrored below them, and a dropped
    # block carrying only the (unobserved) residual signal
    scaled = lam[..., :, None] * x
    residual = (z_rot - power_b * z_rot @ x) / noise
    mirrored = np.swapaxes(scaled, -1, -2).conj()
    cond = eye + np.where(keep_i, scaled, np.where(keep_j, mirrored, residual))
    cond = 0.5 * (cond + np.swapaxes(cond, -1, -2).conj())  # solver roundoff only
    ld_b = _logdet_psd(z_rot + noise * eye)
    ld_cond = _logdet_psd(cond) + m * math.log(noise)
    bits = np.where(live, (ld_b - ld_cond) / _LN2, 0.0)
    return _nonnegative_bits(bits, (np.abs(ld_b) + np.abs(ld_cond)) / _LN2)


def skr_closed_form(design: ProbeDesign, stats: ChannelStatistics, power_b: float, noise: float) -> SkrReport:
    """Exact SKR of the probing round for an arbitrary design (``closed_form_bits`` with K = 1)."""
    bits = closed_form_bits(design.precoder[None], design.phases[None], stats, power_b, noise)
    return SkrReport(bits=float(bits[0]), method="closed_form")


def skr_approximate(
    precoder_norm: np.ndarray,
    phases: np.ndarray,
    stats: ChannelStatistics,
    power_a: float,
    power_b: float,
    noise: float,
) -> SkrReport:
    """SKR with the noise Gram matrix replaced by its power-budget average.

    ``precoder_norm`` is the unit-budget precoder (trace of its Gram equal to
    M); the actual precoder is sqrt(power_a) times it. The result decomposes
    over the eigenvalues of precoder_norm^T R_bs precoder_norm^*, which is how
    it is evaluated.
    """
    p_e = np.asarray(precoder_norm)
    m = p_e.shape[0]
    budget = float(np.sum(np.abs(p_e) ** 2))
    if abs(budget - m) > 1e-6 * m:
        raise ConfigError(f"normalized precoder power {budget:.6e} misses budget {m}")
    var = effective_variance(phases, stats)
    sandwich = _hermitian_part(p_e.T @ stats.R_bs @ p_e.conj())
    q = np.linalg.eigvalsh(sandwich)
    if q.min() < -1e-10:
        raise NumericalError("precoder sandwich matrix indefinite")
    q = np.clip(q, 0.0, None)
    sig = power_a * var * q
    num = np.log2(power_b * sig + noise * power_a) + np.log2(sig + noise)
    den = np.log2(noise * power_b * sig + noise * power_a * sig + power_a * noise**2)
    bits = _nonnegative_bits(np.sum(num - den), np.sum(np.abs(num) + np.abs(den)))
    return SkrReport(bits=float(bits), method="approximate")


def _batch_second_moment(
    design: ProbeDesign,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unnormalized 2M x 2M second moment of n simulated observation pairs [y_a, y_b].

    Draws in ``sample_batch`` order (h, g, f), then the BS noise, then the UE
    noise, but never forms G = R_bs^1/2 g R_irs^1/2: per round, in row form,
    h + G dg(phases) f = (h_iid + g v) R_bs^1/2^T with
    v = (phases o (f_iid R_irs^1/2^T)) R_irs^1/2^T, and g stays as its real
    and imaginary blocks.
    """
    m, l = stats.M, stats.L
    h_iid = _complex_normal(rng, n * m, stats.beta_direct).reshape(n, m)
    g_re = rng.standard_normal((n, m, l))
    g_im = rng.standard_normal((n, m, l))
    f_iid = _complex_normal(rng, n * l, stats.beta_irs_ue).reshape(n, l)
    noise_a = _complex_normal(rng, n * m, noise).reshape(n, m)
    noise_b = _complex_normal(rng, n * m, noise).reshape(n, m)
    r_irs = stats.R_irs_sqrt.T
    v = np.sqrt(stats.beta_bs_irs / 2.0) * ((design.phases * (f_iid @ r_irs)) @ r_irs)
    gv_re = np.einsum("nml,nl->nm", g_re, v.real) - np.einsum("nml,nl->nm", g_im, v.imag)
    gv_im = np.einsum("nml,nl->nm", g_re, v.imag) + np.einsum("nml,nl->nm", g_im, v.real)
    signal = ((h_iid + gv_re + 1j * gv_im) @ stats.R_bs_sqrt.T) @ design.precoder  # P^T c per round
    y_a = np.sqrt(power_b) * signal + noise_a @ design.precoder
    y_b = signal + noise_b @ dft_pilot(m)
    z = np.concatenate([y_a, y_b], axis=1)
    return z.T @ z.conj()


def skr_monte_carlo(
    design: ProbeDesign,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
    n_samples: int,
    rng: np.random.Generator,
    n_batches: int = 10,
) -> SkrReport:
    """Estimate the SKR by simulating probing rounds and plugging in sample covariances.

    ``n_samples`` must split evenly over ``n_batches`` independent child
    streams, with at least 2M samples in each. Batches run on a thread pool
    (at most one thread per CPU and per batch) with OpenBLAS on one thread,
    and their moments are combined in batch order, so the result does not
    depend on the pool size. The point estimate uses the pooled sample
    covariance; the standard error is the batch-means estimate, so it shrinks
    like 1/sqrt(n_samples). Only the covariance is simulated: the estimate is
    the Gaussian formula at the sample covariance, which does not test whether
    the observations are Gaussian.
    """
    if n_samples < 10_000:
        raise ConfigError(f"Monte Carlo needs at least 10000 samples, got {n_samples}")
    if n_batches < 2:
        raise ConfigError("Monte Carlo needs at least 2 batches")
    per_batch, remainder = divmod(n_samples, n_batches)
    if remainder:
        raise ConfigError(f"{n_samples} samples do not split evenly over {n_batches} batches")
    if per_batch < 2 * design.M:
        raise ConfigError(
            f"{per_batch} samples per batch cannot estimate a {2 * design.M}-square covariance"
        )
    streams = rng.spawn(n_batches)
    with single_blas_thread(), ThreadPoolExecutor(min(n_batches, os.cpu_count() or 1)) as pool:
        moments = list(
            pool.map(lambda s: _batch_second_moment(design, stats, power_b, noise, per_batch, s), streams)
        )
    batch_bits = np.empty(n_batches)
    for b, moment in enumerate(moments):
        try:
            batch_bits[b] = _mi_bits_from_joint(moment / per_batch)
        except NumericalError as exc:
            raise NumericalError(
                f"singular sample covariance in batch {b}; increase n_samples"
            ) from exc
    bits = float(_mi_bits_from_joint(sum(moments) / n_samples))
    std_error = float(np.std(batch_bits, ddof=1) / np.sqrt(n_batches))
    if not (math.isfinite(bits) and math.isfinite(std_error)):
        raise NumericalError(f"Monte Carlo estimate {bits} bits (std error {std_error}) is not finite")
    return SkrReport(bits=bits, method="monte_carlo", std_error=std_error)
