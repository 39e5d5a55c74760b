"""Secret key rate evaluators: exact closed form, eigenmode approximation, Monte Carlo.

The SKR of one probing round is the Gaussian mutual information between the
two observations, in bits. The closed form and the trainer's loss share one
core, ``_gaussian_mi`` (logdet(R_b) - logdet(R_b|a) through the push-through
identity, with cogradients on request); only Monte Carlo uses the three-logdet
form logdet(R_a) + logdet(R_b) - logdet(R_joint), on sample covariances.
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
    "per_mode_objective",
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


def _is_positive_definite(mat: np.ndarray) -> bool:
    """Whether every stacked Hermitian matrix has a finite Cholesky factor (NaN passes LAPACK)."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(mat)).all())
    except np.linalg.LinAlgError:
        return False


def _mi_bits_from_joint(joint: np.ndarray) -> np.ndarray:
    """Gaussian mutual information (bits) from a 2M x 2M joint covariance."""
    two_m = joint.shape[-1]
    m = two_m // 2
    ld_a = _logdet_psd(_hermitian_part(joint[..., :m, :m]))
    ld_b = _logdet_psd(_hermitian_part(joint[..., m:, m:]))
    ld_j = _logdet_psd(_hermitian_part(joint))
    return (ld_a + ld_b - ld_j) / _LN2


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


def _gaussian_mi(r_z: np.ndarray, gram: np.ndarray, power_b: float, noise: float, keep=None, want_grad=False):
    """Gaussian mutual information in nats of probing rounds stacked over leading axes.

    With noise Gram G and uplink covariance R_a = power_b R_z + N G,
    MI = logdet(R_z + N I) - M log N - logdet(S) with S = I + G R_a^-1 R_z =
    R_b|a / N (push-through identity): both log-determinants are of
    identity-plus-PSD matrices, so nothing cancels at high SNR.

    ``keep`` (boolean [..., M], for a diagonal G) restricts the uplink to the
    modes it marks: dropped modes get identity rows and columns in R_a and zero
    right-hand-side rows, which leaves the kept block's solve unchanged.

    Returns (nats, magnitude, k_z, k_g); ``magnitude`` = |logdet R_b| +
    |logdet R_b|a| scales the roundoff of ``nats``. With ``want_grad`` (no
    mask), dMI = tr(k_z dR_z) + tr(k_g dG) with k_z = R_b^-1 - N X S^-1 X^H and
    k_g = -power_b W S^-1 W^H, where X = R_a^-1 G and W = R_a^-1 R_z come from
    one solve; otherwise both are None. Singular or non-PD covariances raise
    NumericalError.
    """
    m = r_z.shape[-1]
    eye = np.eye(m)
    r_a = power_b * r_z + noise * gram
    rhs = r_z
    if keep is not None:
        keep_i = keep[..., :, None]
        keep_j = keep[..., None, :]
        r_a = np.where(keep_i & keep_j, r_a, eye)
        rhs = np.where(keep_i, r_z, 0.0)
    if want_grad:
        rhs = np.concatenate([gram, rhs], axis=-1)
    try:
        sol = np.linalg.solve(r_a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"uplink covariance is singular: {exc}") from exc
    w = sol[..., -m:]
    if keep is None:
        s = gram @ w
    else:
        # kept rows I + G_k W, the coupling mirrored below them, and a dropped
        # block carrying only the (unobserved) residual signal
        s = np.diagonal(gram, axis1=-2, axis2=-1)[..., :, None] * w
        residual = (r_z - power_b * r_z @ w) / noise
        s = np.where(keep_i, s, np.where(keep_j, np.swapaxes(s, -1, -2).conj(), residual))
    s = eye + s
    s = 0.5 * (s + np.swapaxes(s, -1, -2).conj())  # solver roundoff only
    ld_b = _logdet_psd(r_z + noise * eye)
    ld_cond = _logdet_psd(s) + m * math.log(noise)
    nats = ld_b - ld_cond
    magnitude = np.abs(ld_b) + np.abs(ld_cond)
    if not want_grad:
        return nats, magnitude, None, None
    x = sol[..., :m]
    t = np.linalg.inv(s)
    k_z = np.linalg.inv(r_z + noise * eye) - noise * (x @ t @ np.swapaxes(x, -1, -2).conj())
    k_g = -power_b * (w @ t @ np.swapaxes(w, -1, -2).conj())
    return nats, magnitude, k_z, k_g


def closed_form_bits(
    precoders: np.ndarray,
    phases: np.ndarray,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
) -> np.ndarray:
    """Exact SKR in bits of K designs: precoders [K, M, M], phases [K, L] -> [K].

    A design whose Gram eigenvalues all exceed _RANK_RTOL of the largest goes to
    ``_gaussian_mi`` as it is; others go in the Gram eigenbasis, masked to the
    modes above that cutoff (a zero precoder reads 0 bits). Cholesky certificates
    (R_z + 0.5e-10 scale I; G - 2 _RANK_RTOL tr(G) I) skip both eigendecompositions;
    where one fails the batch takes that eigenvalue test, as a design alone would.
    """
    p = np.asarray(precoders)
    gram = _hermitian_part(np.swapaxes(p, -1, -2) @ p.conj())
    if not np.isfinite(gram).all():
        raise NumericalError("precoder Gram matrix has non-finite entries")
    r_z = _hermitian_part(_signal_covariance(p, phases, stats))
    scale = np.maximum(1.0, np.abs(r_z).max(axis=(-2, -1), initial=0.0))
    eye = np.eye(gram.shape[-1])
    if not _is_positive_definite(r_z + 0.5e-10 * scale[..., None, None] * eye):
        eig_min = np.linalg.eigvalsh(r_z)[..., 0]
        if np.any(eig_min < -1e-10 * scale):
            raise NumericalError(f"signal covariance indefinite (min eigenvalue {float(eig_min.min()):.3e})")
    live = full = np.ones(gram.shape[:-2], dtype=bool)
    if not _is_positive_definite(gram - 2.0 * _RANK_RTOL * np.einsum("...ii", gram).real[..., None, None] * eye):
        evals, evecs = np.linalg.eigh(gram)
        lam = evals[..., ::-1]
        live = lam[..., 0] > 0.0  # a zero precoder observes nothing: 0 bits
        keep = (lam > _RANK_RTOL * lam[..., :1]) & live[..., None]
        full = keep.all(axis=-1)
    nats, magnitude = np.zeros(full.shape), np.zeros(full.shape)
    if full.any():
        nats[full], magnitude[full], _, _ = _gaussian_mi(r_z[full], gram[full], power_b, noise)
    if not full.all():
        part = ~full
        basis = evecs[part][..., ::-1]
        z_rot = np.swapaxes(basis, -1, -2).conj() @ r_z[part] @ basis
        z_rot = 0.5 * (z_rot + np.swapaxes(z_rot, -1, -2).conj())
        nats[part], magnitude[part], _, _ = _gaussian_mi(z_rot, lam[part][..., None] * eye, power_b, noise, keep[part])
    return _nonnegative_bits(np.where(live, nats / _LN2, 0.0), magnitude / _LN2)


def skr_closed_form(design: ProbeDesign, stats: ChannelStatistics, power_b: float, noise: float) -> SkrReport:
    """Exact SKR of the probing round for an arbitrary design (``closed_form_bits`` with K = 1)."""
    bits = closed_form_bits(design.precoder[None], design.phases[None], stats, power_b, noise)
    return SkrReport(bits=float(bits[0]), method="closed_form")


def per_mode_objective(q, var: float, power_a: float, power_b: float, noise: float):
    """Approximate-SKR contribution in bits of eigenmodes carrying squared gains ``q``.

    ``q`` is a scalar or an array, and the result has its shape. Each mode's
    logarithm is ``math.log2``, so a mode's value does not depend on how many
    modes are evaluated together.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ConfigError(f"mode power must be nonnegative, got {q.min()}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf/nan, as in float math
        sig = power_a * var * q
        num = (power_b * sig + noise * power_a) * (sig + noise)
        ratio = num / (noise * power_b * sig + noise * power_a * sig + power_a * noise**2)
    return np.reshape([math.log2(r) for r in ratio.ravel().tolist()], q.shape)[()]


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
    M); the actual precoder is sqrt(power_a) times it. The result is the sum
    of ``per_mode_objective`` over the eigenvalues of
    precoder_norm^T R_bs precoder_norm^*. Each mode's value is the log of a
    ratio, with roundoff of order one ulp, so the clamp takes one bit per mode
    as its scale.
    """
    p_e = np.asarray(precoder_norm)
    m = p_e.shape[0]
    budget = float(np.sum(np.abs(p_e) ** 2))
    if abs(budget - m) > 1e-6 * m:
        raise ConfigError(f"normalized precoder power {budget:.6e} misses budget {m}")
    if power_a <= 0.0 or power_b <= 0.0 or noise <= 0.0:
        raise ConfigError("powers and noise must be positive")
    var = effective_variance(phases, stats)
    sandwich = _hermitian_part(p_e.T @ stats.R_bs @ p_e.conj())
    q = np.linalg.eigvalsh(sandwich)
    if q.min() < -1e-10:
        raise NumericalError("precoder sandwich matrix indefinite")
    modes = per_mode_objective(np.clip(q, 0.0, None), var, power_a, power_b, noise)
    bits = _nonnegative_bits(np.sum(modes), m)
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
    try:
        with single_blas_thread(), ThreadPoolExecutor(min(n_batches, os.cpu_count() or 1)) as pool:
            moments = list(
                pool.map(lambda s: _batch_second_moment(design, stats, power_b, noise, per_batch, s), streams)
            )
    except MemoryError as exc:
        raise ConfigError(
            f"{n_samples} Monte Carlo samples ({per_batch} per batch) do not fit in memory"
        ) from exc
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
