"""Secret key rate evaluators: exact closed form, eigenmode approximation, Monte Carlo.

The SKR of one probing round is the Gaussian mutual information between the
two observations, in bits. The closed form and the trainer's loss share one
core, ``_whitened_mi``, a difference of two identity-plus-PSD log-determinants
in the eigenbasis of R_bs, with cogradients on request; the closed form's
singular basis takes that difference as one (``_singular_basis_mi``). Monte
Carlo takes logdet(R_a) + logdet(R_b) - logdet(R_joint) of sample covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import parallel_map
from .channel import ChannelStatistics, _complex_normal, _hermitian_part, _iid_factors
from .errors import ConfigError, NumericalError, _fits_in_memory
from .probing import ProbeDesign, downlink_probe, uplink_probe

__all__ = [
    "SkrReport",
    "closed_form_bits",
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


def _logdet_psd(mat: np.ndarray) -> np.ndarray:
    """log det of Hermitian positive definite matrices, stacked over leading axes."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance is not positive definite: {exc}") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.log(diag).sum(axis=-1)


def _positive_definite(mats: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix stacked on the first axis has a Cholesky factor.

    One LAPACK call covers the batch; where it fails, each half is retried, so
    every matrix is judged on its own.
    """
    try:
        np.linalg.cholesky(mats)
        return np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.zeros(1, dtype=bool)
        half = len(mats) // 2
        return np.concatenate([_positive_definite(mats[:half]), _positive_definite(mats[half:])])


def _mi_bits_from_joint(joint: np.ndarray, m: int) -> np.ndarray:
    """Gaussian mutual information (bits) between the first ``m`` coordinates and the rest of ``joint``."""
    ld_a = _logdet_psd(_hermitian_part(joint[..., :m, :m]))
    ld_b = _logdet_psd(_hermitian_part(joint[..., m:, m:]))
    ld_j = _logdet_psd(_hermitian_part(joint))
    return (ld_a + ld_b - ld_j) / _LN2


def _kept(sv: np.ndarray, m: int) -> np.ndarray:
    """Which singular values of a precoder (descending on the last axis) count: those above M eps s_max."""
    return sv > m * np.finfo(float).eps * sv[..., :1]


def _variance(phases: np.ndarray, stats: ChannelStatistics, gains=None):
    """Effective variance var and (R_irs o R_irs) phases, stacked over leading axes.

    var = beta_direct + beta_bs_irs beta_irs_ue phases^H (R_irs o R_irs) phases
    for any phases; the cascade covariance's sandwich with kron(phases_ext, P)
    is var P^T R_bs P^*. ``gains`` = (beta_direct, beta_bs_irs beta_irs_ue),
    broadcasting with the leading axes, replaces the link gains of ``stats``.
    """
    theta = np.asarray(phases)
    squared_theta = theta @ (stats.R_irs * stats.R_irs)
    quad = np.sum(theta.conj() * squared_theta, axis=-1).real
    direct, cascade = gains if gains is not None else (stats.beta_direct, stats.beta_bs_irs * stats.beta_irs_ue)
    return direct + cascade * quad, squared_theta


def effective_variance(phases: np.ndarray, stats: ChannelStatistics) -> float:
    """Per-antenna variance of the combined channel for unit-modulus reflection phases."""
    theta = np.asarray(phases)
    mod_err = np.abs(np.abs(theta) - 1.0).max(initial=0.0)
    if mod_err > 1e-6:
        raise ConfigError(f"reflection coefficients deviate from unit modulus by {mod_err:.3e}")
    return float(_variance(theta, stats)[0])


def _nonnegative_bits(bits: np.ndarray) -> np.ndarray:
    """Closed-form or approximate key rates, >= 0 by construction: a negative or non-finite one raises."""
    if not np.isfinite(bits).all():
        raise NumericalError("key rate is not finite")
    if np.any(bits < 0.0):
        raise NumericalError(f"key rate {float(bits.min()):.3e} bits is negative")
    return bits


def _whitened_mi(a: np.ndarray, lam: np.ndarray, var: np.ndarray, power_b: float, noise: float, want_grad=False):
    """Gaussian mutual information in nats of probing rounds stacked over leading axes.

    ``a`` = U^H P^* for an invertible precoder P, with R_bs = U diag(lam) U^H,
    and ``var`` the effective variance. y_a = P^T u then carries all of
    u = sqrt(power_b) c + n_a, so with signal variances s = var lam,
    MI = logdet(I + A^H D1 A) - logdet(I + A^H D2 A), where D1 = s / N and
    D2 = s / (power_b s + N) are the downlink SNR without and with u known.

    Returns (nats, g_a, g_var, k), k = [I + A^H D1 A, I + A^H D2 A] the
    matrices factored. With ``want_grad``, g_a = dMI/dA^* =
    D1 A T1 - D2 A T2 and g_var = dMI/dvar = tr(T1 A^H lam A) / N -
    tr(T2 A^H (N lam / (power_b s + N)^2) A), T_i = (I + A^H D_i A)^-1;
    otherwise both are None. D1 and D2 are stacked on a new first axis, so
    one factorization (and one inversion) serves both matrices.
    """
    s = var[..., None] * lam
    den = power_b * s + noise
    d = np.stack([s / noise, s / den])  # D1, D2
    k = np.eye(a.shape[-1]) + np.swapaxes(a, -1, -2).conj() @ (d[..., None] * a)
    ld1, ld2 = _logdet_psd(k)
    nats = ld1 - ld2
    if not want_grad:
        return nats, None, None, k
    x = a @ np.linalg.inv(k)  # A T_1, A T_2
    g_a = np.subtract(*(d[..., None] * x))
    w1, w2 = np.sum(x * a.conj(), axis=-1).real  # diagonals of A T_i A^H
    g_var = np.sum(lam * (w1 / noise - w2 * (noise / den) / den), axis=-1)  # den**2 may overflow
    return nats, g_a, g_var, k


def _singular_basis_mi(a: np.ndarray, lam: np.ndarray, var: np.ndarray, power_b: float, noise: float):
    """``_whitened_mi``'s nats as one identity-plus-PSD log-determinant, >= 0 by construction.

    K1 = K2 + A^H (D1 - D2) A with D1 - D2 = power_b D1 D2; for K2 = L2 L2^H, MI = sum_i
    log1p(sigma_i^2) over the singular values of B = L2^-1 A^H (D1 - D2)^1/2. Nothing cancels.
    """
    s = var[..., None] * lam
    d2 = s / (power_b * s + noise)
    a_h = np.swapaxes(a, -1, -2).conj()
    chol = np.linalg.cholesky(np.eye(a.shape[-1]) + a_h @ (d2[..., None] * a))
    b = np.linalg.solve(chol, a_h * np.sqrt(s / noise * (power_b * d2))[..., None, :])
    return np.log1p(np.linalg.svd(b, compute_uv=False) ** 2).sum(axis=-1)


# Forming A^H D_i A carries an error of ~eps times its largest entry, which a
# PSD matrix holds on its diagonal: S'_i = max_j (K_i)_jj - 1 for K_i = I + A^H D_i A.
# K_i's smallest eigenvalue is 1 + mu_i, mu_i the SNR of its weakest direction, so
# logdet K_i moves by up to ~eps S'_i / (1 + mu_i) nats. This holds for K_1 and
# K_2 alike (D_2 <= D_1 saturates at 1 / power_b, and S'_2 with it). Designs for
# which either bound may exceed this fraction of their rate are evaluated in the
# singular basis of P, as are those with a mu_i <= M eps S'_i, which forming K_i
# cannot tell from 0: there the rank rule decides.
_UNROTATED_RTOL = 1e-14


def closed_form_bits(
    precoders: np.ndarray,
    phases: np.ndarray,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
) -> np.ndarray:
    """Exact SKR in bits of K designs: precoders [K, M, M], phases [K, L] -> [K].

    Every design goes through ``_whitened_mi`` with A = U^H P^*, and keeps that
    rate unless either of its log-determinants fails mu_i > c_i, where
    c_i = eps S'_i / (_UNROTATED_RTOL MI) - 1, clipped to [M eps S'_i, S'_i], keeps
    the error a weak direction causes in logdet K_i under _UNROTATED_RTOL of the
    rate (c_i = S'_i, a certain failure, for a rate that is not positive; a small
    kept rate, a difference of cancelling log-determinants, can be further off). A
    Cholesky certificate on K_i - (1 + c_i) I, judged per matrix, proves the test
    and skips the rest, so a design's bits do not depend on the batch; where it
    fails, the smallest eigenvalue of K_i decides. Designs that fail are evaluated
    together in the singular basis of P: singular values s_i <= M eps s_max are
    roundoff and zeroed with their range basis columns, the rest span the range of
    P^* that the uplink observes, R_bs is compressed onto it, and the rate is
    ``_singular_basis_mi``. So every rate is >= 0 (a zero precoder reads 0 bits).
    """
    p = np.asarray(precoders)
    if not np.isfinite(p).all():
        raise NumericalError("precoder has non-finite entries")
    var = _variance(phases, stats)[0]
    if not np.isfinite(var).all():
        raise NumericalError("effective variance is not finite")
    lam, basis = stats.R_bs_eigh
    m = p.shape[-1]
    eps = np.finfo(float).eps
    nats, _, _, k = _whitened_mi(basis.conj().T @ p.conj(), lam, var, power_b, noise)
    peak = np.einsum("...ii->...i", k).real.max(axis=-1) - 1.0  # S'_1, S'_2: [2, K]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero precoder has no rate to keep
        need = np.where(nats > 0.0, eps * peak / (_UNROTATED_RTOL * nats) - 1.0, peak)
    c = np.clip(need, m * eps * peak, peak)
    certified = _positive_definite((k - (1.0 + c)[..., None, None] * np.eye(m)).reshape(-1, m, m))
    doubt = np.flatnonzero(~certified.reshape(c.shape).all(axis=0))
    weak = (np.linalg.eigvalsh(k[:, doubt])[..., 0] - 1.0 <= c[:, doubt]).any(axis=0)  # the certificate's test
    rows = doubt[weak]
    if rows.size:
        left, sv, _ = np.linalg.svd(p[rows])
        keep = _kept(sv, m)  # the rest are roundoff, zeroed with their columns of the range basis
        range_ = left.conj() * keep[:, None, :]  # orthonormal basis of the range of P^*, padded with 0
        lam_r, basis_r = np.linalg.eigh(np.swapaxes(range_, -1, -2).conj() @ stats.R_bs @ range_)
        a = np.swapaxes(basis_r, -1, -2).conj() * (keep * sv)[:, None, :]  # P^* = range_ diag(sv) V^T
        nats[rows] = _singular_basis_mi(a, lam_r, var[rows], power_b, noise)
    return _nonnegative_bits(nats / _LN2)


def skr_closed_form(design: ProbeDesign, stats: ChannelStatistics, power_b: float, noise: float) -> SkrReport:
    """Exact SKR of the probing round for an arbitrary design (``closed_form_bits`` with K = 1)."""
    bits = closed_form_bits(design.precoder[None], design.phases[None], stats, power_b, noise)
    return SkrReport(bits=float(bits[0]), method="closed_form")


def per_mode_objective(q, var: float, power_a: float, power_b: float, noise: float):
    """Approximate-SKR contribution in bits of eigenmodes carrying squared gains ``q``.

    ``q`` is a scalar or an array, and the result has its shape. A mode's value,
    log1p(power_b sig^2 / (N (power_b sig + power_a (sig + N)))) / ln 2 with
    sig = power_a var q, is >= 0 and takes ``math.log1p`` one mode at a time,
    so it does not depend on how many modes are evaluated together.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ConfigError(f"mode power must be nonnegative, got {q.min()}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf/nan, as in float math
        sig = power_a * var * q
        snr = power_b * sig * sig / (noise * (power_b * sig + power_a * (sig + noise)))
    return np.reshape([math.log1p(x) / _LN2 for x in snr.ravel().tolist()], q.shape)[()]


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
    precoder_norm^T R_bs precoder_norm^*, each mode's value >= 0.
    """
    p_e = np.asarray(precoder_norm)
    m = p_e.shape[0]
    budget = float(np.sum(np.abs(p_e) ** 2))
    if abs(budget - m) > 1e-6 * m:
        raise ConfigError(f"normalized precoder power {budget:.6e} misses budget {m}")
    if power_a <= 0.0 or power_b <= 0.0 or noise <= 0.0:
        raise ConfigError("powers and noise must be positive")
    var = effective_variance(phases, stats)
    lam, basis = stats.R_bs_eigh
    a = basis.conj().T @ p_e.conj()  # the sandwich p_e^T R_bs p_e^* is A^H diag(lam) A
    q = np.linalg.eigvalsh(a.conj().T @ (lam[:, None] * a))
    modes = per_mode_objective(np.clip(q, 0.0, None), var, power_a, power_b, noise)
    return SkrReport(bits=float(_nonnegative_bits(np.sum(modes))), method="approximate")


def _batch_second_moment(
    design: ProbeDesign,
    uplink: np.ndarray,
    stats: ChannelStatistics,
    power_b: float,
    noise: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unnormalized (r+M)-square second moment of n simulated observation pairs [y_a, y_b].

    y_a = ``uplink``^T u for an M x r combiner; y_b uses ``design.precoder``.
    Draws in ``_iid_factors`` order (h, g, f), then the BS noise, then the UE
    noise, but never forms G = R_bs^1/2 g R_irs^1/2: per round, in row form,
    h + G dg(phases) f = (h_iid + g v) R_bs^1/2^T with
    v = (phases o (f_iid R_irs^1/2^T)) R_irs^1/2^T, and g stays as its real
    and imaginary blocks. The rows c of combined channels then go through
    ``uplink_probe`` and ``downlink_probe``.
    """
    m = stats.M
    h_iid, g_re, g_im, f_iid = _iid_factors(stats, n, rng)
    noise_a = _complex_normal(rng, n * m, noise).reshape(n, m)
    noise_b = _complex_normal(rng, n * m, noise).reshape(n, m)
    r_irs = stats.R_irs_sqrt.T
    v = np.sqrt(stats.beta_bs_irs / 2.0) * ((design.phases * (f_iid @ r_irs)) @ r_irs)
    gv_re = np.einsum("nml,nl->nm", g_re, v.real) - np.einsum("nml,nl->nm", g_im, v.imag)
    gv_im = np.einsum("nml,nl->nm", g_re, v.imag) + np.einsum("nml,nl->nm", g_im, v.real)
    c = (h_iid + gv_re + 1j * gv_im) @ stats.R_bs_sqrt.T
    y_a = uplink_probe(c, uplink, noise_a, power_b)
    y_b = downlink_probe(c, design.precoder, noise_b)
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
    streams, with at least 2M samples in each. Batches run through
    ``parallel_map`` and their moments are combined in batch order, so the
    result does not depend on the pool size. The point estimate uses the
    pooled sample covariance; the standard error is the batch-means
    estimate, so it shrinks like 1/sqrt(n_samples). Only the covariance is
    simulated: the Gaussian formula at the sample covariance does not test
    whether the observations are Gaussian. y_a = P^T u lies in the range of
    P^T, so every design is observed through y_a's r coordinates in an
    orthonormal basis of it: the batch kernel combines with P V_r, V_r the
    right singular vectors of P above M eps s_max (r = M at full rank).
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
    if not np.isfinite(design.precoder).all():
        raise NumericalError("precoder has non-finite entries")
    _, sv, vh = np.linalg.svd(design.precoder)
    uplink = design.precoder @ vh[_kept(sv, design.M)].conj().T  # P V_r
    rank = uplink.shape[1]
    with _fits_in_memory(f"{n_samples} Monte Carlo samples ({per_batch} per batch)"):
        try:
            streams = rng.spawn(n_batches)
        except OverflowError as exc:  # numpy counts child streams in a C long
            raise ConfigError(f"{n_batches} batches are more streams than numpy can spawn") from exc
        moments = parallel_map(lambda s: _batch_second_moment(design, uplink, stats, power_b, noise, per_batch, s),
                               streams)
    batch_bits = np.empty(n_batches)
    for b, moment in enumerate(moments):
        try:
            batch_bits[b] = _mi_bits_from_joint(moment / per_batch, rank)
        except NumericalError as exc:
            raise NumericalError(f"sample covariance of batch {b} is singular in float64 at this SNR") from exc
    bits = float(_mi_bits_from_joint(sum(moments) / n_samples, rank))
    std_error = float(np.std(batch_bits, ddof=1) / np.sqrt(n_batches))
    if not (math.isfinite(bits) and math.isfinite(std_error)):
        raise NumericalError(f"Monte Carlo estimate {bits} bits (std error {std_error}) is not finite")
    return SkrReport(bits=bits, method="monte_carlo", std_error=std_error)
