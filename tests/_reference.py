"""Dense references the tests compare the factored package code against.

Neither is on a package path: the closed form and the trainer use the
factored form var(phases) P^T R_bs P^* (``irskey.skr._variance``), and Monte
Carlo samples the channel.
"""

import numpy as np

from irskey import ChannelStatistics, ProbeDesign, effective_variance


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


def combined_covariance(design: ProbeDesign, stats: ChannelStatistics) -> np.ndarray:
    """Covariance of the noiseless combined observation P^T (h + G dg(phases) f).

    Equals the sandwich of ``cascade_covariance`` with kron(phases_ext, P),
    evaluated as var(phases) P^T R_bs P^* with the package's effective variance.
    """
    p = design.precoder
    return effective_variance(design.phases, stats) * (p.T @ stats.R_bs @ p.conj())
