"""Independent SKR oracle for designs whose signal covariance is var(θ)·PᵀR_bsP*.

Written from the probing model, not from ``irskey.skr``: the combined channel
h + G dg(θ) f has covariance var(θ)·R_bs with
var(θ) = β_direct + β_bs_irs·β_irs_ue·θᴴ(R_irs∘R_irs)θ, and the key rate is the
three-logdet Gaussian mutual information of the two observations.
"""

from __future__ import annotations

import math

import numpy as np


def effective_variance(phases: np.ndarray, stats) -> float:
    squared = stats.R_irs * stats.R_irs
    quad = float(np.real(np.conj(phases) @ squared @ phases))
    return stats.beta_direct + stats.beta_bs_irs * stats.beta_irs_ue * quad


def gaussian_mi_bits(precoder: np.ndarray, phases: np.ndarray, stats, power_b: float, noise: float) -> float:
    """logdet(R_a) + logdet(R_b) - logdet(R_joint), in bits.

    R_a = power_b·R_z + noise·PᵀP* is the base-station observation, R_b =
    R_z + noise·I the user observation after pilot removal, and their cross
    covariance is sqrt(power_b)·R_z.
    """
    p = np.asarray(precoder)
    m = p.shape[0]
    r_z = effective_variance(phases, stats) * (p.T @ stats.R_bs @ p.conj())
    r_a = power_b * r_z + noise * (p.T @ p.conj())
    r_b = r_z + noise * np.eye(m)
    cross = math.sqrt(power_b) * r_z
    joint = np.block([[r_a, cross], [cross.conj().T, r_b]])

    def logdet(mat: np.ndarray) -> float:
        sign, value = np.linalg.slogdet(mat)
        if sign.real <= 0.0:
            raise ValueError("oracle covariance is not positive definite")
        return float(value)

    return (logdet(r_a) + logdet(r_b) - logdet(joint)) / math.log(2.0)
