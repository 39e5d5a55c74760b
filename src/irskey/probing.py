"""Probing round: precoder/phase designs and the two observations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigError

__all__ = [
    "ProbeDesign",
    "dft_pilot",
    "combined_channel",
    "uplink_probe",
    "downlink_probe",
    "validate_design",
]


@dataclass(frozen=True)
class ProbeDesign:
    """A probing design: BS precoder and surface reflection phases.

    ``precoder`` is M x M complex; ``phases`` holds L unit-modulus complex
    reflection coefficients.
    """

    precoder: np.ndarray
    phases: np.ndarray

    @property
    def M(self) -> int:
        return self.precoder.shape[0]

    @property
    def L(self) -> int:
        return self.phases.shape[0]

    @property
    def phases_ext(self) -> np.ndarray:
        """Reflection vector extended with a leading 1 for the direct path."""
        return np.concatenate([[1.0 + 0.0j], self.phases])


def validate_design(design: ProbeDesign, power_a: float, mod_tol: float = 1e-9, power_rtol: float = 1e-6) -> None:
    """Check unit modulus of every phase and the precoder power budget.

    The precoder must satisfy trace(P P^H) = M * power_a within ``power_rtol``
    relative tolerance.
    """
    P, theta = design.precoder, design.phases
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ConfigError(f"precoder must be square, got shape {P.shape}")
    mod_err = np.abs(np.abs(theta) - 1.0).max(initial=0.0)
    if mod_err > mod_tol:
        raise ConfigError(f"reflection coefficients deviate from unit modulus by {mod_err:.3e}")
    budget = design.M * power_a
    actual = float(np.sum(np.abs(P) ** 2))
    if abs(actual - budget) > power_rtol * budget:
        raise ConfigError(f"precoder power {actual:.6e} misses budget {budget:.6e}")


def dft_pilot(M: int) -> np.ndarray:
    """Unitary DFT matrix, the downlink pilot."""
    k = np.arange(M)
    return np.exp(-2j * np.pi * np.outer(k, k) / M) / np.sqrt(M)


def combined_channel(realization: ChannelRealization, design: ProbeDesign) -> np.ndarray:
    """Effective BS-UE channel h + G dg(phases) f for one realization."""
    return realization.h + realization.G @ (design.phases * realization.f)


def uplink_probe(channel: np.ndarray, precoder: np.ndarray, noise_a: np.ndarray, power_b: float) -> np.ndarray:
    """BS-side observations sqrt(power_b) P^T c + P^T n_a, one probing round per row.

    ``channel`` holds combined channels c in rows [..., M] (a 1-D ``channel``
    is one round) and ``noise_a`` the matching BS noise. The UE sends the
    unit pilot symbol, so the least-squares step leaves the noise as P^T n_a.
    """
    return np.sqrt(power_b) * (channel @ precoder) + noise_a @ precoder


def downlink_probe(channel: np.ndarray, precoder: np.ndarray, noise_b: np.ndarray) -> np.ndarray:
    """UE-side observations after removing the DFT pilot S_d: P^T c + S_d^T n_b, one round per row.

    Rows as in ``uplink_probe``. S_d is unitary, so the noise stays white.
    """
    return channel @ precoder + noise_b @ dft_pilot(precoder.shape[0])
