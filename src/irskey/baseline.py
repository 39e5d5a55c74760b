"""Water-filling baseline: equal-phase surface plus eigenmode power allocation.

The approximate SKR decomposes over the eigenvalues q_i of the whitened
precoder sandwich, with a per-mode utility

    g(q) = log2((a q + 1)(b q + 1) / (c q + 1)),
    a = power_b * var / noise,  b = power_a * var / noise,  c = a + b,

subject to sum(q_i / p_i) = M where p_i are the descending eigenvalues of the
antenna correlation matrix. g is zero at 0 with zero slope, rises to a single
inflection of its derivative, then the marginal utility decays like 1/q; the
water-filling solution equalizes marginal utilities on the decreasing branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channel import ChannelStatistics, SystemConfig, channel_statistics
from .errors import ConfigError, NumericalError
from .probing import ProbeDesign
from .skr import effective_variance

__all__ = [
    "WaterfillResult",
    "equal_phase_vector",
    "per_mode_objective",
    "waterfill",
    "reconstruct_precoder",
    "waterfill_design",
    "baseline_design",
]

_LN2 = math.log(2.0)
_MODE_FLOOR = 1e-12  # eigenvalues below this are treated as inactive


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of the eigenmode power allocation.

    ``mode_powers`` are the allocated squared precoder eigenvalues, aligned
    with the descending eigenvalues of the antenna correlation matrix;
    ``water_level`` is the Lagrange multiplier in bit units.
    """

    mode_powers: np.ndarray
    water_level: float
    objective_bits: float
    precoder: np.ndarray


def equal_phase_vector(L: int, phase: float = 0.0) -> np.ndarray:
    """All-equal reflection coefficients e^{j phase} * ones(L)."""
    if L < 1:
        raise ConfigError("surface size must be >= 1")
    return np.full(L, np.exp(1j * phase))


def per_mode_objective(q: float, var: float, power_a: float, power_b: float, noise: float) -> float:
    """Approximate-SKR contribution of one eigenmode carrying squared gain ``q``."""
    if q < 0:
        raise ConfigError(f"mode power must be nonnegative, got {q}")
    sig = power_a * var * q
    num = (power_b * sig + noise * power_a) * (sig + noise)
    den = noise * power_b * sig + noise * power_a * sig + power_a * noise**2
    return math.log2(num / den)


def _marginal_nats(q: float, a: float, b: float) -> float:
    # d/dq of ln((aq+1)(bq+1)/(cq+1)); positive for q >= 0, peaks once, then ~1/q.
    c = a + b
    return a / (a * q + 1.0) + b / (b * q + 1.0) - c / (c * q + 1.0)


def _marginal_slope_nats(q: float, a: float, b: float) -> float:
    c = a + b
    return -((a / (a * q + 1.0)) ** 2) - (b / (b * q + 1.0)) ** 2 + (c / (c * q + 1.0)) ** 2


def _marginal_peak(a: float, b: float) -> tuple[float, float]:
    """Location and value of the maximum of the marginal utility."""
    hi = 1.0 / math.sqrt(a * b)
    while _marginal_slope_nats(hi, a, b) > 0.0:
        hi *= 2.0
    q_peak = brentq(_marginal_slope_nats, 0.0, hi, args=(a, b), xtol=1e-18, rtol=1e-15)
    return q_peak, _marginal_nats(q_peak, a, b)


def _mode_power(w_nats: float, a: float, b: float, q_peak: float, w_peak: float) -> float:
    """Largest q with marginal utility w, on the decreasing branch; 0 if unreachable."""
    if w_nats >= w_peak:
        return 0.0
    hi = 2.0 * q_peak + 1.0
    while _marginal_nats(hi, a, b) > w_nats:
        hi *= 2.0
    root = brentq(
        lambda q: _marginal_nats(q, a, b) - w_nats, q_peak, hi, xtol=1e-18, rtol=1e-15
    )
    # Newton polish toward the 1e-12 inner-solve target
    for _ in range(3):
        resid = _marginal_nats(root, a, b) - w_nats
        slope = _marginal_slope_nats(root, a, b)
        if slope == 0.0:
            break
        step = resid / slope
        if root - step <= 0.0:
            break
        root -= step
    return root


def waterfill(
    stats: ChannelStatistics,
    var: float,
    power_a: float,
    power_b: float,
    noise: float,
    tol: float = 1e-9,
) -> WaterfillResult:
    """Allocate mode powers maximizing the approximate SKR under the budget.

    Outer root-find on the multiplier until sum(q_i / p_i) = M within ``tol``;
    inner per-mode scalar solves to 1e-12. When the budget equation has no
    root with all modes active (the marginal utility is not concave near 0,
    so the active set can collapse discontinuously), the allocation is
    recomputed over the best leading subset of modes.
    """
    if tol <= 0.0:
        raise ConfigError("tolerance must be positive")
    if var <= 0.0 or power_a <= 0.0 or power_b <= 0.0 or noise <= 0.0:
        raise ConfigError("powers, noise, and effective variance must be positive")
    eigvals, eigvecs = np.linalg.eigh(stats.R_bs)
    p_modes = eigvals[::-1].copy()
    m = p_modes.size
    if p_modes[-1] < -_MODE_FLOOR:
        raise NumericalError(f"antenna correlation matrix indefinite (eig {p_modes[-1]:.3e})")
    a = power_b * var / noise
    b = power_a * var / noise
    q_peak, w_peak = _marginal_peak(a, b)
    n_usable = int(np.sum(p_modes > _MODE_FLOOR))
    if n_usable == 0:
        raise NumericalError("all correlation eigenmodes are degenerate")

    def allocation(mu_nats: float, k: int) -> np.ndarray:
        q = np.zeros(m)
        for i in range(k):
            q[i] = _mode_power(mu_nats / p_modes[i], a, b, q_peak, w_peak)
        return q

    def budget_gap(mu_nats: float, k: int) -> float:
        q = allocation(mu_nats, k)
        return float(np.sum(q[:k] / p_modes[:k])) - m

    best: tuple[float, np.ndarray, float] | None = None
    for k in range(n_usable, 0, -1):
        if k < n_usable and p_modes[k - 1] - p_modes[k] <= 1e-15 * p_modes[0]:
            continue  # never split tied modes across the active boundary
        # keep all k leading modes strictly on the decreasing branch
        mu_max = w_peak * p_modes[k - 1] * (1.0 - 1e-12)
        if budget_gap(mu_max, k) > 0.0:
            continue  # cannot reach the budget with k modes active
        mu_lo = mu_max
        while budget_gap(mu_lo, k) < 0.0:
            mu_lo *= 0.5
        mu = brentq(budget_gap, mu_lo, mu_max, args=(k,), xtol=1e-18, rtol=1e-15, maxiter=200)
        # Newton polish on the budget equation; slope from the inverse marginal
        for _ in range(50):
            q = allocation(mu, k)
            gap = float(np.sum(q[:k] / p_modes[:k])) - m
            if abs(gap) <= 0.1 * tol:
                break
            slope = sum(
                1.0 / (p_modes[i] ** 2 * _marginal_slope_nats(q[i], a, b)) for i in range(k)
            )
            if slope >= 0.0:
                break
            mu -= gap / slope
        q = allocation(mu, k)
        gap = abs(float(np.sum(q / p_modes[:m])) - m)
        if gap > tol:
            continue
        obj = sum(per_mode_objective(qi, var, power_a, power_b, noise) for qi in q)
        if best is None or obj > best[2]:
            best = (mu, q, obj)
    if best is None:
        raise NumericalError(
            "water-filling did not converge: no active set meets the budget on "
            "the decreasing marginal-utility branch"
        )
    mu_nats, q, obj = best
    precoder = _reconstruct(q, stats)
    return WaterfillResult(
        mode_powers=q,
        water_level=mu_nats / _LN2,
        objective_bits=obj,
        precoder=precoder,
    )


def _reconstruct(mode_powers: np.ndarray, stats: ChannelStatistics) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(stats.R_bs)
    p_modes = eigvals[::-1]
    basis = eigvecs[:, ::-1]
    if p_modes[-1] < _MODE_FLOOR:
        raise NumericalError("antenna correlation matrix is singular; cannot whiten")
    inv_sqrt = (basis / np.sqrt(p_modes)) @ basis.conj().T
    scaled = (basis * np.sqrt(mode_powers)) @ basis.conj().T
    return (inv_sqrt @ scaled).conj()


def reconstruct_precoder(result: WaterfillResult, stats: ChannelStatistics) -> np.ndarray:
    """Unit-budget precoder realizing the allocated mode powers.

    Built as the conjugate of (whitening transform times the eigenbasis
    rescaling); its sandwich with the antenna correlation has eigenvalues
    equal to ``mode_powers`` and its Gram trace equals M by the budget
    constraint.
    """
    return _reconstruct(np.asarray(result.mode_powers), stats)


def waterfill_design(
    config: SystemConfig, stats: ChannelStatistics | None = None
) -> tuple[ProbeDesign, WaterfillResult]:
    """The baseline design together with the water-filling allocation behind it."""
    if stats is None:
        stats = channel_statistics(config)
    phases = equal_phase_vector(config.L)
    var = effective_variance(phases, stats)
    wf = waterfill(stats, var, config.power_a, config.power_b, config.noise)
    return ProbeDesign(precoder=np.sqrt(config.power_a) * wf.precoder, phases=phases), wf


def baseline_design(config: SystemConfig, stats: ChannelStatistics | None = None) -> ProbeDesign:
    """Equal phases plus water-filled precoder, scaled to the power budget."""
    return waterfill_design(config, stats)[0]
