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

from .channel import ChannelStatistics, SystemConfig, channel_statistics
from .errors import ConfigError, NumericalError
from .probing import ProbeDesign
from .skr import _LN2, effective_variance, per_mode_objective

__all__ = [
    "WaterfillResult",
    "equal_phase_vector",
    "waterfill",
    "reconstruct_precoder",
    "waterfill_design",
    "baseline_design",
]

_MODE_FLOOR = 1e-12  # correlation eigenvalues below this cannot be whitened
_EPS = 4.0 * np.finfo(float).eps  # relative step at which a Newton iteration has converged
_MAX_ITER = 100
_BUDGET_TOL = 1e-9  # largest budget residual sum(q_i / p_i) - M a solved active set may leave


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


def equal_phase_vector(L: int, phase: float = 0.0) -> np.ndarray:
    """All-equal reflection coefficients e^{j phase} * ones(L)."""
    if L < 1:
        raise ConfigError("surface size must be >= 1")
    return np.full(L, np.exp(1j * phase))


def _marginal_nats(q: float, a: float, b: float) -> float:
    # d/dq of ln((aq+1)(bq+1)/(cq+1)) over one denominator; the three-term sum
    # a/(aq+1) + b/(bq+1) - c/(cq+1) cancels once aq and bq are large.
    c = a + b
    return a * b * q * (c * q + 2.0) / ((a * q + 1.0) * (b * q + 1.0) * (c * q + 1.0))


def _log_slope(q: float, a: float, b: float) -> float:
    # d/dq of ln(marginal); positive below the peak, negative above it.
    c = a + b
    return (1.0 - a * b * q * q) / (q * (a * q + 1.0) * (b * q + 1.0)) - c / ((c * q + 1.0) * (c * q + 2.0))


def _marginal_peak(a: float, b: float) -> float:
    """Location of the maximum of the marginal utility.

    With q = x / sqrt(ab) and r = (a + b) / sqrt(ab), the log-slope vanishes
    where r^2 x^4 + 4 r x^3 + 2 x^2 - 2 r x - 2 = 0, a quartic convex on x >= 0
    and negative at 0: Newton from where it is positive descends onto the root.
    """
    r = (a + b) / math.sqrt(a * b)
    x = min(1.0, 2.0 * (2.0 / r) ** (1.0 / 3.0))  # the quartic is positive here
    for _ in range(_MAX_ITER):
        rx = r * x
        step = (x * x * (rx * (rx + 4.0) + 2.0) - 2.0 * (rx + 1.0)) / (
            x * (rx * (4.0 * rx + 12.0) + 4.0) - 2.0 * r
        )
        if not step > _EPS * x:
            return x / math.sqrt(a * b)
        x -= step
    raise NumericalError("water-filling: the marginal-utility peak search did not converge")


def _mode_power(w_nats: float, a: float, b: float, q_peak: float) -> float:
    """The q above the peak with marginal utility ``w_nats`` (below the peak value).

    Newton on 1/marginal(q) - 1/w, which is convex in q and nearly linear above
    the peak. The start max(1/w, 2 q_peak) lies above the root (marginal(q) <
    1/q), so the iterates descend monotonically onto it.
    """
    q = max(1.0 / w_nats, 2.0 * q_peak)
    for _ in range(_MAX_ITER):
        step = (_marginal_nats(q, a, b) / w_nats - 1.0) / _log_slope(q, a, b)
        if not step > _EPS * q:
            return q
        q -= step
    raise NumericalError("water-filling: a mode-power solve did not converge")


def _active_set_powers(p_modes: list[float], m: int, a: float, b: float, q_peak: float):
    """(all M powers, multiplier in nats) putting every given mode above the
    peak within budget, or None when even the least such allocation exceeds it.

    The unknown is tau, the weakest mode's power; the others equalize the
    multiplier, marginal(q_i) p_i = marginal(tau) p_k. The budget gap rises
    with tau from q_peak to M p_k, and Newton safeguarded by bisection finds
    its root.
    """
    p_k = p_modes[-1]
    # modes tied with the weakest share tau: near the flat peak they would not resolve apart
    tied = [p <= p_k * (1.0 + 1e-12) for p in p_modes]

    def gap_and_powers(tau: float) -> tuple[float, list[float]]:
        w_nats = _marginal_nats(tau, a, b) * p_k
        q = [tau if t else _mode_power(w_nats / p, a, b, q_peak) for t, p in zip(tied, p_modes)]
        return sum(qi / p for qi, p in zip(q, p_modes)) - m, q

    lo, hi = q_peak, m * p_k
    if gap_and_powers(lo)[0] > 0.0:
        return None
    beta = 1.0 / a + 1.0 / b - 1.0 / (a + b)  # 1/marginal(q) ~ q + beta for large q
    tau = p_k * (m + beta * sum(1.0 / p for p in p_modes)) / len(p_modes) - beta
    for _ in range(_MAX_ITER):
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
        gap, q = gap_and_powers(tau)
        lo, hi = (lo, tau) if gap > 0.0 else (tau, hi)
        s_tau = min(_log_slope(tau, a, b), 0.0)
        # d q_i / d tau = s(tau) / s(q_i) keeps the multipliers equal
        step = gap / sum((1.0 if t else s_tau / _log_slope(qi, a, b)) / p for t, qi, p in zip(tied, q, p_modes))
        if abs(step) <= _EPS * tau or hi - lo <= _EPS * hi:
            break
        tau -= step
    else:
        raise NumericalError("water-filling: the multiplier search did not converge")
    if abs(gap) > _BUDGET_TOL:
        raise NumericalError(f"water-filling budget residual {abs(gap):.3e} exceeds {_BUDGET_TOL:.1e}")
    return q + [0.0] * (m - len(q)), _marginal_nats(tau, a, b) * p_k


def waterfill(
    stats: ChannelStatistics,
    var: float,
    power_a: float,
    power_b: float,
    noise: float,
) -> WaterfillResult:
    """Allocate mode powers maximizing the approximate SKR under the budget.

    Each active set of the k leading modes, all on the decreasing branch of
    the marginal utility, is solved to rounding for equal multipliers under
    sum(q_i / p_i) = M (a residual above 1e-9 raises NumericalError); the
    marginal utility is not concave near 0, so the active set can collapse
    discontinuously. The single-mode corner q = (M p_1, 0, ...) is a
    candidate too: the k = 1 solution, and the optimum when no mode can pass
    the peak, where the utility is convex on the feasible set. The best wins.
    SNR terms a and b that the solve cannot resolve in floats raise
    NumericalError.
    """
    if var <= 0.0 or power_a <= 0.0 or power_b <= 0.0 or noise <= 0.0:
        raise ConfigError("powers, noise, and effective variance must be positive")
    p = [float(x) for x in stats.R_bs_eigh[0][::-1]]
    m = len(p)
    if p[-1] < _MODE_FLOOR:
        raise NumericalError(f"antenna correlation matrix is singular or indefinite (eig {p[-1]:.3e})")
    a = power_b * var / noise
    b = power_a * var / noise
    try:  # a b past the float range, or a and b hundreds of decades apart
        q_peak = _marginal_peak(a, b)
        options = [_active_set_powers(p[:k], m, a, b, q_peak) for k in range(m, 1, -1)]
    except ZeroDivisionError as exc:
        raise NumericalError(f"water-filling divides by 0 at SNR terms a = {a:.3e}, b = {b:.3e}") from exc
    options.append(([m * p[0]] + [0.0] * (m - 1), _marginal_nats(m * p[0], a, b) * p[0]))
    options = [option for option in options if option is not None]
    if not all(math.isfinite(x) for q, mu in options for x in [*q, mu]):
        raise NumericalError(f"water-filling overflows at SNR terms a = {a:.3e}, b = {b:.3e}")
    modes = per_mode_objective(np.array([q for q, _ in options]), var, power_a, power_b, noise)
    scored = [(sum(row.tolist()), q, mu) for row, (q, mu) in zip(modes, options)]
    obj, q, mu_nats = max(scored, key=lambda option: option[0])  # first of equals: most modes
    return WaterfillResult(mode_powers=np.array(q), water_level=mu_nats / _LN2, objective_bits=obj)


def reconstruct_precoder(result: WaterfillResult, stats: ChannelStatistics) -> np.ndarray:
    """Unit-budget precoder realizing the allocated mode powers.

    The conjugate of U diag(sqrt(q_i / p_i)) U^H in the eigenbasis U of the
    antenna correlation (eigenvalues p_i): its sandwich with the correlation
    has eigenvalues equal to ``mode_powers`` q_i, its Gram trace equals M by
    the budget constraint, and an unpowered mode is a zero singular value.
    """
    eigvals, eigvecs = stats.R_bs_eigh
    p_modes = eigvals[::-1]
    basis = eigvecs[:, ::-1]
    if p_modes[-1] < _MODE_FLOOR:
        raise NumericalError("antenna correlation matrix is singular; cannot whiten")
    gains = np.sqrt(np.asarray(result.mode_powers) / p_modes)
    return ((basis * gains) @ basis.conj().T).conj()


def waterfill_design(
    config: SystemConfig, stats: ChannelStatistics | None = None
) -> tuple[ProbeDesign, WaterfillResult]:
    """The baseline design together with the water-filling allocation behind it."""
    if stats is None:
        stats = channel_statistics(config)
    phases = equal_phase_vector(config.L)
    var = effective_variance(phases, stats)
    wf = waterfill(stats, var, config.power_a, config.power_b, config.noise)
    precoder = np.sqrt(config.power_a) * reconstruct_precoder(wf, stats)
    return ProbeDesign(precoder=precoder, phases=phases), wf


def baseline_design(config: SystemConfig, stats: ChannelStatistics | None = None) -> ProbeDesign:
    """Equal phases plus water-filled precoder, scaled to the power budget."""
    return waterfill_design(config, stats)[0]
