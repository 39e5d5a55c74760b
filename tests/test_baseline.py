import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ChannelStatistics,
    NumericalError,
    ProbeDesign,
    SystemConfig,
    baseline_design,
    bs_correlation,
    channel_statistics,
    effective_variance,
    equal_phase_vector,
    irs_correlation,
    per_mode_objective,
    reconstruct_precoder,
    skr_approximate,
    skr_closed_form,
    validate_design,
    waterfill,
    waterfill_design,
)
from irskey import init_params, neural

_LN2 = math.log(2.0)


def _stats(eta, m=4, scale=1.0):
    return ChannelStatistics(
        R_bs=bs_correlation(eta, m), R_irs=irs_correlation(2, 2),
        beta_direct=1e-8 * scale, beta_bs_irs=1e-6, beta_irs_ue=1e-5 * scale,
    )


def _marginal_bits(q, var, power_a, power_b, noise):
    """Independent derivative of the per-mode utility, in bits."""
    a = power_b * var / noise
    b = power_a * var / noise
    c = a + b
    return (a / (a * q + 1) + b / (b * q + 1) - c / (c * q + 1)) / _LN2


# --------------------------------------------------------------------------
# equal-phase configuration


def test_equal_phase_vector_values():
    npt.assert_array_equal(equal_phase_vector(3), np.ones(3, dtype=complex))
    npt.assert_allclose(equal_phase_vector(2, phase=math.pi), [-1.0, -1.0], atol=1e-12)


def test_equal_phase_maximizes_effective_variance(rng):
    # random search never beats the all-equal configuration (entrywise
    # nonnegative quadratic form)
    stats = ChannelStatistics(
        R_bs=np.eye(2), R_irs=irs_correlation(3, 3),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    best = effective_variance(equal_phase_vector(9), stats)
    for _ in range(1000):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
        assert effective_variance(theta, stats) <= best + 1e-9 * best


# --------------------------------------------------------------------------
# per-mode utility


def test_per_mode_objective_zero_at_zero():
    assert per_mode_objective(0.0, 1e-3, 10.0, 10.0, 1e-9) == 0.0


def test_per_mode_objective_strictly_increasing():
    grid = np.linspace(0.0, 5.0, 200)
    vals = [per_mode_objective(q, 2e-4, 10.0, 5.0, 1e-9) for q in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_per_mode_objective_asymptote():
    # for large q the utility approaches log2(P_b * var * q / (noise (1 + P_b/P_a)))
    var, pa, pb, noise = 1e-3, 4.0, 9.0, 1e-9
    q = 1e9
    got = per_mode_objective(q, var, pa, pb, noise)
    want = math.log2(pb * (pa * var * q) / (noise * (pb + pa)))
    assert got == pytest.approx(want, rel=1e-6)


def test_per_mode_objective_matches_marginal_numerically():
    # the closed-form derivative used by the solver agrees with central FD
    var, pa, pb, noise = 3e-4, 10.0, 10.0, 1e-9
    for q in (0.05, 0.3, 1.0, 4.0):
        step = 1e-6 * max(q, 1.0)
        fd = (per_mode_objective(q + step, var, pa, pb, noise)
              - per_mode_objective(q - step, var, pa, pb, noise)) / (2 * step)
        assert _marginal_bits(q, var, pa, pb, noise) == pytest.approx(fd, rel=1e-6)


# --------------------------------------------------------------------------
# water-filling


def test_waterfill_uncorrelated_gives_uniform_allocation():
    stats = _stats(0.0)
    res = waterfill(stats, 1e-3, 10.0, 10.0, 1e-9)
    npt.assert_allclose(res.mode_powers, 1.0, atol=1e-9)


def test_waterfill_constraint_and_kkt(rng):
    p_modes = None
    for eta in (0.1, 0.4, 0.7):
        stats = _stats(eta)
        var = 1e-3
        res = waterfill(stats, var, 10.0, 10.0, 1e-9)
        p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
        residual = abs(np.sum(res.mode_powers / p_modes) - 4.0)
        assert residual < 1e-9
        active = res.mode_powers > 0
        for q, p in zip(res.mode_powers[active], p_modes[active]):
            kkt = abs(_marginal_bits(q, var, 10.0, 10.0, 1e-9) - res.water_level / p)
            assert kkt < 1e-6
        # inactive modes: marginal at zero must not exceed the threshold
        for q, p in zip(res.mode_powers[~active], p_modes[~active]):
            assert _marginal_bits(0.0, var, 10.0, 10.0, 1e-9) <= res.water_level / p + 1e-6


def test_waterfill_beats_uniform_allocation(rng):
    for trial in range(20):
        eta = rng.uniform(0.0, 0.9)
        var = 10.0 ** rng.uniform(-4.5, -2.5)
        stats = _stats(eta)
        res = waterfill(stats, var, 10.0, 10.0, 1e-9)
        p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
        uniform = sum(per_mode_objective(p, var, 10.0, 10.0, 1e-9) for p in p_modes)
        assert res.objective_bits >= uniform - 1e-9


def test_waterfill_mode_ordering_follows_eigenvalues():
    stats = _stats(0.6)
    res = waterfill(stats, 1e-3, 10.0, 10.0, 1e-9)
    q = res.mode_powers
    assert all(qa >= qb - 1e-12 for qa, qb in zip(q, q[1:]))


def test_waterfill_ties_get_equal_power():
    # two pairs of repeated eigenvalues: modes within a pair allocate equally
    r = np.diag([2.0, 2.0, 0.5, 0.5])
    stats = ChannelStatistics(
        R_bs=r, R_irs=irs_correlation(2, 2),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    res = waterfill(stats, 1e-3, 10.0, 10.0, 1e-9)
    assert res.mode_powers[0] == pytest.approx(res.mode_powers[1], rel=1e-9)
    assert res.mode_powers[2] == pytest.approx(res.mode_powers[3], rel=1e-9)


def test_waterfill_objective_matches_sum_of_modes():
    stats = _stats(0.3)
    var = 1e-3
    res = waterfill(stats, var, 10.0, 10.0, 1e-9)
    total = sum(per_mode_objective(q, var, 10.0, 10.0, 1e-9) for q in res.mode_powers)
    assert res.objective_bits == pytest.approx(total, rel=1e-12)


# --------------------------------------------------------------------------
# precoder reconstruction


def test_reconstruct_identity_for_uncorrelated_uniform():
    stats = _stats(0.0)
    res = waterfill(stats, 1e-3, 10.0, 10.0, 1e-9)
    p_e = reconstruct_precoder(res, stats)
    npt.assert_allclose(p_e, np.eye(4), atol=1e-9)


def test_reconstruct_trace_and_sandwich_eigenvalues():
    for eta in (0.2, 0.5, 0.8):
        stats = _stats(eta)
        res = waterfill(stats, 1e-3, 10.0, 10.0, 1e-9)
        p_e = reconstruct_precoder(res, stats)
        assert np.sum(np.abs(p_e) ** 2) == pytest.approx(4.0, abs=1e-8)
        sandwich = p_e.T @ stats.R_bs @ p_e.conj()
        eigs = np.sort(np.linalg.eigvalsh(sandwich))[::-1]
        npt.assert_allclose(eigs, res.mode_powers, atol=1e-8)


def test_waterfill_value_equals_approximate_rate():
    # evaluating the reconstructed design through the approximate evaluator
    # reproduces the water-filling objective exactly
    stats = _stats(0.45)
    var = effective_variance(equal_phase_vector(4), stats)
    res = waterfill(stats, var, 10.0, 10.0, 1e-9)
    p_e = reconstruct_precoder(res, stats)
    rate = skr_approximate(p_e, equal_phase_vector(4), stats, 10.0, 10.0, 1e-9).bits
    assert rate == pytest.approx(res.objective_bits, abs=1e-10)


# --------------------------------------------------------------------------
# end-to-end baseline


def test_baseline_design_is_feasible(reference_setup, reference_stats):
    des = baseline_design(reference_setup, reference_stats)
    validate_design(des, reference_setup.power_a)
    npt.assert_allclose(np.abs(des.phases), 1.0, atol=1e-12)


def test_baseline_beats_random_configurations(reference_setup, reference_stats, rng):
    from irskey import random_design

    base_bits = skr_closed_form(
        baseline_design(reference_setup, reference_stats), reference_stats,
        reference_setup.power_b, reference_setup.noise,
    ).bits
    wins = 0
    for _ in range(100):
        des = random_design(reference_setup, rng)
        bits = skr_closed_form(des, reference_stats, reference_setup.power_b, reference_setup.noise).bits
        wins += bits <= base_bits
    assert wins >= 95


def test_baseline_near_optimal_on_approximate_objective(reference_setup, reference_stats, rng):
    # random feasible (P_e, equal-phase) points never beat the solver output
    var = effective_variance(equal_phase_vector(25), reference_stats)
    res = waterfill(reference_stats, var, reference_setup.power_a, reference_setup.power_b, reference_setup.noise)
    for _ in range(200):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p_e = raw * math.sqrt(4 / np.sum(np.abs(raw) ** 2))
        rate = skr_approximate(p_e, equal_phase_vector(25), reference_stats,
                               reference_setup.power_a, reference_setup.power_b, reference_setup.noise).bits
        assert rate <= res.objective_bits + 1e-9


def test_baseline_design_from_config_only(reference_setup):
    # stats argument optional: recomputed from the config when omitted
    a = baseline_design(reference_setup)
    b = baseline_design(reference_setup, channel_statistics(reference_setup))
    npt.assert_allclose(a.precoder, b.precoder, atol=1e-12)
    npt.assert_allclose(a.phases, b.phases, atol=1e-12)


def test_asymmetric_antenna_correlation_fails_waterfilling_and_the_loss(monkeypatch, rng):
    # eigh reads R_bs by its lower triangle: both returned finite numbers (9.596 bits, -8.218 bits)
    system = SystemConfig()
    stats = channel_statistics(system)
    r_bs = stats.R_bs.copy()
    r_bs[0, 3] += 0.2
    skewed = dataclasses.replace(stats, R_bs=r_bs)
    with pytest.raises(NumericalError, match="Hermitian"):
        waterfill_design(system, skewed)
    monkeypatch.setattr(neural, "channel_statistics", lambda config: skewed)
    params = init_params(system.M, system.L, rng)
    with pytest.raises(NumericalError, match="Hermitian"):
        neural.loss(params, [(10.0, 10.0, 0.0)], system)


def test_waterfill_overflow_names_the_snr_terms():
    # a b q overflows in the marginal utility, so candidates read inf / inf =
    # NaN: water-filling names a and b instead of returning NaN mode powers
    with pytest.raises(NumericalError, match=r"water-filling overflows at SNR terms a = 9\.560e\+00, b = 9\.560e\+299"):
        waterfill(_stats(0.5), 1.0, 9.56e299, 9.56, 1.0)
