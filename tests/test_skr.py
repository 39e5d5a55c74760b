import dataclasses
import itertools
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ChannelStatistics,
    ConfigError,
    NumericalError,
    ProbeDesign,
    SystemConfig,
    baseline_design,
    bs_correlation,
    channel_statistics,
    combined_channel,
    dbm_to_mw,
    downlink_probe,
    effective_variance,
    equal_phase_vector,
    irs_correlation,
    random_design,
    sample_batch,
    skr_approximate,
    skr_closed_form,
    skr_monte_carlo,
    uplink_probe,
    waterfill_design,
)
from irskey import _blas, skr
from irskey.channel import ChannelRealization, _complex_normal

from _reference import combined_covariance

_LN2 = math.log(2.0)


def _random_design(m, l, rng, power_a=10.0):
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    raw *= math.sqrt(m * power_a / np.sum(np.abs(raw) ** 2))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
    return ProbeDesign(precoder=raw, phases=phases)


def _scalar_stats(beta_h, L=1):
    """M=1 statistics with the reflected path switched off."""
    return ChannelStatistics(
        R_bs=np.eye(1),
        R_irs=irs_correlation(L, 1, 0.5),
        beta_direct=beta_h,
        beta_bs_irs=0.0,
        beta_irs_ue=1.0,
    )


def scalar_mi_bits(power_a, power_b, beta_h, noise):
    """Mutual information of x = sqrt(P_b) c + n1, y = sqrt(P_a) c + n2.

    Independent oracle from the bivariate Gaussian correlation coefficient:
    I = -log2(1 - rho^2).
    """
    num = (power_b * beta_h + noise) * (power_a * beta_h + noise)
    den = noise * (power_a * beta_h + power_b * beta_h + noise)
    return math.log2(num / den)


# --------------------------------------------------------------------------
# signal covariance


def test_combined_covariance_zero_precoder(small_stats):
    des = ProbeDesign(precoder=np.zeros((2, 2), dtype=complex), phases=np.ones(4, dtype=complex))
    npt.assert_array_equal(combined_covariance(des, small_stats), 0.0)


def test_combined_covariance_direct_only(rng):
    # reflected path off: sandwich collapses to beta_h P^T R_bs P*
    stats = ChannelStatistics(
        R_bs=bs_correlation(0.4, 2), R_irs=irs_correlation(2, 2),
        beta_direct=3.0, beta_bs_irs=0.0, beta_irs_ue=5.0,
    )
    des = _random_design(2, 4, rng)
    expected = 3.0 * des.precoder.T @ stats.R_bs @ des.precoder.conj()
    npt.assert_allclose(combined_covariance(des, stats), expected, atol=1e-12)


def test_combined_covariance_matches_sample_covariance(small_stats, rng):
    des = _random_design(2, 4, rng)
    model = combined_covariance(des, small_stats)
    n = 100_000
    h, big_g, f = sample_batch(small_stats, n, rng)
    z = (h + np.einsum("nml,nl->nm", big_g, des.phases * f)) @ des.precoder
    emp = z.T @ z.conj() / n
    assert np.linalg.norm(emp - model) / np.linalg.norm(model) < 0.05


def test_combined_covariance_is_hermitian_psd(reference_stats, rng):
    des = _random_design(4, 25, rng)
    r_z = combined_covariance(des, reference_stats)
    npt.assert_allclose(r_z, r_z.conj().T, atol=1e-12 * np.abs(r_z).max())
    assert np.linalg.eigvalsh(r_z).min() >= -1e-12 * np.abs(r_z).max()


# --------------------------------------------------------------------------
# effective variance


def test_effective_variance_brute_force(small_stats, rng):
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    got = effective_variance(theta, small_stats)
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += (np.conj(theta[i]) * (small_stats.R_irs[i, j] ** 2) * theta[j]).real
    expected = small_stats.beta_direct + small_stats.beta_bs_irs * small_stats.beta_irs_ue * acc
    assert got == pytest.approx(expected, rel=1e-12)


def test_effective_variance_rejects_non_unit_modulus(small_stats):
    with pytest.raises(ConfigError):
        effective_variance(np.full(4, 0.5 + 0.0j), small_stats)


# --------------------------------------------------------------------------
# closed form


def test_closed_form_scalar_oracle():
    stats = _scalar_stats(beta_h=2.0)
    power_a, power_b, noise = 3.0, 7.0, 0.25
    des = ProbeDesign(
        precoder=np.array([[math.sqrt(power_a)]], dtype=complex),
        phases=np.ones(1, dtype=complex),
    )
    got = skr_closed_form(des, stats, power_b, noise).bits
    want = scalar_mi_bits(power_a, power_b, 2.0, noise)
    assert got == pytest.approx(want, rel=1e-13)


def test_closed_form_zero_uplink_power(small_stats, rng):
    des = _random_design(2, 4, rng)
    report = skr_closed_form(des, small_stats, power_b=0.0, noise=1e-9)
    assert report.bits == 0.0
    assert report.method == "closed_form"


def test_closed_form_nonnegative_and_monotone_in_uplink_power(small_stats, rng):
    des = _random_design(2, 4, rng)
    powers = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
    vals = [skr_closed_form(des, small_stats, pb, 1e-9).bits for pb in powers]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_closed_form_permutation_similarity(rng):
    # relabeling antennas consistently in R_bs and P leaves the rate unchanged
    perm = np.array([2, 0, 1])
    stats = ChannelStatistics(
        R_bs=bs_correlation(0.5, 3), R_irs=irs_correlation(2, 2),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    p_mat = np.eye(3)[perm]
    stats_perm = ChannelStatistics(
        R_bs=p_mat @ stats.R_bs @ p_mat.T, R_irs=stats.R_irs,
        beta_direct=stats.beta_direct, beta_bs_irs=stats.beta_bs_irs,
        beta_irs_ue=stats.beta_irs_ue,
    )
    des = _random_design(3, 4, rng)
    des_perm = ProbeDesign(precoder=p_mat @ des.precoder, phases=des.phases)
    a = skr_closed_form(des, stats, 10.0, 1e-9).bits
    b = skr_closed_form(des_perm, stats_perm, 10.0, 1e-9).bits
    assert b == pytest.approx(a, rel=1e-10)


def test_closed_form_jumps_only_at_exact_rank_deficiency():
    # y_a = P^T u carries all of u for any invertible P, however weak a column,
    # so as one column shrinks the rate tends to I(u; c_1 + n_1); only the zero
    # column drops u_2 from the uplink, leaving I(u_1; c_1 + n_1), which is
    # lower because the two antennas are correlated
    stats = ChannelStatistics(
        R_bs=bs_correlation(0.3, 2), R_irs=irs_correlation(2, 2),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    power_b, noise = 10.0, 1e-9
    def bits_at(eps):
        p = np.diag([1.0, eps]).astype(complex)
        return skr_closed_form(ProbeDesign(precoder=p, phases=np.ones(4, dtype=complex)),
                               stats, power_b, noise).bits
    r_c = effective_variance(np.ones(4, dtype=complex), stats) * stats.R_bs
    given_u = noise * np.linalg.solve(power_b * r_c + noise * np.eye(2), r_c)  # cov(c | u)
    seen = math.log2((r_c[0, 0] + noise) / (given_u[0, 0] + noise))
    dropped = scalar_mi_bits(1.0, power_b, r_c[0, 0], noise)
    assert seen - dropped > 1e-4
    assert abs(bits_at(1e-5) - seen) < 1e-8
    for eps in (1e-7, 1e-9, 1e-12):
        assert abs(bits_at(eps) - seen) <= 1e-12 * seen
    assert abs(bits_at(0.0) - dropped) <= 1e-12 * dropped


def test_closed_form_rejects_negative_rate_beyond_roundoff(small_stats, rng, monkeypatch):
    # a flipped sign on every rate stands in for a sign bug: it must not read as 0 bits
    des = _random_design(2, 4, rng)
    assert skr_closed_form(des, small_stats, 10.0, 1e-9).bits > 0.0
    monkeypatch.setattr(skr, "_LN2", -math.log(2.0))
    with pytest.raises(NumericalError):
        skr_closed_form(des, small_stats, 10.0, 1e-9)


def test_negative_or_nonfinite_rate_raises():
    # every rate is formed >= 0, so none is clamped: the smallest negative raises, 0 passes
    npt.assert_array_equal(skr._nonnegative_bits(np.array([0.0, 2.5])), [0.0, 2.5])
    for bad in (-1e-300, np.nan, np.inf):
        with pytest.raises(NumericalError):
            skr._nonnegative_bits(np.array([bad, 2.5]))


def test_closed_form_rejects_nonfinite_precoder(small_stats):
    bad = ProbeDesign(precoder=np.full((2, 2), np.nan, dtype=complex),
                      phases=np.ones(4, dtype=complex))
    with pytest.raises(NumericalError):
        skr_closed_form(bad, small_stats, 10.0, 1e-9)


def _direct_only_stats(r_bs):
    """Statistics whose signal covariance is P^T r_bs P^* exactly (unit direct gain, no surface)."""
    return ChannelStatistics(R_bs=r_bs, R_irs=np.eye(1), beta_direct=1.0, beta_bs_irs=0.0, beta_irs_ue=1.0)


def test_closed_form_rejects_asymmetric_antenna_correlation():
    stats = _direct_only_stats(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NumericalError, match="Hermitian"):
        skr.closed_form_bits(np.eye(2, dtype=complex)[None], np.ones((1, 1)), stats, 10.0, 1e-9)


@pytest.mark.parametrize("gains, min_eig", [((1.0,), "-1.000e+00"), ((1.0, 2.0, 0.5), "-1.000e+00")])
def test_closed_form_rejects_indefinite_signal_covariance(gains, min_eig):
    # R_bs with eigenvalues 3 and -1, which no channel correlation has; the
    # message names R_bs's smallest eigenvalue, whatever the batch
    stats = _direct_only_stats(np.array([[1.0, 2.0], [2.0, 1.0]]))
    precoders = np.stack([g * np.eye(2, dtype=complex) for g in gains])
    with pytest.raises(NumericalError, match=rf"indefinite \(min eigenvalue {re.escape(min_eig)}\)"):
        skr.closed_form_bits(precoders, np.ones((len(gains), 1)), stats, 10.0, 1e-9)


def _force_singular_basis(monkeypatch):
    """Fail the conditioning certificate for every matrix, so each design's route is decided by eigenvalues."""
    monkeypatch.setattr(skr, "_positive_definite", lambda mats: np.zeros(len(mats), dtype=bool))


@pytest.mark.parametrize("min_eig, passes", [(-0.4e-10, True), (-0.9e-10, True), (-1.1e-10, False)])
def test_closed_form_psd_check_tolerance(min_eig, passes, monkeypatch):
    # an R_bs eigenvalue down to -1e-10 (relative to the covariance scale) is
    # roundoff, on the unrotated route and in the singular basis alike
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    stats = _direct_only_stats(rot @ np.diag([1.0, min_eig]) @ rot.T)
    call = lambda: skr.closed_form_bits(np.eye(2, dtype=complex)[None], np.ones((1, 1)), stats, 10.0, 1.0)
    for force in (False, True):
        if force:
            _force_singular_basis(monkeypatch)
        if passes:
            assert call()[0] >= 0.0
        else:
            with pytest.raises(NumericalError, match="indefinite"):
                call()


def test_closed_form_nan_phases_are_a_numerical_error(small_stats, rng):
    # a NaN effective variance must not reach LAPACK, which factors NaN without error
    designs = [_random_design(2, 4, rng) for _ in range(3)]
    precoders = np.stack([d.precoder for d in designs])
    phases = np.stack([d.phases for d in designs])
    phases[1, 2] = np.nan
    with pytest.raises(NumericalError, match="effective variance"):
        skr.closed_form_bits(precoders, phases, small_stats, 10.0, 1e-9)


def test_closed_form_certificates_only_skip_work(rng, monkeypatch):
    # with the Cholesky certificate failing, every design is judged by K's smallest
    # eigenvalues, which keep the unrotated rate wherever the certificate's test
    # holds: the bits and errors stay the same
    stats = _direct_only_stats(bs_correlation(0.5, 3))
    precoders = np.stack([_random_design(3, 1, rng).precoder for _ in range(4)])
    precoders[1, :, 2] = 0.0
    precoders[2] = 0.0
    phases = np.ones((4, 1))
    fast = skr.closed_form_bits(precoders, phases, stats, 10.0, 1e-9)
    _force_singular_basis(monkeypatch)
    npt.assert_array_equal(skr.closed_form_bits(precoders, phases, stats, 10.0, 1e-9), fast)
    assert fast[2] == 0.0 and np.all(fast[[0, 1, 3]] > 0.0)
    with pytest.raises(NumericalError, match="indefinite"):
        skr.closed_form_bits(precoders, phases, _direct_only_stats(-np.eye(3)), 10.0, 1e-9)


def test_closed_form_covers_every_rank_with_one_singular_basis_call(monkeypatch):
    # ranks 0, 1, M-1 and M (one direction at 1e-9) all fail the route test; the dropped
    # singular values are zeroed, so one eigh of the masked compressions covers them all
    m = 4
    stats = _direct_only_stats(bs_correlation(0.5, m))
    stats.R_bs_eigh  # the statistics' own eigh, cached before the spy
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    singular = [[0.0] * m, [1.0, 0.0, 0.0, 0.0], [1.0, 0.8, 0.5, 0.0], [1.0, 0.8, 0.5, 1e-9]]
    precoders = np.stack([(u * np.array(s)) @ v for s in singular])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat, *args: calls.append(mat.shape) or eigh(mat, *args))
    bits = skr.closed_form_bits(precoders, np.ones((len(singular), 1)), stats, 10.0, 1e-9)
    assert calls == [(len(singular), m, m)]
    assert bits[0] == 0.0 and np.all(np.diff(bits) > 0.0)


def _route_batch(eta, power_a_dbm, power_b_dbm):
    """closed_form_bits arguments for 100 random M = 16 designs at L = 16, seed 16."""
    cfg = SystemConfig(M=16, L_h=4, L_v=4, eta=eta, power_a=dbm_to_mw(power_a_dbm), power_b=dbm_to_mw(power_b_dbm))
    stats = channel_statistics(cfg)
    rng = np.random.default_rng(16)
    designs = [_random_design(16, cfg.L, rng, cfg.power_a) for _ in range(100)]
    return np.stack([d.precoder for d in designs]), np.stack([d.phases for d in designs]), stats, cfg.power_b, cfg.noise


@pytest.mark.parametrize("eta, power_a_dbm, power_b_dbm", [
    pytest.param(0.3, 70.0, 70.0, id="0.3"),
    pytest.param(0.9, 70.0, 70.0, id="0.9"),
    pytest.param(0.3, 70.0, 10.0, id="0.3-70/10dBm"),
    pytest.param(0.3, 10.0, 70.0, id="0.3-10/70dBm"),
])
def test_closed_form_keeps_only_unrotated_rates_within_the_route_tolerance(eta, power_a_dbm, power_b_dbm, monkeypatch):
    # every rate kept unrotated is within the route tolerance of the singular basis, taken for
    # all designs when the tolerance is 0. At eta = 0.9 (lam_max / lam_min ~190) a test that
    # puts a weak direction's SNR at max(D) s_min^2 keeps rates 3.6e-14 off; unequal powers
    # exercise K_2's certificate
    args = _route_batch(eta, power_a_dbm, power_b_dbm)
    routed, rtol = skr.closed_form_bits(*args), skr._UNROTATED_RTOL
    monkeypatch.setattr(skr, "_UNROTATED_RTOL", 0.0)
    rotated = skr.closed_form_bits(*args)
    assert np.abs(routed - rotated).max() <= rtol * rotated.min()


def test_strong_correlation_designs_mostly_skip_the_singular_basis(monkeypatch):
    # K_i's smallest eigenvalue is a weak direction's SNR itself: at eta = 0.9 a bound on it
    # through lam_max / lam_min of R_bs sends 20 of these designs to the SVD at 20 dBm and
    # all 100 at 70 dBm
    rows = []
    svd = np.linalg.svd

    def spy(mat, *args, compute_uv=True, **kwargs):
        if compute_uv:  # the precoder SVDs, not the singular values of B
            rows.append(len(mat))
        return svd(mat, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for power_dbm, most in ((20.0, 0), (70.0, 49)):
        args = _route_batch(0.9, power_dbm, power_dbm)
        rows.clear()
        skr.closed_form_bits(*args)
        assert sum(rows) <= most, f"{sum(rows)} of 100 designs took the SVD at {power_dbm} dBm"


def _whitened_mi_two_calls(a, lam, var, power_b, noise, want_grad):
    # the core with each of I + A^H D1 A and I + A^H D2 A factored and inverted in its own call
    s = var[..., None] * lam
    den = power_b * s + noise
    d1, d2 = s / noise, s / den
    eye = np.eye(a.shape[-1])
    a_h = np.swapaxes(a, -1, -2).conj()
    k1 = eye + a_h @ (d1[..., None] * a)
    k2 = eye + a_h @ (d2[..., None] * a)
    ld1, ld2 = skr._logdet_psd(k1), skr._logdet_psd(k2)
    nats = ld1 - ld2
    if not want_grad:
        return nats, None, None
    x1 = a @ np.linalg.inv(k1)
    x2 = a @ np.linalg.inv(k2)
    g_a = d1[..., None] * x1 - d2[..., None] * x2
    w1 = np.sum(x1 * a.conj(), axis=-1).real
    w2 = np.sum(x2 * a.conj(), axis=-1).real
    g_var = np.sum(lam * (w1 / noise - w2 * (noise / den) / den), axis=-1)
    return nats, g_a, g_var


@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("k", [1, 100])
@pytest.mark.parametrize("want_grad", [False, True])
def test_whitened_mi_stacked_matches_two_call_reference(m, k, want_grad):
    # D1 and D2 share one Cholesky, one inversion and one product; every output keeps its bits
    rng = np.random.default_rng(10 * m + k)
    stats = channel_statistics(SystemConfig(M=m, L_h=3, L_v=3))
    lam, basis = stats.R_bs_eigh
    designs = [_random_design(m, stats.L, rng) for _ in range(k)]
    a = basis.conj().T @ np.stack([d.precoder for d in designs]).conj()
    var = skr._variance(np.stack([d.phases for d in designs]), stats)[0]
    got = skr._whitened_mi(a, lam, var, 10.0, 1e-9, want_grad=want_grad)
    want = _whitened_mi_two_calls(a, lam, var, 10.0, 1e-9, want_grad)
    for got_part, want_part in zip(got, want):
        assert (got_part is None and want_part is None) or np.array_equal(got_part, want_part)


def test_closed_form_matches_monte_carlo(small_stats, rng):
    des = _random_design(2, 4, rng)
    closed = skr_closed_form(des, small_stats, 10.0, 1e-9).bits
    mc = skr_monte_carlo(des, small_stats, 10.0, 1e-9, n_samples=200_000,
                         rng=np.random.default_rng(99))
    assert mc.method == "monte_carlo" and mc.std_error is not None
    assert abs(closed - mc.bits) <= 2.0 * mc.std_error


# --------------------------------------------------------------------------
# approximate form


def test_approximate_equals_determinant_form(reference_stats, rng):
    # dual route: per-eigenmode sum vs the log-determinant expression with the
    # noise Gram replaced by its power-budget average power_a * I
    from irskey.skr import _mi_bits_from_joint

    power_a, power_b, noise = 10.0, 10.0, 1e-9
    for _ in range(10):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p_e = raw * math.sqrt(4 / np.sum(np.abs(raw) ** 2))
        phases = equal_phase_vector(25)
        got = skr_approximate(p_e, phases, reference_stats, power_a, power_b, noise).bits
        var = effective_variance(phases, reference_stats)
        scaled = math.sqrt(power_a) * p_e
        r_z = var * scaled.T @ reference_stats.R_bs @ scaled.conj()
        cross = math.sqrt(power_b) * r_z
        joint = np.block([[power_b * r_z + noise * power_a * np.eye(4), cross],
                          [cross.conj().T, r_z + noise * np.eye(4)]])
        want = float(_mi_bits_from_joint(joint, joint.shape[-1] // 2))
        assert got == pytest.approx(want, abs=1e-10)


def test_approximate_scalar_matches_closed_form():
    # with one antenna the Gram equals its average, so both forms coincide
    stats = _scalar_stats(beta_h=1.5)
    power_a, power_b, noise = 2.0, 5.0, 0.1
    des = ProbeDesign(precoder=np.array([[math.sqrt(power_a)]], dtype=complex),
                      phases=np.ones(1, dtype=complex))
    closed = skr_closed_form(des, stats, power_b, noise).bits
    approx = skr_approximate(np.eye(1, dtype=complex), des.phases, stats,
                             power_a, power_b, noise).bits
    assert approx == pytest.approx(closed, rel=1e-12)


def test_approximate_rejects_off_budget_precoder(reference_stats):
    with pytest.raises(ConfigError):
        skr_approximate(np.eye(4) * 2.0, equal_phase_vector(25), reference_stats, 10.0, 10.0, 1e-9)


@pytest.mark.parametrize("power_a, power_b, noise", [(-10.0, 10.0, 1e-9), (10.0, 0.0, 1e-9), (10.0, 10.0, -1e-9)])
def test_approximate_rejects_nonpositive_power_or_noise(reference_stats, power_a, power_b, noise):
    with pytest.raises(ConfigError):
        skr_approximate(np.eye(4, dtype=complex), equal_phase_vector(25), reference_stats, power_a, power_b, noise)


# --------------------------------------------------------------------------
# Monte Carlo estimator


def test_monte_carlo_rejects_small_samples(small_stats, rng):
    des = _random_design(2, 4, rng)
    with pytest.raises(ConfigError):
        skr_monte_carlo(des, small_stats, 10.0, 1e-9, n_samples=5000, rng=rng)
    with pytest.raises(ConfigError):
        skr_monte_carlo(des, small_stats, 10.0, 1e-9, n_samples=20_000, rng=rng, n_batches=1)


def test_monte_carlo_zero_signal_near_zero(small_stats, rng):
    # with no uplink power the two observations are independent noise
    des = _random_design(2, 4, rng)
    mc = skr_monte_carlo(des, small_stats, 0.0, 1e-9, n_samples=50_000,
                         rng=np.random.default_rng(3))
    assert abs(mc.bits) < 0.01


def test_monte_carlo_std_error_scales_inverse_sqrt(small_stats, rng):
    des = _random_design(2, 4, rng)
    ses = []
    for n in (50_000, 200_000):
        reps = [
            skr_monte_carlo(des, small_stats, 10.0, 1e-9, n_samples=n,
                            rng=np.random.default_rng(seed)).std_error
            for seed in range(8)
        ]
        ses.append(np.mean(reps))
    ratio = ses[0] / ses[1]
    assert 1.4 < ratio < 2.9  # ideal 2.0 for a 4x sample increase


def test_monte_carlo_seed_determinism(small_stats, rng):
    des = _random_design(2, 4, rng)
    a = skr_monte_carlo(des, small_stats, 10.0, 1e-9, 20_000, np.random.default_rng(42))
    b = skr_monte_carlo(des, small_stats, 10.0, 1e-9, 20_000, np.random.default_rng(42))
    assert a.bits == b.bits and a.std_error == b.std_error


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_monte_carlo_rejects_non_finite_estimates(small_stats, rng):
    des = _random_design(2, 4, rng)
    for power_b, noise in ((10.0, math.nan), (math.nan, 1e-9), (10.0, math.inf)):
        with pytest.raises(NumericalError, match="not finite"):
            skr_monte_carlo(des, small_stats, power_b, noise, 20_000, np.random.default_rng(0))


def test_monte_carlo_rejects_non_finite_precoder(small_stats, rng):
    # the rank is read off the precoder's SVD, which does not converge on NaN or inf
    des = _random_design(2, 4, rng)
    for bad in (math.nan, math.inf):
        precoder = des.precoder.copy()
        precoder[1, 0] = bad
        with pytest.raises(NumericalError, match="precoder has non-finite entries"):
            skr_monte_carlo(ProbeDesign(precoder=precoder, phases=des.phases), small_stats, 10.0, 1e-9,
                            20_000, np.random.default_rng(0))


def test_monte_carlo_batch_moment_matches_sampled_probing(reference_stats, rng):
    # same child stream: channels drawn by sample_batch, then the BS and the UE
    # noise, pushed through the probing model one round at a time
    des = _random_design(4, 25, rng)
    power_b, noise, n = 10.0, 1e-9, 300
    got = skr._batch_second_moment(des, des.precoder, reference_stats, power_b, noise, n, np.random.default_rng(8))
    stream = np.random.default_rng(8)
    h, big_g, f = sample_batch(reference_stats, n, stream)
    noise_a = _complex_normal(stream, n * 4, noise).reshape(n, 4)
    noise_b = _complex_normal(stream, n * 4, noise).reshape(n, 4)
    want = np.zeros((8, 8), dtype=complex)
    for i in range(n):
        c = combined_channel(ChannelRealization(h[i], big_g[i], f[i], None), des)
        z = np.concatenate([uplink_probe(c, des.precoder, noise_a[i], power_b),
                            downlink_probe(c, des.precoder, noise_b[i])])
        want += np.outer(z, z.conj())
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("random_phases", [False, True], ids=["equal_phases", "random_phases"])
def test_monte_carlo_range_combiner_matches_projected_moment(random_phases):
    # reference: the 2M-square moment with uplink P, then y_a projected onto an
    # orthonormal basis V_r of the range of P^T by t = blockdiag(V_r, I)
    system = SystemConfig(power_a=1.0, power_b=1.0)  # 0 dBm: water-filling powers 2 of 4 modes
    stats = channel_statistics(system)
    des = baseline_design(system, stats)
    if random_phases:  # the same rank-2 precoder behind a surface whose phases are not all 1
        des = ProbeDesign(precoder=des.precoder, phases=np.exp(2j * np.pi * np.random.default_rng(6).random(stats.L)))
    _, sv, vh = np.linalg.svd(des.precoder)
    rank = int(np.sum(sv > 4 * np.finfo(float).eps * sv[0]))
    assert rank == 2
    args = (stats, system.power_b, system.noise, 300)
    full = skr._batch_second_moment(des, des.precoder, *args, np.random.default_rng(5))
    t = np.zeros((8, rank + 4), dtype=complex)
    t[:4, :rank] = vh[:rank].conj().T
    t[4:, rank:] = np.eye(4)
    want = t.T @ full @ t.conj()
    uplink = des.precoder @ vh[:rank].conj().T
    got = skr._batch_second_moment(des, uplink, *args, np.random.default_rng(5))
    assert got.shape == (rank + 4, rank + 4)
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_monte_carlo_batch_peak_memory_has_a_formula(reference_stats, rng):
    # at its peak a batch holds g's two real (n, M, L) blocks, f_iid and v
    # (n, L complex), and h_iid and the two noises (n, M complex); 1 MiB of slack
    des = _random_design(4, 25, rng)
    n, m, l = 20_000, reference_stats.M, reference_stats.L
    reference_stats.R_irs_sqrt, reference_stats.R_bs_sqrt  # cached before tracing
    bound = 2 * n * m * l * 8 + 2 * n * l * 16 + 3 * n * m * 16 + 2**20
    tracemalloc.start()
    try:
        skr._batch_second_moment(des, des.precoder, reference_stats, 10.0, 1e-9, n, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB over {bound / 2**20:.1f} MiB"


def test_monte_carlo_is_bit_identical_for_any_pool_size(small_stats, rng, monkeypatch):
    # 100 small batches per run, and batch 0 held back so that on two threads it
    # finishes last: a sum in completion order would then differ in the last
    # bits for about half of the seeds
    des = _random_design(2, 4, rng)
    kernel = skr._batch_second_moment
    for seed in range(8):
        reports, workers = [], []
        for cpus in (1, 2):
            calls, threads = itertools.count(), set()

            def batch_zero_last(*args, calls=calls, threads=threads):
                threads.add(threading.get_ident())
                if next(calls) == 0:
                    time.sleep(0.02)
                return kernel(*args)

            monkeypatch.setattr(skr, "_batch_second_moment", batch_zero_last)
            monkeypatch.setattr(_blas.os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            reports.append(
                skr_monte_carlo(des, small_stats, 10.0, 1e-9, 20_000, np.random.default_rng(seed), n_batches=100)
            )
            workers.append(len(threads))
        assert workers == [1, 2]
        assert reports[0].bits == reports[1].bits
        assert reports[0].std_error == reports[1].std_error


def test_monte_carlo_runs_blas_on_one_thread_and_restores_it(small_stats, rng, monkeypatch):
    threads = _blas.openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS reachable in this process")
    get, put = threads
    des = _random_design(2, 4, rng)
    kernel = skr._batch_second_moment
    seen, calls = [], itertools.count()

    def spy(*args):
        seen.append(get())
        if next(calls) == 13:
            raise NumericalError("synthetic batch failure")
        return kernel(*args)

    monkeypatch.setattr(skr, "_batch_second_moment", spy)
    before = get()
    put(2)  # a count the guard must lower and then bring back
    try:
        skr_monte_carlo(des, small_stats, 10.0, 1e-9, 20_000, np.random.default_rng(1))
        assert seen == [1] * 10
        assert get() == 2
        with pytest.raises(NumericalError, match="synthetic"):
            skr_monte_carlo(des, small_stats, 10.0, 1e-9, 20_000, np.random.default_rng(1))
        assert len(seen) > 10 and set(seen) == {1}
        assert get() == 2
    finally:
        put(before)


@pytest.mark.parametrize("min_eig", [-1e-6, -1e-9, -5e-11])
def test_antenna_correlation_is_judged_positive_semidefinite_once(min_eig):
    # four paths judged R_bs by four rules: at -1e-6 the closed form read 6.776 bits, and the
    # approximation accepted -1e-9. Water-filling keeps its floor: whitening needs every eigenvalue > 0
    system = SystemConfig()
    lam, basis = np.linalg.eigh(channel_statistics(system).R_bs)
    lam[0] = min_eig
    stats = dataclasses.replace(channel_statistics(system), R_bs=(basis * lam) @ basis.T)
    des, args = random_design(system, np.random.default_rng(0)), (stats, system.power_b, system.noise)
    evaluators = (
        lambda: skr_closed_form(des, *args),
        lambda: skr_monte_carlo(des, *args, 20_000, np.random.default_rng(0)),
        lambda: skr_approximate(des.precoder / math.sqrt(system.power_a), des.phases, stats, system.power_a, *args[1:]),
    )
    indefinite = min_eig < -1e-10
    for evaluate in evaluators:
        if indefinite:
            with pytest.raises(NumericalError, match="indefinite"):
                evaluate()
        else:
            assert evaluate().bits > 0
    with pytest.raises(NumericalError, match="indefinite" if indefinite else "singular"):
        waterfill_design(system, stats)


def test_antenna_correlation_is_judged_hermitian_once():
    # the closed form (via R_bs_eigh) and Monte Carlo (via R_bs_sqrt) accept
    # and reject the same asymmetry: R_bs is judged Hermitian once, to 1e-8
    system = SystemConfig()
    stats = channel_statistics(system)
    design = baseline_design(system, stats)
    for offset, ok in ((5e-9, True), (0.2, False)):
        r_bs = stats.R_bs.copy()
        r_bs[0, 3] += offset
        skewed = dataclasses.replace(stats, R_bs=r_bs)
        evaluators = (
            lambda: skr_closed_form(design, skewed, system.power_b, system.noise),
            lambda: skr_monte_carlo(design, skewed, system.power_b, system.noise, 20_000, np.random.default_rng(0)),
        )
        for evaluate in evaluators:
            if ok:
                assert evaluate().bits > 0
            else:
                with pytest.raises(NumericalError, match="Hermitian"):
                    evaluate()
