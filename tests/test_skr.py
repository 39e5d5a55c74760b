import itertools
import math
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ChannelStatistics,
    ConfigError,
    NumericalError,
    ProbeDesign,
    bs_correlation,
    combined_covariance,
    effective_variance,
    equal_phase_vector,
    irs_correlation,
    sample_batch,
    skr_approximate,
    skr_closed_form,
    skr_monte_carlo,
)
from irskey import _blas, probe_pair, skr
from irskey.channel import ChannelRealization, _complex_normal

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


def test_closed_form_continuous_across_rank_boundary(rng):
    # shrinking one precoder column to zero converges to the reduced-rank value
    stats = ChannelStatistics(
        R_bs=bs_correlation(0.3, 2), R_irs=irs_correlation(2, 2),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    base = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    def bits_at(eps):
        p = base.copy()
        p[:, 1] *= eps
        return skr_closed_form(ProbeDesign(precoder=p, phases=np.ones(4, dtype=complex)),
                               stats, 10.0, 1e-9).bits
    limit = bits_at(0.0)
    assert abs(bits_at(1e-5) - limit) < 1e-3
    assert abs(bits_at(1e-7) - limit) < 1e-7
    assert limit > 0.0


def test_closed_form_rejects_negative_rate_beyond_roundoff(small_stats, rng, monkeypatch):
    # a flipped sign on every rate stands in for a sign bug: it must not read as 0 bits
    des = _random_design(2, 4, rng)
    assert skr_closed_form(des, small_stats, 10.0, 1e-9).bits > 0.0
    monkeypatch.setattr(skr, "_LN2", -math.log(2.0))
    with pytest.raises(NumericalError):
        skr_closed_form(des, small_stats, 10.0, 1e-9)


def test_negative_rate_clamp_tolerance():
    scale = np.array([100.0, 100.0])
    tiny = -0.5 * skr._CLAMP_RTOL * scale
    npt.assert_array_equal(skr._nonnegative_bits(np.array([tiny[0], 2.5]), scale), [0.0, 2.5])
    with pytest.raises(NumericalError):
        skr._nonnegative_bits(np.array([-2.0 * skr._CLAMP_RTOL * 100.0, 2.5]), scale)
    with pytest.raises(NumericalError):
        skr._nonnegative_bits(np.array([np.nan, 2.5]), scale)


def test_closed_form_rejects_nonfinite_precoder(small_stats):
    bad = ProbeDesign(precoder=np.full((2, 2), np.nan, dtype=complex),
                      phases=np.ones(4, dtype=complex))
    with pytest.raises(NumericalError):
        skr_closed_form(bad, small_stats, 10.0, 1e-9)


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
    from irskey.skr import _assemble_joint, _mi_bits_from_joint

    power_a, power_b, noise = 10.0, 10.0, 1e-9
    for _ in range(10):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p_e = raw * math.sqrt(4 / np.sum(np.abs(raw) ** 2))
        phases = equal_phase_vector(25)
        got = skr_approximate(p_e, phases, reference_stats, power_a, power_b, noise).bits
        var = effective_variance(phases, reference_stats)
        scaled = math.sqrt(power_a) * p_e
        r_z = var * scaled.T @ reference_stats.R_bs @ scaled.conj()
        joint = _assemble_joint(r_z, power_a * np.eye(4), power_b, noise)
        want = float(_mi_bits_from_joint(joint))
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


def test_monte_carlo_batch_moment_matches_sampled_probing(reference_stats, rng):
    # same child stream: channels drawn by sample_batch, then the BS and the UE
    # noise, pushed through the probing model one round at a time
    des = _random_design(4, 25, rng)
    power_b, noise, n = 10.0, 1e-9, 300
    got = skr._batch_second_moment(des, reference_stats, power_b, noise, n, np.random.default_rng(8))
    stream = np.random.default_rng(8)
    h, big_g, f = sample_batch(reference_stats, n, stream)
    noise_a = _complex_normal(stream, n * 4, noise).reshape(n, 4)
    noise_b = _complex_normal(stream, n * 4, noise).reshape(n, 4)
    want = np.zeros((8, 8), dtype=complex)
    for i in range(n):
        obs = probe_pair(ChannelRealization(h[i], big_g[i], f[i], None), des, noise_a[i], noise_b[i], power_b)
        z = np.concatenate([obs.y_a, obs.y_b])
        want += np.outer(z, z.conj())
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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
            monkeypatch.setattr(skr.os, "cpu_count", lambda cpus=cpus: cpus)
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
