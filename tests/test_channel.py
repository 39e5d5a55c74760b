import math

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ConfigError,
    SystemConfig,
    bs_correlation,
    cascade_covariance,
    channel_statistics,
    dbm_to_mw,
    irs_correlation,
    link_gains,
    load_system_config,
    mw_to_dbm,
    path_gain,
    sample_batch,
    sample_realization,
)
from irskey.channel import _complex_normal, psd_sqrt


# --------------------------------------------------------------------------
# unit conversions


def test_dbm_mw_roundtrip():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(10.0) == pytest.approx(10.0, rel=1e-15)
    assert dbm_to_mw(-90.0) == pytest.approx(1e-9, rel=1e-15)
    for x in (-31.4, 0.0, 7.0, 23.5):
        assert mw_to_dbm(dbm_to_mw(x)) == pytest.approx(x, abs=1e-12)


# --------------------------------------------------------------------------
# surface correlation


def test_irs_correlation_single_row_half_wavelength_is_identity():
    # along one axis the neighbor argument is an integer, where sinc vanishes
    npt.assert_allclose(irs_correlation(4, 1, 0.5), np.eye(4), atol=1e-15)
    npt.assert_allclose(irs_correlation(1, 5, 0.5), np.eye(5), atol=1e-15)


def test_irs_correlation_2x2_exact_values():
    # 2x2 grid, half-wavelength spacing: axis neighbors correlate 0, the two
    # diagonal pairs correlate sin(sqrt(2) pi)/(sqrt(2) pi)
    diag_val = math.sin(math.sqrt(2.0) * math.pi) / (math.sqrt(2.0) * math.pi)
    r = irs_correlation(2, 2, 0.5)
    assert r.shape == (4, 4)
    npt.assert_allclose(np.diag(r), np.ones(4), atol=1e-15)
    off = r[~np.eye(4, dtype=bool)]
    # 12 off-diagonal entries: 8 axis pairs (zero) and 4 diagonal pairs
    vals = np.sort(np.round(off, 12))
    assert np.count_nonzero(np.abs(off) < 1e-12) == 8
    npt.assert_allclose(off[np.abs(off) > 1e-12], diag_val, atol=1e-12)
    assert diag_val == pytest.approx(-0.2169542944, abs=1e-9)
    assert len(vals) == 12


def test_irs_correlation_properties():
    for l_h, l_v, sp in ((3, 3, 0.5), (2, 4, 0.25), (4, 2, 0.7)):
        r = irs_correlation(l_h, l_v, sp)
        npt.assert_allclose(r, r.T, atol=1e-14)
        npt.assert_allclose(np.diag(r), 1.0, atol=1e-15)
        assert np.abs(r).max() <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(r).min() >= -1e-12


def test_irs_correlation_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        irs_correlation(0, 3)
    with pytest.raises(ConfigError):
        irs_correlation(3, 3, spacing_wl=0.0)


# --------------------------------------------------------------------------
# antenna correlation


def test_bs_correlation_values():
    npt.assert_array_equal(bs_correlation(0.0, 3), np.eye(3))
    npt.assert_array_equal(bs_correlation(0.7, 1), [[1.0]])
    npt.assert_allclose(bs_correlation(0.3, 2), [[1.0, 0.3], [0.3, 1.0]], atol=1e-15)
    for m in (1, 2, 4, 8, 16):
        for eta in (0.0, 0.3, 0.6, 0.7, 0.95):
            loop = [[eta ** abs(i - j) for j in range(m)] for i in range(m)]
            # numpy's vectorized pow may round one ulp away from the scalar one
            npt.assert_allclose(bs_correlation(eta, m), loop, rtol=1e-15, atol=0.0)
    assert np.linalg.eigvalsh(bs_correlation(0.6, 4)).min() >= -1e-12


def test_bs_correlation_rejects_eta_out_of_range():
    with pytest.raises(ConfigError):
        bs_correlation(1.0, 2)
    with pytest.raises(ConfigError):
        bs_correlation(-0.1, 2)


# --------------------------------------------------------------------------
# path gain


def test_path_gain_reference_values():
    # -30 dB at the reference distance, exact power laws beyond it
    assert path_gain(1.0, 3.67) == pytest.approx(1e-3, rel=1e-15)
    assert path_gain(100.0, 2.0) == pytest.approx(1e-7, rel=1e-12)
    assert path_gain(10.0, 3.0) == pytest.approx(1e-6, rel=1e-12)


def test_path_gain_monotone_decreasing():
    gains = [path_gain(d, 2.5) for d in (1.0, 2.0, 5.0, 20.0, 100.0)]
    assert all(b < a for a, b in zip(gains, gains[1:]))


def test_path_gain_rejects_nonpositive_distance():
    with pytest.raises(ConfigError):
        path_gain(0.0, 2.0)


def test_path_gain_accepts_arrays_and_rejects_any_short_link():
    dist = np.array([[1.0, 10.0], [100.0, 1e4]])
    gains = path_gain(dist, 2.0)
    assert gains.shape == (2, 2)
    npt.assert_allclose(gains, 1e-3 / dist**2, rtol=1e-14)
    for bad in (0.5, np.nan):
        with pytest.raises(ConfigError):
            path_gain(np.array([5.0, bad, 7.0]), 2.0)


def test_link_gains_match_channel_statistics_per_position(rng):
    cfg = SystemConfig(pos_ue=(3.0, -2.0, 1.5))
    positions = np.stack(
        [rng.uniform(-40.0, 40.0, (4, 6)), rng.uniform(-40.0, 40.0, (4, 6)), rng.uniform(-2.0, 2.0, (4, 6))],
        axis=-1,
    )
    positions[0, 0] = (10.0, 10.0, 0.0)
    beta_direct, beta_bs_irs, beta_irs_ue = link_gains(cfg, positions)
    assert beta_direct.shape == beta_irs_ue.shape == (4, 6)
    assert np.ndim(beta_bs_irs) == 0
    for idx in np.ndindex(4, 6):
        one = channel_statistics(cfg, pos_ue=tuple(positions[idx]))
        assert beta_direct[idx] == pytest.approx(one.beta_direct, rel=1e-14, abs=0.0)
        assert beta_bs_irs == pytest.approx(one.beta_bs_irs, rel=1e-14, abs=0.0)
        assert beta_irs_ue[idx] == pytest.approx(one.beta_irs_ue, rel=1e-14, abs=0.0)
    # the configured position is the default of channel_statistics
    here = channel_statistics(cfg)
    assert link_gains(cfg, cfg.pos_ue) == (here.beta_direct, here.beta_bs_irs, here.beta_irs_ue)


def test_link_gains_reject_any_position_within_reference_distance():
    cfg = SystemConfig()
    far = [(10.0, 10.0, 0.0), (-20.0, 5.0, 0.0)]
    link_gains(cfg, far)
    for near in ((0.3, 0.4, 0.0), (5.0, -35.0, 0.5)):  # the surface, the BS
        with pytest.raises(ConfigError):
            link_gains(cfg, far + [near])
    with pytest.raises(ConfigError):
        link_gains(cfg, [1.0, 2.0])


# --------------------------------------------------------------------------
# PSD square root


def test_psd_sqrt_identity_and_diagonal():
    npt.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    npt.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_reconstructs_bs_correlation():
    r = bs_correlation(0.3, 2)
    s = psd_sqrt(r)
    npt.assert_allclose(s @ s.conj().T, r, atol=1e-10)


def test_psd_sqrt_handles_near_singular_surface():
    # 3x3 row at half-wavelength spacing has tiny negative eigen-noise
    r = irs_correlation(3, 3, 0.5)
    s = psd_sqrt(r)
    npt.assert_allclose(s @ s.conj().T, r, atol=1e-10)


# --------------------------------------------------------------------------
# statistics assembly


def test_channel_statistics_default_geometry_gains(reference_setup, reference_stats):
    # distances from the default positions, gains from the -30 dB power law
    d_direct = math.sqrt(5.0**2 + 45.0**2)  # (5,-35,0) to (10,10,0)
    d_bs_irs = math.sqrt(5.0**2 + 35.0**2)  # (5,-35,0) to (0,0,0)
    d_irs_ue = math.sqrt(10.0**2 + 10.0**2)
    assert reference_stats.beta_direct == pytest.approx(1e-3 * d_direct**-3.67, rel=1e-12)
    assert reference_stats.beta_bs_irs == pytest.approx(1e-3 / d_bs_irs**2, rel=1e-12)
    assert reference_stats.beta_irs_ue == pytest.approx(1e-3 / d_irs_ue**2, rel=1e-12)
    # exact values of the squared distances make two gains exactly rational
    assert reference_stats.beta_bs_irs == pytest.approx(1e-3 / 1250.0, rel=1e-12)
    assert reference_stats.beta_irs_ue == pytest.approx(1e-3 / 200.0, rel=1e-12)
    assert reference_stats.M == 4 and reference_stats.L == 25


def test_channel_statistics_ue_override(reference_setup):
    moved = channel_statistics(reference_setup, pos_ue=(3.0, 4.0, 0.0))
    assert moved.beta_irs_ue == pytest.approx(1e-3 / 25.0, rel=1e-12)
    assert moved.R_bs is not None and moved.L == 25


def test_cascade_covariance_block_structure(small_stats):
    m, l = small_stats.M, small_stats.L
    cov = cascade_covariance(small_stats)
    assert cov.shape == (m * (l + 1), m * (l + 1))
    npt.assert_allclose(cov[:m, :m], small_stats.beta_direct * small_stats.R_bs, atol=1e-18)
    # cross blocks are exactly zero (independent zero-mean links)
    npt.assert_array_equal(cov[:m, m:], 0.0)
    npt.assert_array_equal(cov[m:, :m], 0.0)
    # reflected block assembled independently element by element
    gain = small_stats.beta_bs_irs * small_stats.beta_irs_ue
    for i in range(l):
        for j in range(l):
            expected = gain * (small_stats.R_irs[i, j] ** 2) * small_stats.R_bs
            npt.assert_allclose(cov[m + i * m : m + (i + 1) * m, m + j * m : m + (j + 1) * m],
                                expected, atol=1e-20)
    assert np.linalg.eigvalsh(cov).min() >= -1e-15


def test_cascade_covariance_trivial_scalar():
    from irskey import ChannelStatistics

    stats = ChannelStatistics(
        R_bs=np.eye(1), R_irs=np.eye(1),
        beta_direct=1.0, beta_bs_irs=1.0, beta_irs_ue=1.0,
    )
    npt.assert_allclose(cascade_covariance(stats), np.eye(2), atol=1e-15)


# --------------------------------------------------------------------------
# sampling


def test_sample_realization_zero_variance_gives_zero_channels(rng):
    from irskey import ChannelStatistics

    stats = ChannelStatistics(
        R_bs=bs_correlation(0.3, 2), R_irs=irs_correlation(2, 2),
        beta_direct=0.0, beta_bs_irs=0.0, beta_irs_ue=0.0,
    )
    real = sample_realization(stats, rng)
    npt.assert_array_equal(real.h, 0.0)
    npt.assert_array_equal(real.G, 0.0)
    npt.assert_array_equal(real.f, 0.0)
    npt.assert_array_equal(real.cascade, 0.0)


def test_sample_realization_direct_covariance_uncorrelated(rng):
    # eta=0 and a single surface row at half wavelength: both correlations are I
    from irskey import ChannelStatistics

    beta = 2.5
    stats = ChannelStatistics(
        R_bs=bs_correlation(0.0, 2), R_irs=irs_correlation(4, 1, 0.5),
        beta_direct=beta, beta_bs_irs=1.0, beta_irs_ue=1.0,
    )
    n = 100_000
    draws = np.array([sample_realization(stats, rng).h for _ in range(2000)])
    cov = draws.T @ draws.conj() / len(draws)
    npt.assert_allclose(cov, beta * np.eye(2), atol=3 * beta / math.sqrt(2000) * 3)
    # a much larger batch through the vectorized path for the 3% bound
    h, _, _ = sample_batch(stats, n, rng)
    cov = h.T @ h.conj() / n
    assert np.abs(cov - beta * np.eye(2)).max() <= 0.03 * beta


def test_sample_cascade_covariance_matches_model(small_stats, rng):
    # empirical covariance of the stacked cascade vs the closed-form blocks
    n = 100_000
    model = small_stats.cascade_cov
    h, big_g, f = sample_batch(small_stats, n, rng)
    casc = np.concatenate(
        [h, (big_g * f[:, None, :]).reshape(n, -1, order="F")], axis=1
    )
    emp = casc.T @ casc.conj() / n
    rel = np.linalg.norm(emp - model) / np.linalg.norm(model)
    assert rel < 0.05


def test_sample_batch_matches_single_draw_statistics(small_stats):
    h, big_g, f = sample_batch(small_stats, 50_000, np.random.default_rng(7))
    assert h.shape == (50_000, 2) and big_g.shape == (50_000, 2, 4) and f.shape == (50_000, 4)
    assert abs((np.abs(h) ** 2).mean() / small_stats.beta_direct - 1.0) < 0.03
    assert abs((np.abs(f) ** 2).mean() / small_stats.beta_irs_ue - 1.0) < 0.03


def test_complex_normal_is_bit_identical_to_the_complex_expression():
    # in-place assembly must leave every sample_batch / sample_realization stream as it was
    for size, var in ((1, 1.0), (7, 2.5e-9), (1000, 3.7e4)):
        got = _complex_normal(np.random.default_rng(11), size, var)
        rng = np.random.default_rng(11)
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        want = np.sqrt(var / 2.0) * (re + 1j * im)
        assert got.dtype == want.dtype and got.shape == want.shape
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sampling_is_seed_deterministic(small_stats):
    a = sample_realization(small_stats, np.random.default_rng(5))
    b = sample_realization(small_stats, np.random.default_rng(5))
    npt.assert_array_equal(a.cascade, b.cascade)


# --------------------------------------------------------------------------
# config objects and file loading


def test_system_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(M=0)
    with pytest.raises(ConfigError):
        SystemConfig(eta=1.0)
    with pytest.raises(ConfigError):
        SystemConfig(noise=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(power_a=-1.0)
    with pytest.raises(ConfigError):
        SystemConfig(L_h=0)
    for bad in ({"noise": math.nan}, {"spacing_wl": math.inf}, {"pos_ue": (10.0, math.nan, 0.0)}):
        with pytest.raises(ConfigError, match="finite"):
            SystemConfig(**bad)
    cfg = SystemConfig(M=3, L_h=2, L_v=5)
    assert cfg.L == 10


def test_load_system_config_roundtrip(tmp_path):
    path = tmp_path / "sys.ini"
    path.write_text(
        "[system]\n"
        "m = 2\n"
        "l_h = 3\n"
        "l_v = 3\n"
        "eta = 0.5\n"
        "power_a_dbm = 0\n"
        "power_b_dbm = 20\n"
        "noise_dbm = -80\n"
        "pos_ue_m = 1, 2, 0\n"
    )
    cfg = load_system_config(str(path))
    assert cfg.M == 2 and cfg.L == 9 and cfg.eta == 0.5
    assert cfg.power_a == pytest.approx(1.0, rel=1e-15)
    assert cfg.power_b == pytest.approx(100.0, rel=1e-15)
    assert cfg.noise == pytest.approx(1e-8, rel=1e-15)
    assert cfg.pos_ue == (1.0, 2.0, 0.0)


def test_load_system_config_defaults_without_section(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[other]\nx = 1\n")
    assert load_system_config(str(path)) == SystemConfig()


def test_load_system_config_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\nm = two\n")
    with pytest.raises(ConfigError):
        load_system_config(str(bad))
    bad.write_text("[system]\nnot_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_system_config(str(bad))
    bad.write_text("[system]\npos_ue_m = 1, 2\n")
    with pytest.raises(ConfigError):
        load_system_config(str(bad))
    bad.write_text("[system]\npower_a_dbm = 4000\n")  # beyond float range in mW
    with pytest.raises(ConfigError, match="power_a_dbm"):
        load_system_config(str(bad))
    with pytest.raises(OSError):
        load_system_config(str(tmp_path / "missing.ini"))
