"""The closed form against the exact mutual information in 60-digit arithmetic.

The reference is written from the probing model, not from ``irskey.skr``: with
R_z = var(theta) P^T R_bs P^*, the uplink covariance p_b R_z + N P^T P^*, the
downlink covariance R_z + N I and their cross covariance sqrt(p_b) R_z, it
takes logdet R_a + logdet R_b - logdet joint in mpmath. Two regimes where
double precision can lose digits: a precoder just short of rank deficiency,
and low SNR, where the rate is a small difference of large terms. A weak
direction just past the closed form's route threshold checks that threshold
at high SNR, and a design that only K_2's certificate sends to the singular
basis checks that half of it. Water-filling designs, rank-deficient at low
SNR, are checked against their per-mode rates.
"""

import math
import warnings

import numpy as np
import pytest

from irskey import SystemConfig, channel_statistics, dbm_to_mw, effective_variance, skr
from irskey.baseline import waterfill_design
from irskey.channel import ChannelStatistics, bs_correlation, irs_correlation
from irskey.skr import _whitened_mi, closed_form_bits

mp = pytest.importorskip("mpmath")


def _exact_nats(p, var, r_bs, power_b, noise):
    """MI in nats at effective variance ``var``, in the working mpmath precision."""
    m = p.shape[0]
    prec = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in p])
    r_bs = mp.matrix(r_bs.tolist())
    power_b, noise = mp.mpf(power_b), mp.mpf(noise)
    r_z = var * (prec.T * r_bs * prec.conjugate())
    r_a = power_b * r_z + noise * (prec.T * prec.conjugate())
    r_b = r_z + noise * mp.eye(m)
    cross = mp.sqrt(power_b) * r_z
    joint = mp.zeros(2 * m)
    for i in range(m):
        for j in range(m):
            joint[i, j], joint[m + i, m + j] = r_a[i, j], r_b[i, j]
            joint[i, m + j], joint[m + i, j] = cross[i, j], mp.conj(cross[j, i])
    logdet = lambda mat: mp.re(mp.log(mp.det(mat)))
    return logdet(r_a) + logdet(r_b) - logdet(joint)


def _exact_bits(p, phases, stats, power_b, noise):
    with mp.workdps(60):
        var = mp.mpf(effective_variance(phases, stats))
        return float(_exact_nats(p, var, stats.R_bs, power_b, noise) / mp.log(2))


def _unitary(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _relative_error(cfg, p, phases):
    stats = channel_statistics(cfg)
    got = closed_form_bits(p[None], phases[None], stats, cfg.power_b, cfg.noise)[0]
    want = _exact_bits(p, phases, stats, cfg.power_b, cfg.noise)
    return abs(got - want) / want


@pytest.mark.parametrize("power_dbm", [-10.0, 0.0])
def test_near_rank_deficient_precoder_keeps_every_mode(power_dbm):
    # Gram eigenvalue ratio 1e-13: full rank, so the uplink observes all of u
    # and the weak mode still carries key; dropping it read ~10% low
    cfg = SystemConfig(M=3, L_h=2, L_v=2, eta=0.5, power_a=dbm_to_mw(power_dbm), power_b=dbm_to_mw(power_dbm))
    rng = np.random.default_rng(7)
    p = (_unitary(rng, 3) * np.array([1.0, 0.6, math.sqrt(1e-13)])) @ _unitary(rng, 3)
    p *= math.sqrt(3 * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L))
    assert _relative_error(cfg, p, phases) <= 1e-13


@pytest.mark.parametrize("m", [4, 8])
def test_low_snr_rate_keeps_its_digits(m):
    # at -10 dBm the rate is ~0.05-0.1 bits, a small difference of two log-determinants
    cfg = SystemConfig(M=m, power_a=dbm_to_mw(-10.0), power_b=dbm_to_mw(-10.0))
    rng = np.random.default_rng(m)
    for _ in range(3):
        p = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        p *= math.sqrt(m * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L))
        assert _relative_error(cfg, p, phases) <= 5e-14


@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_low_uplink_power_rate_keeps_its_digits(eta):
    # at p_b = -160 dBm the rate is ~4e-16 bits, the gap between two nearly equal log-determinants:
    # every design fails the route test, and the singular basis must keep the rate's relative digits
    for power_b_dbm in (-40.0, -80.0, -120.0, -160.0):
        cfg = SystemConfig(M=4, eta=eta, power_a=dbm_to_mw(10.0), power_b=dbm_to_mw(power_b_dbm))
        stats = channel_statistics(cfg)
        rng = np.random.default_rng(4)
        for _ in range(3):
            p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            p *= math.sqrt(4 * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L))
            assert _relative_error(cfg, p, phases) <= 5e-15


def test_design_that_only_k2_certificate_sends_to_the_singular_basis(monkeypatch):
    # singular values spread over 1e-8...1: K_1 passes its certificate, K_2 fails it and
    # the eigvalsh recheck, and the unrotated rate would be 2.5e-9 off
    m = 4
    rng = np.random.default_rng(17)
    eta = rng.choice([0.3, 0.9])
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    p = (u * 10.0 ** rng.uniform(-8.0, 0.0, m)) @ v
    var, power_b = 10.0 ** rng.uniform(-14.0, -4.0), 10.0 ** rng.uniform(-3.0, 7.0)
    noise = 1e-9 * 10.0 ** rng.uniform(-2.0, 2.0)
    stats = ChannelStatistics(R_bs=bs_correlation(eta, m), R_irs=irs_correlation(1, 1), beta_direct=var,
                              beta_bs_irs=0.0, beta_irs_ue=1.0)
    phases = np.ones((1, 1), dtype=complex)
    verdicts, svds = [], []
    certify, svd = skr._positive_definite, np.linalg.svd
    monkeypatch.setattr(skr, "_positive_definite", lambda mats: verdicts.append(certify(mats)) or verdicts[-1])
    monkeypatch.setattr(np.linalg, "svd", lambda mat, *args, **kwargs: svds.append(1) or svd(mat, *args, **kwargs))
    got = closed_form_bits(p[None], phases, stats, power_b, noise)[0]
    assert verdicts[-1].tolist() == [True, False] and svds  # the outermost call judges [K_1, K_2]
    want = _exact_bits(p, phases[0], stats, power_b, noise)
    assert abs(got - want) <= 5e-15 * want


@pytest.mark.parametrize("eta, power_dbm", [(0.0, -10.0), (0.3, 0.0), (0.9, 30.0)])
def test_water_filling_design_equals_its_per_mode_rate(eta, power_dbm):
    # the design is diagonal in the eigenbasis of R_bs, so its rate is a sum of
    # scalar rates over the powered modes; at -10 dBm only one mode is powered
    cfg = SystemConfig(M=4, eta=eta, power_a=dbm_to_mw(power_dbm), power_b=dbm_to_mw(power_dbm))
    stats = channel_statistics(cfg)
    design, wf = waterfill_design(cfg, stats)
    got = closed_form_bits(design.precoder[None], design.phases[None], stats, cfg.power_b, cfg.noise)[0]
    with mp.workdps(60):
        var, power_b, noise = (mp.mpf(x) for x in (effective_variance(design.phases, stats), cfg.power_b, cfg.noise))
        nats = 0
        for q, lam in zip(wf.mode_powers, np.linalg.eigvalsh(stats.R_bs)[::-1]):
            if q > 0.0:
                s, gain = var * mp.mpf(lam), mp.mpf(cfg.power_a) * mp.mpf(q) / mp.mpf(lam)
                nats += mp.log((power_b * s + noise) * (gain * s + noise) / (noise * (gain * s + power_b * s + noise)))
        want = float(nats / mp.log(2))
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("noise_dbm", [-90.0, 3000.0])
def test_variance_gradient_matches_the_exact_derivative(noise_dbm):
    # at N = 1e300 mW, (p_b s + N)**2 overflowed with a RuntimeWarning, so the
    # second term read 0 and dMI/dvar read ~1e-299; the exact value, ~1e-600,
    # is 0 in float64. Each logdet carries ~M|ln N| nats, so the reference
    # needs some 700 digits to resolve the difference there
    cfg = SystemConfig(M=2, L_h=2, L_v=2, noise=dbm_to_mw(noise_dbm))
    stats = channel_statistics(cfg)
    rng = np.random.default_rng(5)
    p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    var = effective_variance(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L)), stats)
    lam, basis = stats.R_bs_eigh
    a = basis.conj().T @ p.conj()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _whitened_mi(a[None], lam, np.array([var]), cfg.power_b, cfg.noise, want_grad=True)[2][0]
    with mp.workdps(1400):
        want = mp.diff(lambda v: _exact_nats(p, v, stats.R_bs, cfg.power_b, cfg.noise), mp.mpf(var))
    scale = float(np.sum(lam * np.sum(np.abs(a) ** 2, axis=-1))) / cfg.noise  # each term's size bound
    assert abs(got - float(want)) <= 1e-12 * scale


@pytest.mark.parametrize("m, power_dbm", [(8, 30.0), (32, 40.0)])
def test_weak_direction_just_past_the_route_threshold_keeps_its_digits(m, power_dbm, monkeypatch):
    # the route test compares the weakest SNR of each K_i = I + A^H D_i A with a threshold
    # scaled by its largest diagonal entry, which a DFT right factor spreads the weak direction
    # over. The weak singular value is bisected to the lowest that skips the SVD, and the
    # design 10% above it is checked. At both points the threshold's M eps floor sets it
    cfg = SystemConfig(M=m, power_a=dbm_to_mw(power_dbm), power_b=dbm_to_mw(power_dbm))
    stats = channel_statistics(cfg)
    rng = np.random.default_rng(m)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
    head = np.exp(-np.arange(m - 1) / m)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L))
    u = _unitary(rng, m)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda mat, *args, **kwargs: calls.append(1) or svd(mat, *args, **kwargs))

    def design(weak):
        p = (u * np.append(head, weak)) @ dft
        return p * math.sqrt(m * cfg.power_a / float(np.sum(np.abs(p) ** 2)))

    def skips_svd(weak):
        calls.clear()
        closed_form_bits(design(weak)[None], phases[None], stats, cfg.power_b, cfg.noise)
        return not calls

    lo, hi = 1e-12, 1.0  # takes the SVD, skips it
    assert not skips_svd(lo) and skips_svd(hi)
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if skips_svd(mid) else (mid, hi)
    assert skips_svd(1.1 * hi)
    assert _relative_error(cfg, design(1.1 * hi), phases) <= 5e-14
