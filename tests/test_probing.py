import math

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ChannelRealization,
    ConfigError,
    ProbeDesign,
    combined_channel,
    dft_pilot,
    downlink_probe,
    sample_realization,
    uplink_probe,
    validate_design,
)


def _random_design(m, l, rng, power_a=10.0):
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    raw *= math.sqrt(m * power_a / np.sum(np.abs(raw) ** 2))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
    return ProbeDesign(precoder=raw, phases=phases)


def _manual_realization(h, G, f):
    G = np.asarray(G, dtype=complex)
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    cascade = np.concatenate([h, (G * f[None, :]).ravel(order="F")])
    return ChannelRealization(h=h, G=G, f=f, cascade=cascade)


# --------------------------------------------------------------------------
# design container and validation


def test_probe_design_dimensions_and_phases_ext(rng):
    des = _random_design(2, 4, rng)
    assert des.M == 2 and des.L == 4
    npt.assert_array_equal(des.phases_ext[0], 1.0 + 0.0j)
    npt.assert_array_equal(des.phases_ext[1:], des.phases)


def test_validate_design_accepts_feasible(rng):
    validate_design(_random_design(3, 5, rng, power_a=2.0), power_a=2.0)


def test_validate_design_rejects_modulus_violation(rng):
    des = _random_design(2, 4, rng)
    bad = ProbeDesign(precoder=des.precoder, phases=des.phases * 1.01)
    with pytest.raises(ConfigError):
        validate_design(bad, power_a=10.0)


def test_validate_design_rejects_power_violation(rng):
    des = _random_design(2, 4, rng)
    bad = ProbeDesign(precoder=des.precoder * 1.1, phases=des.phases)
    with pytest.raises(ConfigError):
        validate_design(bad, power_a=10.0)


def test_dft_pilot_is_unitary():
    for m in (1, 2, 4, 7):
        s = dft_pilot(m)
        npt.assert_allclose(s.conj().T @ s, np.eye(m), atol=1e-12)


# --------------------------------------------------------------------------
# combined channel


def test_combined_channel_reduces_to_direct_when_reflector_silent(rng):
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    real = _manual_realization(h, np.zeros((3, 5)), np.ones(5))
    des = _random_design(3, 5, rng)
    npt.assert_allclose(combined_channel(real, des), h, atol=1e-15)


def test_combined_channel_scalar_case():
    g, f0, phi = 2.0 - 1.0j, 0.5 + 0.25j, 0.77
    real = _manual_realization([0.0], [[g]], [f0])
    des = ProbeDesign(precoder=np.eye(1, dtype=complex), phases=np.array([np.exp(1j * phi)]))
    npt.assert_allclose(combined_channel(real, des), [g * f0 * np.exp(1j * phi)], atol=1e-15)


def test_combined_channel_matches_kronecker_form(small_stats, rng):
    # dual route: h + G dg(theta) f versus (theta_ext^T kron I_M) h_c
    for _ in range(50):
        real = sample_realization(small_stats, rng)
        des = _random_design(2, 4, rng)
        direct = combined_channel(real, des)
        sel = np.kron(des.phases_ext[None, :], np.eye(2))
        via_cascade = sel @ real.cascade
        npt.assert_allclose(direct, via_cascade, atol=1e-10)


# --------------------------------------------------------------------------
# probes


def test_uplink_probe_noiseless_identity_precoder(rng):
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    G = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    real = _manual_realization(h, G, f)
    des = ProbeDesign(precoder=np.eye(2, dtype=complex), phases=np.ones(3, dtype=complex))
    y = uplink_probe(combined_channel(real, des), des.precoder, noise_a=np.zeros(2), power_b=4.0)
    npt.assert_allclose(y, 2.0 * (h + G @ f), atol=1e-12)


def test_uplink_probe_noise_enters_through_precoder(rng):
    real = _manual_realization(np.zeros(2), np.zeros((2, 3)), np.zeros(3))
    des = _random_design(2, 3, rng)
    noise = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = uplink_probe(combined_channel(real, des), des.precoder, noise_a=noise, power_b=9.0)
    npt.assert_allclose(y, des.precoder.T @ noise, atol=1e-12)


def test_uplink_noise_covariance_matches_model(small_stats, rng):
    # over many noise draws the LS residual covariance is noise * P^T P*
    des = _random_design(2, 4, rng)
    real = _manual_realization(np.zeros(2), np.zeros((2, 4)), np.zeros(4))
    n, var = 100_000, 0.5
    noise = math.sqrt(var / 2) * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    ys = noise @ des.precoder  # same linear map as uplink_probe's noise term
    emp = ys.T @ ys.conj() / n
    model = var * des.precoder.T @ des.precoder.conj()
    assert np.abs(emp - model).max() / np.abs(model).max() < 0.03
    one = uplink_probe(combined_channel(real, des), des.precoder, noise_a=noise[0], power_b=1.0)
    npt.assert_allclose(one, noise[0] @ des.precoder, atol=1e-12)


def test_downlink_probe_noiseless_reciprocity(small_stats, rng):
    for _ in range(20):
        real = sample_realization(small_stats, rng)
        des = _random_design(2, 4, rng)
        c = combined_channel(real, des)
        up = uplink_probe(c, des.precoder, noise_a=np.zeros(2), power_b=7.3)
        down = downlink_probe(c, des.precoder, noise_b=np.zeros(2))
        npt.assert_allclose(up, math.sqrt(7.3) * down, atol=1e-10)


def test_downlink_noise_is_white_for_any_unitary_pilot(rng):
    # statistical whiteness of S_d^T n_b regardless of the unitary chosen
    n, var = 100_000, 0.25
    noise = math.sqrt(var / 2) * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ys = noise @ q
    emp = ys.T @ ys.conj() / n
    assert np.abs(emp - var * np.eye(2)).max() < 0.03 * var


def test_batched_probes_equal_per_round_calls(rng):
    # one probing round per row. BLAS may round a row of a matrix product
    # differently from the same vector product, so rows agree to roundoff
    for m in (2, 4, 8):
        des = _random_design(m, 4, rng)
        c = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
        noise_a = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
        noise_b = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
        up = uplink_probe(c, des.precoder, noise_a, 3.0)
        down = downlink_probe(c, des.precoder, noise_b)
        rows_up = [uplink_probe(c[i], des.precoder, noise_a[i], 3.0) for i in range(7)]
        rows_down = [downlink_probe(c[i], des.precoder, noise_b[i]) for i in range(7)]
        npt.assert_allclose(up, rows_up, rtol=0, atol=1e-14 * np.abs(up).max())
        npt.assert_allclose(down, rows_down, rtol=0, atol=1e-14 * np.abs(down).max())
