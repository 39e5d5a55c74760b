"""Property tests of the batched closed-form kernel, the factored signal
covariance, the training loss and the water-filling allocation.

Ranges: M <= 8, L <= 36, antenna correlation in [0, 0.99), both powers in
-10...70 dBm, and precoders of every rank from 0 (all zero) to M, some with
a weak full-rank component added (singular value ratio ~1e-7). The power-monotonicity
and training-loss properties take M <= 4, L <= 9 and powers up to 110 dBm.
The mixed-batch and unitary-pilot properties take 2 <= M <= 6 (1 <= M for the
pilot), L <= 16 and powers up to 70 and 50 dBm.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irskey import (
    NumericalError,
    ProbeDesign,
    SystemConfig,
    channel_statistics,
    dbm_to_mw,
    effective_variance,
    equal_phase_vector,
    forward,
    init_params,
    loss,
    per_mode_objective,
    skr_closed_form,
    waterfill,
)
from irskey.skr import _mi_bits_from_joint, closed_form_bits

from _reference import cascade_covariance, combined_covariance


def _reference_bits(p, theta, stats, power_b, noise):
    """One design at a time, from the dense cascade covariance, in the singular basis of P.

    R_c is the combined channel's covariance, the sandwich of the cascade
    covariance with kron(theta_ext, I). On the range of P (rank from its
    singular values at roundoff) the uplink carries all of u = sqrt(power_b) c
    + n_a, so MI = logdet(I + P^T R_c P^*/N) - logdet(I + P^T C P^*/N) with
    C = cov(c | u) = N R_c (power_b R_c + N I)^-1, restricted to that range.
    """
    m = p.shape[0]
    sel = np.kron(np.concatenate([[1.0], theta])[:, None], np.eye(m))
    r_c = sel.T @ cascade_covariance(stats) @ sel.conj()
    left, sv, _ = np.linalg.svd(p)
    rank = int(np.sum(sv > m * np.finfo(float).eps * sv[0]))
    if rank == 0:
        return 0.0
    # on the range, P^T c is diag(sv) U_r^T c with U_r^T c of covariance U_r^T R_c U_r^*
    u_r = left[:, :rank]
    r_c = u_r.T @ r_c @ u_r.conj()
    cond = noise * np.linalg.solve(power_b * r_c + noise * np.eye(rank), r_c)
    s = sv[:rank]
    ld_b = np.linalg.slogdet(np.eye(rank) + s[:, None] * r_c * s / noise)[1]
    ld_cond = np.linalg.slogdet(np.eye(rank) + s[:, None] * cond * s / noise)[1]
    return max((ld_b - ld_cond) / math.log(2.0), 0.0)


@st.composite
def scenarios(draw, max_m=8, max_side=6):
    m = draw(st.integers(1, max_m))
    cfg = SystemConfig(
        M=m,
        L_h=draw(st.integers(1, max_side)),
        L_v=draw(st.integers(1, max_side)),
        eta=draw(st.floats(0.0, 0.99, exclude_max=True)),
        power_a=dbm_to_mw(draw(st.floats(-10.0, 70.0))),
        power_b=dbm_to_mw(draw(st.floats(-10.0, 70.0))),
    )
    ranks = draw(st.lists(st.integers(0, m), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    precoders = []
    for rank in ranks:
        left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        right = rng.standard_normal((rank, m)) + 1j * rng.standard_normal((rank, m))
        p = left @ right
        if 0 < rank < m and rng.uniform() < 0.5:
            # a weak full-rank remainder: the uplink still sees all of u
            tiny = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            p += 10.0 ** rng.uniform(-7.5, -6.5) * np.abs(p).max() * tiny
        if rank > 0:
            p *= math.sqrt(m * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
        precoders.append(p)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(ranks), cfg.L)))
    return cfg, np.stack(precoders), phases


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_batched_kernel_equals_single_design_calls(scenario):
    cfg, precoders, phases = scenario
    stats = channel_statistics(cfg)
    batch = closed_form_bits(precoders, phases, stats, cfg.power_b, cfg.noise)
    single = np.array([
        closed_form_bits(precoders[k : k + 1], phases[k : k + 1], stats, cfg.power_b, cfg.noise)[0]
        for k in range(len(precoders))
    ])
    assert batch.shape == (len(precoders),)
    assert np.all(batch >= 0.0)
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_kernel_matches_per_design_reference(scenario):
    cfg, precoders, phases = scenario
    stats = channel_statistics(cfg)
    batch = closed_form_bits(precoders, phases, stats, cfg.power_b, cfg.noise)
    reference = [
        _reference_bits(p, theta, stats, cfg.power_b, cfg.noise) for p, theta in zip(precoders, phases)
    ]
    np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_factored_covariance_equals_dense_cascade_sandwich(scenario):
    cfg, precoders, phases = scenario
    stats = channel_statistics(cfg)
    dense_cov = cascade_covariance(stats)
    for p, theta in zip(precoders, phases):
        design = ProbeDesign(precoder=p, phases=theta)
        sel = np.kron(design.phases_ext[:, None], p)
        dense = sel.T @ dense_cov @ sel.conj()
        factored = combined_covariance(design, stats)
        assert np.abs(factored - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios(max_m=4, max_side=3), st.lists(st.floats(-10.0, 110.0), min_size=2, max_size=5))
def test_closed_form_never_decreases_with_power_b(scenario, power_b_dbms):
    # a stronger uplink only lowers the noise on y_a, so the mutual information cannot fall
    cfg, precoders, phases = scenario
    stats = channel_statistics(cfg)
    previous = None
    for power_b in sorted(dbm_to_mw(dbm) for dbm in power_b_dbms):
        bits = closed_form_bits(precoders, phases, stats, power_b, cfg.noise)
        if previous is not None:
            assert np.all(bits >= previous * (1.0 - 1e-12))
        previous = bits


def _unitary(rng, m):
    """Haar-random unitary: QR of a complex Gaussian matrix with the phases of R's diagonal removed."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def mixed_batches(draw):
    """Batches mixing full-rank, near-cutoff, rank-deficient and zero precoders.

    A near-cutoff precoder has Gram eigenvalue ratio 1e-13...1e-11 between its
    weakest and strongest mode: full rank, so the uplink sees every mode, yet
    at high SNR weak enough that the kernel leaves its unrotated route for it.
    """
    m = draw(st.integers(2, 6))
    cfg = SystemConfig(
        M=m,
        L_h=draw(st.integers(1, 4)),
        L_v=draw(st.integers(1, 4)),
        eta=draw(st.floats(0.0, 0.95)),
        power_a=dbm_to_mw(draw(st.floats(-10.0, 70.0))),
        power_b=dbm_to_mw(draw(st.floats(-10.0, 70.0))),
    )
    kinds = draw(st.lists(st.sampled_from(["full", "near", "deficient", "zero"]), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    precoders = []
    for kind in kinds:
        sv = rng.uniform(0.3, 1.0, m)
        if kind == "near":
            sv[-1] = sv.max() * math.sqrt(10.0 ** rng.uniform(-13.0, -11.0))
        elif kind == "deficient":
            sv[rng.integers(1, m) :] = 0.0
        elif kind == "zero":
            sv[:] = 0.0
        p = (_unitary(rng, m) * sv) @ _unitary(rng, m)
        if kind != "zero":
            p *= math.sqrt(m * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
        precoders.append(p)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(kinds), cfg.L)))
    return cfg, np.stack(precoders), phases


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_batches())
def test_mixed_batch_equals_single_calls_bit_for_bit(scenario):
    # a design's route through the kernel depends on that design alone
    cfg, precoders, phases = scenario
    stats = channel_statistics(cfg)
    batch = closed_form_bits(precoders, phases, stats, cfg.power_b, cfg.noise)
    single = [
        closed_form_bits(precoders[k : k + 1], phases[k : k + 1], stats, cfg.power_b, cfg.noise)[0]
        for k in range(len(precoders))
    ]
    np.testing.assert_array_equal(batch, single)
    for p, theta, bits in zip(precoders, phases, batch):
        want = _reference_bits(p, theta, stats, cfg.power_b, cfg.noise)
        assert abs(bits - want) <= 1e-12 * want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 6),
    side=st.integers(1, 4),
    eta=st.floats(0.0, 0.95),
    power_a_dbm=st.floats(-10.0, 50.0),
    power_b_dbm=st.floats(-10.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_equals_joint_with_any_unitary_downlink_pilot(m, side, eta, power_a_dbm, power_b_dbm, seed):
    # y_a = sqrt(p_b) P^T c + P^T n_a and y_b = P^T c + Q^T n_b: a unitary pilot Q
    # leaves the downlink noise white, so the key rate cannot depend on which one
    cfg = SystemConfig(
        M=m, L_h=side, L_v=side, eta=eta,
        power_a=dbm_to_mw(power_a_dbm), power_b=dbm_to_mw(power_b_dbm),
    )
    stats = channel_statistics(cfg)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p *= math.sqrt(m * cfg.power_a / float(np.sum(np.abs(p) ** 2)))
    theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.L))
    pilot = _unitary(rng, m)
    sel = np.kron(np.concatenate([[1.0], theta])[:, None], p)
    r_z = sel.T @ cascade_covariance(stats) @ sel.conj()
    cross = math.sqrt(cfg.power_b) * r_z
    joint = np.block([
        [cfg.power_b * r_z + cfg.noise * (p.T @ p.conj()), cross],
        [cross.conj().T, r_z + cfg.noise * (pilot.T @ pilot.conj())],
    ])
    want = float(_mi_bits_from_joint(joint, joint.shape[-1] // 2))
    got = closed_form_bits(p[None], theta[None], stats, cfg.power_b, cfg.noise)[0]
    assert abs(got - want) <= 1e-10 * max(want, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    side=st.integers(1, 3),
    eta=st.floats(0.0, 0.99, exclude_max=True),
    power_a_dbm=st.floats(-10.0, 110.0),
    power_b_dbm=st.floats(-10.0, 110.0),
    x=st.floats(5.0, 15.0),
    y=st.floats(5.0, 15.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_loss_equals_minus_closed_form(m, side, eta, power_a_dbm, power_b_dbm, x, y, seed):
    cfg = SystemConfig(
        M=m, L_h=side, L_v=side, eta=eta,
        power_a=dbm_to_mw(power_a_dbm), power_b=dbm_to_mw(power_b_dbm),
    )
    params = init_params(m, cfg.L, np.random.default_rng(seed), hidden=16)
    loc = (x, y, 0.0)
    stats = channel_statistics(cfg, pos_ue=loc)
    bits = skr_closed_form(forward(params, loc, cfg), stats, cfg.power_b, cfg.noise).bits
    assert abs(loss(params, [loc], cfg) + bits) <= 1e-12 * bits


def _marginal_bits(q, var, power_a, power_b, noise):
    """Derivative of the per-mode utility in bits, coded apart from the solver's form."""
    a = power_b * var / noise
    b = power_a * var / noise
    c = a + b
    return (a / (a * q + 1) + b / (b * q + 1) - c / (c * q + 1)) / math.log(2.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 8),
    side=st.integers(1, 6),
    eta=st.floats(0.0, 0.99, exclude_max=True),
    power_a_dbm=st.floats(-10.0, 70.0),
    power_b_dbm=st.floats(-10.0, 70.0),
)
def test_waterfill_budget_kkt_and_optimality(m, side, eta, power_a_dbm, power_b_dbm):
    cfg = SystemConfig(
        M=m, L_h=side, L_v=side, eta=eta,
        power_a=dbm_to_mw(power_a_dbm), power_b=dbm_to_mw(power_b_dbm),
    )
    stats = channel_statistics(cfg)
    args = (effective_variance(equal_phase_vector(cfg.L), stats), cfg.power_a, cfg.power_b, cfg.noise)
    try:
        res = waterfill(stats, *args)
    except NumericalError:
        return  # the documented failure; any other exception fails the property
    p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
    assert abs(float(np.sum(res.mode_powers / p_modes)) - m) < 1e-9
    for q, p in zip(res.mode_powers, p_modes):
        if q > 0:
            assert abs(_marginal_bits(q, *args) - res.water_level / p) < 1e-6
    uniform = sum(per_mode_objective(p, *args) for p in p_modes)
    assert res.objective_bits >= uniform - 1e-12
    for p in p_modes:
        assert res.objective_bits >= per_mode_objective(m * p, *args) - 1e-12
