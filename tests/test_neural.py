import dataclasses
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ConfigError,
    NumericalError,
    SystemConfig,
    TrainConfig,
    channel_statistics,
    forward,
    gradient,
    init_params,
    link_gains,
    load_checkpoint,
    loss,
    loss_and_gradient,
    save_checkpoint,
    skr_closed_form,
    train,
    validate_design,
)
from irskey import _blas, neural
from irskey.neural import (
    PARAM_FIELDS,
    normalize_phases,
    normalize_precoder,
    params_to_vector,
    vector_to_params,
)


def _small_system():
    return SystemConfig(M=2, L_h=2, L_v=2)


def _bias_only_params(m, l, rng):
    """Zero hidden weights: head outputs equal the head biases exactly."""
    params = init_params(m, l, rng)
    params.W1 = np.zeros_like(params.W1)
    params.b1 = np.zeros_like(params.b1)
    params.W2 = np.zeros_like(params.W2)
    params.b2 = np.zeros_like(params.b2)
    params.Wp = np.zeros_like(params.Wp)
    params.Wt = np.zeros_like(params.Wt)
    params.bp = rng.standard_normal(params.bp.shape)
    params.bt = rng.standard_normal(params.bt.shape)
    return params


# --------------------------------------------------------------------------
# initialization


def test_init_params_shapes_and_determinism():
    a = init_params(3, 7, np.random.default_rng(11))
    b = init_params(3, 7, np.random.default_rng(11))
    assert a.W1.shape == (200, 3) and a.W2.shape == (200, 200)
    assert a.Wp.shape == (18, 200) and a.bp.shape == (18,)
    assert a.Wt.shape == (14, 200) and a.bt.shape == (14,)
    npt.assert_array_equal(a.W1, b.W1)
    npt.assert_array_equal(params_to_vector(a), params_to_vector(b))
    assert a.M == 3 and a.L == 7 and a.hidden == 200
    for name in PARAM_FIELDS:
        assert np.isfinite(getattr(a, name)).all()


# --------------------------------------------------------------------------
# normalization layers


def test_normalize_precoder_hand_example():
    got = normalize_precoder(np.array([3.0, 4.0]), power_a=2.0)
    want = math.sqrt(2.0) * (0.6 + 0.8j)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(want, rel=1e-15)


def test_normalize_precoder_packing_is_column_major():
    vec = np.zeros(8)
    vec[1] = 1.0  # second real slot -> row 1, column 0
    p = normalize_precoder(vec, power_a=0.5)
    assert abs(p[1, 0]) > 0 and p[0, 0] == 0 and p[0, 1] == 0 and p[1, 1] == 0
    vec = np.zeros(8)
    vec[4 + 2] = 1.0  # third imaginary slot -> row 0, column 1
    p = normalize_precoder(vec, power_a=0.5)
    assert p[0, 1].imag > 0 and p[0, 1].real == 0


def test_normalize_precoder_scale_invariance_and_budget(rng):
    vec = rng.standard_normal(2 * 9)
    a = normalize_precoder(vec, power_a=3.0)
    b = normalize_precoder(7.5 * vec, power_a=3.0)
    npt.assert_allclose(a, b, atol=1e-12)
    assert np.sum(np.abs(a) ** 2) == pytest.approx(3 * 3.0, rel=1e-14)


def test_normalize_precoder_rejects_zero_input():
    with pytest.raises(NumericalError):
        normalize_precoder(np.zeros(8), power_a=1.0)


def test_normalize_phases_hand_examples():
    got = normalize_phases(np.array([1.0, 1.0, 0.0, 0.0, 1.0, -2.0]))
    npt.assert_allclose(got[0], 1.0 + 0.0j, atol=1e-15)
    npt.assert_allclose(got[1], (1.0 + 1.0j) / math.sqrt(2.0), atol=1e-15)
    npt.assert_allclose(got[2], -1.0j, atol=1e-15)


def test_normalize_phases_zero_pair_falls_back_to_phase_zero():
    got = normalize_phases(np.array([0.0, 1.0, 0.0, 0.0]))
    npt.assert_allclose(got, [1.0 + 0.0j, 1.0 + 0.0j], atol=1e-15)


# --------------------------------------------------------------------------
# forward pass


def test_forward_output_is_always_feasible(rng):
    system = _small_system()
    for _ in range(50):
        params = init_params(2, 4, rng)
        loc = np.append(rng.uniform(5, 15, 2), 0.0)
        des = forward(params, loc, system)
        validate_design(des, system.power_a, mod_tol=1e-9, power_rtol=1e-9)


def test_forward_invariant_to_precoder_head_scaling(rng):
    system = _small_system()
    params = _bias_only_params(2, 4, rng)
    base = forward(params, (8.0, 9.0, 0.0), system)
    params.bp = 3.7 * params.bp
    scaled = forward(params, (8.0, 9.0, 0.0), system)
    npt.assert_allclose(scaled.precoder, base.precoder, atol=1e-12)


def test_forward_zero_parameters_signal_degenerate_head(rng):
    system = _small_system()
    params = _bias_only_params(2, 4, rng)
    params.bp = np.zeros_like(params.bp)
    with pytest.raises(NumericalError):
        forward(params, (10.0, 10.0, 0.0), system)


# --------------------------------------------------------------------------
# loss


def test_loss_single_sample_is_negative_rate(rng):
    system = _small_system()
    params = init_params(2, 4, rng)
    loc = (10.0, 10.0, 0.0)
    val = loss(params, [loc], system)
    des = forward(params, loc, system)
    stats = channel_statistics(system, pos_ue=loc)
    want = -skr_closed_form(des, stats, system.power_b, system.noise).bits
    assert val == pytest.approx(want, rel=1e-12)


def test_loss_repeated_locations_match_single(rng):
    system = _small_system()
    params = init_params(2, 4, rng)
    loc = (7.0, 12.0, 0.0)
    assert loss(params, [loc] * 5, system) == pytest.approx(
        loss(params, [loc], system), rel=1e-12
    )


# --------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(rng):
    system = _small_system()
    params = init_params(2, 4, rng)
    batch = np.column_stack([rng.uniform(5, 15, 3), rng.uniform(5, 15, 3), np.zeros(3)])
    value, grads = loss_and_gradient(params, batch, system)
    assert math.isfinite(value)
    gvec = params_to_vector(grads)
    pvec = params_to_vector(params)
    coords = rng.choice(pvec.size, size=12, replace=False)
    step = 1e-5
    for idx in coords:
        probe = pvec.copy()
        probe[idx] += step
        up = loss(vector_to_params(probe, params), batch, system)
        probe[idx] -= 2 * step
        down = loss(vector_to_params(probe, params), batch, system)
        fd = (up - down) / (2 * step)
        denom = max(abs(fd), abs(gvec[idx]), 1e-8)
        assert abs(gvec[idx] - fd) / denom < 1e-4


def test_gradient_of_phase_head_vanishes_without_reflect_path(rng):
    # when beta_G * beta_f = 0 the objective cannot depend on the phases;
    # a steep BS-surface exponent underflows that gain to exactly zero
    system = dataclasses.replace(_small_system(), alpha_bs_irs=400.0)
    assert link_gains(system, (10.0, 10.0, 0.0))[1] == 0.0
    params = init_params(2, 4, rng)
    grads = gradient(params, [(10.0, 10.0, 0.0)], system)
    npt.assert_allclose(grads.Wt, 0.0, atol=1e-15)
    npt.assert_allclose(grads.bt, 0.0, atol=1e-15)
    assert np.abs(grads.Wp).max() > 0.0


def test_gradient_tangent_to_unit_circle(rng):
    # radial perturbations of a phase pair do not change the loss; the
    # analytic gradient of each (u, v) pair is orthogonal to (u, v)
    system = _small_system()
    params = _bias_only_params(2, 4, rng)
    grads = gradient(params, [(10.0, 10.0, 0.0)], system)
    u, v = params.bt[:4], params.bt[4:]
    gu, gv = grads.bt[:4], grads.bt[4:]
    radial = u * gu + v * gv
    scale = np.abs(grads.bt).max()
    npt.assert_allclose(radial, 0.0, atol=1e-12 * max(scale, 1.0))


def test_gradient_radial_flatness_second_order(rng):
    system = _small_system()
    params = _bias_only_params(2, 4, rng)
    base = loss(params, [(10.0, 10.0, 0.0)], system)
    for t in (1e-4, 1e-5):
        saved = params.bt.copy()
        params.bt = (1.0 + t) * saved  # radial scaling of every pair
        moved = loss(params, [(10.0, 10.0, 0.0)], system)
        params.bt = saved
        assert abs(moved - base) < 1e-9  # exactly invariant, not just 2nd order


# --------------------------------------------------------------------------
# training loop


def test_train_is_seed_deterministic():
    system = _small_system()
    cfg = TrainConfig(epochs=2, samples_per_epoch=40, batch_size=20, seed=5)
    params_a, hist_a = train(cfg, system)
    params_b, hist_b = train(cfg, system)
    assert hist_a == hist_b
    npt.assert_array_equal(params_to_vector(params_a), params_to_vector(params_b))


def test_train_progress_callback_and_history():
    system = _small_system()
    cfg = TrainConfig(epochs=3, samples_per_epoch=20, batch_size=10, seed=1)
    seen = []
    params, history = train(cfg, system, progress=lambda e, l, w: seen.append((e, l, w)))
    assert len(history) == 3 and all(math.isfinite(h) for h in history)
    assert [e for e, _, _ in seen] == [0, 1, 2]
    assert [l for _, l, _ in seen] == history
    assert all(w >= 0.0 for _, _, w in seen)
    validate_design(forward(params, (10.0, 10.0, 0.0), system), system.power_a)


def test_train_fixed_sample_mode_differs_but_converges():
    system = _small_system()
    fresh = TrainConfig(epochs=2, samples_per_epoch=40, batch_size=20, seed=5)
    fixed = dataclasses.replace(fresh, fresh_samples=False)
    _, hist_fresh = train(fresh, system)
    _, hist_fixed = train(fixed, system)
    assert hist_fresh != hist_fixed
    assert all(math.isfinite(h) for h in hist_fixed)


def test_train_divergence_abort(monkeypatch):
    system = _small_system()

    def exploding(params, locations, system_cfg, stats, want_grad):
        return float("inf"), neural._zero_grads(params)

    monkeypatch.setattr(neural, "_loss_and_grad", exploding)
    cfg = TrainConfig(epochs=2, samples_per_epoch=100, batch_size=10, seed=0)
    with pytest.raises(NumericalError):
        train(cfg, system)


def test_train_non_finite_step_leaves_weights_alone(monkeypatch):
    # one real step, then a non-finite one: Adam's stale momentum must not move the weights
    system = _small_system()
    real = neural._loss_and_grad
    seen = []

    def second_step_fails(params, locations, system_cfg, stats, want_grad):
        seen.append(params_to_vector(params))
        if len(seen) == 1:
            return real(params, locations, system_cfg, stats, want_grad)
        return float("inf"), neural._zero_grads(params)

    monkeypatch.setattr(neural, "_loss_and_grad", second_step_fails)
    cfg = TrainConfig(epochs=1, samples_per_epoch=20, batch_size=10, seed=0)
    params, history = train(cfg, system)
    assert len(seen) == 2 and not np.array_equal(seen[0], seen[1])
    npt.assert_array_equal(params_to_vector(params), seen[1])
    assert history == [math.inf]


def test_train_rejects_region_near_the_surface_before_any_step(monkeypatch):
    def never(*args):
        raise AssertionError("training took a step")

    monkeypatch.setattr(neural, "_loss_and_grad", never)
    system = _small_system()  # surface at the origin, BS at (5, -35, 0)
    for region in (((0.5, 30.0), (0.5, 30.0)), ((-3.0, 3.0), (-0.5, 0.5)), ((2.0, 8.0), (-35.5, -34.0))):
        with pytest.raises(ConfigError, match="ue_region"):
            train(TrainConfig(ue_region=region, epochs=1, samples_per_epoch=10, batch_size=10), system)


def test_train_runs_blas_on_one_thread_and_restores_it():
    threads = _blas.openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS reachable in this process")
    get, _ = threads
    before = get()
    system = _small_system()
    # batch 100 at width 200: products large enough for OpenBLAS to split
    cfg = TrainConfig(epochs=2, samples_per_epoch=200, batch_size=100, seed=3)
    seen = []
    params, history = train(cfg, system, progress=lambda e, l, w: seen.append(get()))
    assert seen == [1, 1]
    assert get() == before
    default_params, default_history = train.__wrapped__(cfg, system)
    assert history == default_history
    npt.assert_array_equal(params_to_vector(params), params_to_vector(default_params))

    # overlapping trainings (as on the sweep pool): the last one out restores
    barrier = threading.Barrier(2)
    first = dataclasses.replace(cfg, epochs=1)
    second = dataclasses.replace(cfg, epochs=3)
    with ThreadPoolExecutor(max_workers=2) as pool:
        jobs = [
            pool.submit(train, c, system, progress=lambda e, l, w: (e == 0 and barrier.wait(), seen.append(get())))
            for c in (first, second)
        ]
        for job in jobs:
            job.result()
    assert seen == [1] * 6
    assert get() == before


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(samples_per_epoch=90, batch_size=40)  # not divisible
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(ue_region=((15.0, 5.0), (5.0, 15.0)))


# --------------------------------------------------------------------------
# serialization


def test_checkpoint_roundtrip_is_exact(tmp_path, rng):
    params = init_params(2, 4, rng)
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), params, seed=17)
    loaded, meta = load_checkpoint(str(path))
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(loaded, name), getattr(params, name))
    assert meta["M"] == 2 and meta["L"] == 4 and meta["seed"] == 17
    assert meta["packing"] == "real-imag-colmajor"


def test_checkpoint_bytes_are_deterministic(tmp_path, rng):
    params = init_params(2, 4, rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), params, seed=0)
    save_checkpoint(str(p2), params, seed=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(ConfigError):
        load_checkpoint(str(bad))
    bad.write_text('{"format": "something-else"}\n')
    with pytest.raises(ConfigError):
        load_checkpoint(str(bad))
    bad.write_text("[1, 2]\n")  # valid JSON, but not a header object
    with pytest.raises(ConfigError):
        load_checkpoint(str(bad))


def _saved_checkpoint(tmp_path, rng, M=2, L=4):
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), init_params(M, L, rng), seed=0)
    return path


def test_load_checkpoint_rejects_truncated_blob(tmp_path, rng):
    path = _saved_checkpoint(tmp_path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(str(path))


def test_load_checkpoint_rejects_trailing_bytes(tmp_path, rng):
    path = _saved_checkpoint(tmp_path, rng)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ConfigError, match="trailing"):
        load_checkpoint(str(path))


def test_load_checkpoint_rejects_header_sizes_disagreeing_with_blocks(tmp_path, rng):
    path = _saved_checkpoint(tmp_path, rng)
    header, blob = path.read_bytes().split(b"\n", 1)
    for key, value in (("M", 3), ("L", 9), ("hidden", 100), ("M", 0), ("L", "4")):
        meta = json.loads(header)
        meta[key] = value
        path.write_bytes(json.dumps(meta).encode() + b"\n" + blob)
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))


def test_load_checkpoint_rejects_non_finite_weights(tmp_path, rng):
    params = init_params(2, 4, rng)
    params.W2[3, 5] = np.inf
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), params)
    with pytest.raises(ConfigError, match="non-finite"):
        load_checkpoint(str(path))


def test_cli_truncated_checkpoint_is_a_config_error(tmp_path, rng):
    from irskey import cli

    path = _saved_checkpoint(tmp_path, rng, M=4, L=25)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    argv = ["skr", "--method", "pkg_net", "--checkpoint", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == 1


def test_params_vector_roundtrip(rng):
    params = init_params(3, 9, rng)
    vec = params_to_vector(params)
    back = vector_to_params(vec, params)
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(back, name), getattr(params, name))
    assert vec.size == sum(getattr(params, n).size for n in PARAM_FIELDS)
