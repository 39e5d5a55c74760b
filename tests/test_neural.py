import dataclasses
import json
import math
import struct
import sys
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
    dbm_to_mw,
    NetParams,
    forward,
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
    npt.assert_array_equal(a.vec, b.vec)
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


@pytest.mark.parametrize("location", [(1.0, 2.0), np.full((2, 3), 10.0)], ids=["two coordinates", "two locations"])
def test_forward_rejects_anything_but_one_location(location, rng):
    # both used to escape as numpy's "cannot reshape" ValueError
    with pytest.raises(ConfigError, match="shape"):
        forward(init_params(2, 4, rng), location, _small_system())


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


@pytest.mark.parametrize("m, l_h, l_v, k", [(2, 2, 2, 1), (4, 5, 5, 100)])
def test_loss_allocates_no_backward_pass(m, l_h, l_v, k, rng, monkeypatch):
    # loss built the backward buffers and a gradient NetParams that a value-only step never writes
    system = SystemConfig(M=m, L_h=l_h, L_v=l_v)
    params = init_params(m, system.L, rng)
    batch = np.column_stack([rng.uniform(5, 15, k), rng.uniform(5, 15, k), np.zeros(k)])
    stats = channel_statistics(system)
    full = neural._Workspace(k, params)
    want = neural._loss_and_grad(params, batch, system, stats, False, full)[0]
    built = []
    monkeypatch.setattr(neural, "NetParams", lambda *sizes: built.append(sizes) or NetParams(*sizes))
    value = loss(params, batch, system)
    assert built == []
    assert value == want == loss_and_gradient(params, batch, system)[0]  # bit for bit
    assert len(built) == 1  # the spy does see the gradient a full step builds
    assert not hasattr(neural._Workspace(k, params, want_grad=False), "grads")


# --------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(rng):
    system = _small_system()
    params = init_params(2, 4, rng)
    batch = np.column_stack([rng.uniform(5, 15, 3), rng.uniform(5, 15, 3), np.zeros(3)])
    value, grads = loss_and_gradient(params, batch, system)
    assert math.isfinite(value)
    gvec = grads.vec.copy()
    pvec = params.vec.copy()
    coords = rng.choice(pvec.size, size=12, replace=False)
    step = 1e-5
    for idx in coords:
        probe = NetParams(params.M, params.L, params.hidden)
        probe.vec = pvec
        probe.vec[idx] += step
        up = loss(probe, batch, system)
        probe.vec[idx] -= 2 * step
        down = loss(probe, batch, system)
        fd = (up - down) / (2 * step)
        denom = max(abs(fd), abs(gvec[idx]), 1e-8)
        assert abs(gvec[idx] - fd) / denom < 1e-4


@pytest.mark.parametrize("power_dbm", [70.0, 90.0])
def test_gradient_matches_finite_differences_at_high_snr(power_dbm):
    # criterion 05's procedure (seeds, steep/flat rule, tolerances) with both
    # powers raised: the analytic gradient must stay exact where the
    # observations are nearly deterministic functions of each other
    power = dbm_to_mw(power_dbm)
    system = SystemConfig(M=2, L_h=2, L_v=2, power_a=power, power_b=power)
    step = 1e-5
    for cfg_i in range(10):
        rng = np.random.default_rng((77, cfg_i))
        params = init_params(2, 4, rng)
        batch = np.column_stack([rng.uniform(5, 15, 3), rng.uniform(5, 15, 3), np.zeros(3)])
        _, grads = loss_and_gradient(params, batch, system)
        gvec = grads.vec.copy()
        pvec = params.vec.copy()
        steep, flat = 0, 0
        for idx in rng.permutation(pvec.size):
            if steep >= 20 and flat >= 20:
                break
            probe = NetParams(params.M, params.L, params.hidden)
            probe.vec = pvec
            probe.vec[idx] += step
            up = loss(probe, batch, system)
            probe.vec[idx] -= 2 * step
            down = loss(probe, batch, system)
            fd = (up - down) / (2 * step)
            if abs(fd) >= 1e-5 and steep < 20:
                steep += 1
                rel = abs(gvec[idx] - fd) / max(abs(fd), abs(gvec[idx]))
                assert rel < 1e-4, f"config {cfg_i}, coordinate {idx}: rel error {rel:.2e}"
            elif abs(fd) < 1e-5 and flat < 20:
                flat += 1
                assert abs(gvec[idx] - fd) < 1e-5
        assert steep == 20 and flat == 20


@pytest.mark.parametrize("m, l_h, l_v, k", [(1, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 7), (3, 1, 1, 20), (4, 5, 5, 100)])
def test_reused_workspace_step_matches_fresh_workspace(m, l_h, l_v, k):
    # train's steps write into one workspace; each must give the bits of loss_and_gradient's fresh one,
    # whatever the buffers held (NaN here, so a read before a write shows), while the public gradient stays fresh
    system = SystemConfig(M=m, L_h=l_h, L_v=l_v)
    stats = channel_statistics(system)
    rng = np.random.default_rng((m, l_h * l_v, k))
    params = init_params(system.M, system.L, rng)
    work = neural._Workspace(k, params)
    earlier = [work.grads]
    for _ in range(3):
        batch = neural._draw_locations(rng, k, ((5.0, 15.0), (5.0, 15.0)))
        for buffer in (work.h1, work.h2, work.d_h2, work.d_h1, work.grads.vec):
            buffer.fill(np.nan)
        value, grads = neural._loss_and_grad(params, batch, system, stats, want_grad=True, work=work)
        want_value, want = loss_and_gradient(params, batch, system)
        assert grads is work.grads
        assert value == want_value and grads.vec.tobytes() == want.vec.tobytes()
        assert not any(np.shares_memory(want.vec, e.vec) for e in earlier)
        earlier.append(want)
        params.vec -= 1e-2 * want.vec / np.abs(want.vec).max()  # the next call sees other weights


def test_gradient_of_phase_head_vanishes_without_reflect_path(rng):
    # when beta_G * beta_f = 0 the objective cannot depend on the phases;
    # a steep BS-surface exponent underflows that gain to exactly zero
    system = dataclasses.replace(_small_system(), alpha_bs_irs=400.0)
    assert link_gains(system, (10.0, 10.0, 0.0))[1] == 0.0
    params = init_params(2, 4, rng)
    grads = loss_and_gradient(params, [(10.0, 10.0, 0.0)], system)[1]
    npt.assert_allclose(grads.Wt, 0.0, atol=1e-15)
    npt.assert_allclose(grads.bt, 0.0, atol=1e-15)
    assert np.abs(grads.Wp).max() > 0.0


def test_gradient_tangent_to_unit_circle(rng):
    # radial perturbations of a phase pair do not change the loss; the
    # analytic gradient of each (u, v) pair is orthogonal to (u, v)
    system = _small_system()
    params = _bias_only_params(2, 4, rng)
    grads = loss_and_gradient(params, [(10.0, 10.0, 0.0)], system)[1]
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
    npt.assert_array_equal(params_a.vec, params_b.vec)


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


def test_train_fixed_sample_mode_differs_but_converges(monkeypatch):
    # fixed: every epoch trains on a reshuffle of one set drawn once; fresh: each epoch draws its own set
    system = _small_system()
    real, batches = neural._loss_and_grad, []

    def spy(params, locations, *args, **kwargs):
        batches.append(locations.copy())
        return real(params, locations, *args, **kwargs)

    def epochs_trained_on(cfg):
        batches.clear()
        _, history = train(cfg, system)
        per_epoch = len(batches) // cfg.epochs
        epochs = [np.concatenate(batches[e * per_epoch:(e + 1) * per_epoch]) for e in range(cfg.epochs)]
        return history, epochs, [epoch[np.lexsort(epoch.T)] for epoch in epochs]

    monkeypatch.setattr(neural, "_loss_and_grad", spy)
    fresh = TrainConfig(epochs=3, samples_per_epoch=40, batch_size=20, seed=5)
    fixed = dataclasses.replace(fresh, fresh_samples=False)
    hist_fresh, _, fresh_sets = epochs_trained_on(fresh)
    hist_fixed, fixed_epochs, fixed_sets = epochs_trained_on(fixed)
    assert hist_fresh != hist_fixed
    assert all(math.isfinite(h) for h in hist_fixed)
    for e in range(1, fixed.epochs):
        npt.assert_array_equal(fixed_sets[e], fixed_sets[0])
        assert not np.array_equal(fixed_epochs[e], fixed_epochs[e - 1])  # reshuffled, not replayed
        assert not np.array_equal(fresh_sets[e], fresh_sets[e - 1])
        assert not np.isin(fresh_sets[e][:, 0], fresh_sets[e - 1][:, 0]).any()


def test_train_divergence_abort(monkeypatch):
    # the first step whose closed form raises, or whose loss is not finite, ends training with one NumericalError
    system = _small_system()
    real, calls = neural._whitened_mi, []

    def failing_from_third(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 3:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(*args, **kwargs)

    monkeypatch.setattr(neural, "_whitened_mi", failing_from_third)
    cfg = TrainConfig(epochs=2, samples_per_epoch=100, batch_size=10, seed=0)
    with pytest.raises(NumericalError, match=r"^training step 3 at learning_rate 0\.001 failed: Matrix is not"):
        train(cfg, system)
    assert len(calls) == 3
    with pytest.raises(np.linalg.LinAlgError):  # the public loss raises too, where it read inf before
        loss(init_params(2, 4, np.random.default_rng(0)), [(10.0, 10.0, 0.0)], system)

    calls.clear()
    monkeypatch.setattr(neural, "_loss_and_grad", lambda *args, **kwargs: calls.append(1) or (math.inf, None))
    with pytest.raises(NumericalError, match=r"^training step 1 at learning_rate 0\.5 failed: loss is inf$"):
        train(dataclasses.replace(cfg, learning_rate=0.5), system)
    assert len(calls) == 1


def _reference_adam_step(params: dict, grads: dict, state: dict, cfg: TrainConfig) -> None:
    # the per-field update the flat in-place pass must reproduce bit for bit
    state["t"] += 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    corr1 = 1.0 - b1 ** state["t"]
    corr2 = 1.0 - b2 ** state["t"]
    for name in PARAM_FIELDS:
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(g)
            state["v"][name] = np.zeros_like(g)
        state["m"][name] = b1 * state["m"][name] + (1.0 - b1) * g
        state["v"][name] = b2 * state["v"][name] + (1.0 - b2) * g**2
        step = cfg.learning_rate * (state["m"][name] / corr1) / (np.sqrt(state["v"][name] / corr2) + eps)
        params[name][...] -= step


def test_train_flat_adam_matches_per_field_reference(monkeypatch):
    system = _small_system()
    cfg = TrainConfig(epochs=1, samples_per_epoch=50, batch_size=1, seed=3, learning_rate=0.01)
    template = init_params(system.M, system.L, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(99)
    n = template.vec.size
    grad_vectors = [rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n) for _ in range(50)]
    scripted_vectors = iter(grad_vectors)

    def scripted(params, locations, system_cfg, stats, want_grad, work):
        grads = NetParams(params.M, params.L, params.hidden)
        grads.vec = next(scripted_vectors)
        return 1.0, grads

    monkeypatch.setattr(neural, "_loss_and_grad", scripted)
    params, _ = train(cfg, system)

    ref = {name: getattr(template, name).copy() for name in PARAM_FIELDS}
    state = {"m": {}, "v": {}, "t": 0}
    for gvec in grad_vectors:
        grads = NetParams(template.M, template.L, template.hidden)
        grads.vec = gvec
        _reference_adam_step(ref, {name: getattr(grads, name) for name in PARAM_FIELDS}, state, cfg)
    want = np.concatenate([ref[name].ravel() for name in PARAM_FIELDS])
    assert np.array_equal(params.vec, want)


def test_train_rejects_region_near_the_surface_before_any_step(monkeypatch):
    def never(*args, **kwargs):
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
    npt.assert_array_equal(params.vec, default_params.vec)

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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads minor page faults from getrusage")
def test_train_steady_steps_take_no_page_faults():
    # allocated per step, a step's buffers of 128 KB and more went back to the OS and were
    # faulted in again each step: 140-260 minor faults per step at M=4, L=25, batch 100
    import resource

    faults = []
    cfg = TrainConfig(epochs=6, samples_per_epoch=500, batch_size=100, seed=1)
    train(cfg, SystemConfig(), progress=lambda e, l, w: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    per_step = (faults[-1] - faults[1]) / (4 * 5)  # epochs 2-5, after two epochs of warm-up
    assert per_step <= 2, per_step


def test_overlapping_trainings_match_serial_runs():
    # each train call owns its workspace: trainings overlapping on pool threads (a sweep
    # without checkpoints) must give the weights of the same runs done one after another
    system = SystemConfig()
    configs = [TrainConfig(epochs=3, samples_per_epoch=200, batch_size=100, seed=seed) for seed in (1, 2, 3)]
    serial = [train(cfg, system)[0].vec.tobytes() for cfg in configs]
    barrier = threading.Barrier(len(configs), timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            jobs = [pool.submit(train, cfg, system, progress=lambda e, l, w: barrier.wait()) for cfg in configs]
            overlapped = [job.result(timeout=120)[0].vec.tobytes() for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert [run == alone for run, alone in zip(overlapped, serial)] == [True] * len(configs)


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


def test_checkpoint_bytes_are_pinned(tmp_path):
    # M=1, L=1, hidden=2: blocks W1 (2x3), b1, W2 (2x2), b2, Wp (2x2), bp, Wt (2x2), bt
    params = neural.NetParams(1, 1, hidden=2)
    params.W1 = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    params.b1 = [7.0, 8.0]
    params.W2 = [[9.0, 10.0], [11.0, 12.0]]
    params.b2 = [13.0, 14.0]
    params.Wp = [[15.0, 16.0], [17.0, 18.0]]
    params.bp = [19.0, 20.0]
    params.Wt = [[21.0, 22.0], [23.0, 24.0]]
    params.bt = [25.0, -0.5]
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(str(path), params, seed=5)
    header = (
        b'{"L":1,"M":1,"fields":["W1","b1","W2","b2","Wp","bp","Wt","bt"],"format":"irskey-net-1",'
        b'"hidden":2,"packing":"real-imag-colmajor","seed":5,"shapes":{"W1":[2,3],"W2":[2,2],'
        b'"Wp":[2,2],"Wt":[2,2],"b1":[2],"b2":[2],"bp":[2],"bt":[2]}}\n'
    )
    assert path.read_bytes() == header + struct.pack("<26d", *range(1, 26), -0.5)
    loaded, _ = load_checkpoint(str(path))
    npt.assert_array_equal(loaded.vec, params.vec)
    npt.assert_array_equal(loaded.Wt, [[21.0, 22.0], [23.0, 24.0]])


def _assert_flat_backed(params):
    vec = params.vec
    assert vec.dtype == np.float64 and vec.ndim == 1 and vec.flags.c_contiguous
    offset = 0
    for name in PARAM_FIELDS:
        block = getattr(params, name)
        assert np.shares_memory(block, vec)
        assert block.__array_interface__["data"][0] == vec.__array_interface__["data"][0] + 8 * offset
        offset += block.size
    assert offset == vec.size


def test_loaded_initialised_and_gradient_params_are_views_of_one_vector(tmp_path, rng):
    system = _small_system()
    params = init_params(system.M, system.L, rng)
    _assert_flat_backed(params)
    _assert_flat_backed(loss_and_gradient(params, [(10.0, 10.0, 0.0), (8.0, 12.0, 0.0)], system)[1])
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), params)
    loaded, _ = load_checkpoint(str(path))
    _assert_flat_backed(loaded)
    params.bt = np.ones_like(params.bt)  # assignment writes through to the vector
    npt.assert_array_equal(params.vec[-params.bt.size :], 1.0)
    with pytest.raises(ValueError):
        params.bt = np.ones(params.bt.size + 1)
    with pytest.raises(AttributeError):
        params.M = 3
    _assert_flat_backed(params)


def test_vec_copy_and_vec_assignment_do_not_alias(rng):
    params = init_params(2, 4, rng)
    before = params.vec.copy()
    vec = params.vec.copy()
    back = NetParams(params.M, params.L, params.hidden)
    back.vec = vec
    vec[:] = 0.0
    npt.assert_array_equal(params.vec, before)
    npt.assert_array_equal(back.vec, before)


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
    bad.write_text('{"seed": ' + "7" * 5000 + "}\n")  # json refuses integers past 4300 digits with a ValueError
    with pytest.raises(ConfigError, match="not a checkpoint file"):
        load_checkpoint(str(bad))


def _saved_checkpoint(tmp_path, rng, M=2, L=4, hidden=200):
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), init_params(M, L, rng, hidden=hidden), seed=0)
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


@pytest.mark.parametrize("hidden, key, value", [
    (200, "packing", "imag-real-rowmajor"),
    (200, "fields", list(reversed(PARAM_FIELDS))),
    (200, "shapes", {"W1": [201, 3]}),  # W1 gets one more row
    (200, "seed", "not a seed"),
    (200, "seed", -1),
    (200, "seed", 0.0),
    (200, "extra", 1),
    (200, "M", 10**2200),  # its shapes run past the 4300 digits json.dumps can write
    # equal to the saved entries under ==, but not the JSON save_checkpoint writes
    (200, "shapes", {"W1": [200.0, 3]}),
    (200, "shapes", {"W1": [200, 3.0]}),
    (200, "shapes", {"bt": [8.0]}),
    (1, "shapes", {"W1": [True, 3]}),
], ids=["packing", "fields", "shapes", "seed-string", "seed-negative", "seed-float", "extra-key", "M-2201-digits",
    "shape-float-rows",
        "shape-float-columns", "shape-float-bias", "shape-true-for-1"])
def test_load_checkpoint_accepts_only_the_header_save_writes(tmp_path, rng, hidden, key, value):
    path = _saved_checkpoint(tmp_path, rng, hidden=hidden)
    header, blob = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    if key == "shapes":
        meta["shapes"].update(value)
    else:
        meta[key] = value
    path.write_bytes(json.dumps(meta).encode() + b"\n" + blob)
    with pytest.raises(ConfigError, match="header is not the one saved"):
        load_checkpoint(str(path))


def test_load_checkpoint_accepts_a_null_or_400_digit_seed(tmp_path, rng):
    params = init_params(2, 4, rng)
    path = tmp_path / "net.ckpt"
    for seed in (None, 10**400):
        save_checkpoint(str(path), params, seed=seed)
        loaded, meta = load_checkpoint(str(path))
        assert meta["seed"] == seed
        npt.assert_array_equal(loaded.vec, params.vec)


def test_load_checkpoint_caps_the_header_line(tmp_path):
    path = tmp_path / "no_newline.ckpt"
    path.write_bytes(b"{" * (neural._HEADER_CAP + 1))
    with pytest.raises(ConfigError, match="header line"):
        load_checkpoint(str(path))


def test_huge_header_sizes_over_a_small_blob_fail_before_allocation(tmp_path, capsys):
    from irskey import cli

    shapes = {name: list(shape) for name, shape in neural._param_shapes(4, 25, 10**9).items()}
    meta = {"format": "irskey-net-1", "M": 4, "L": 25, "hidden": 10**9, "packing": "real-imag-colmajor",
            "seed": 0, "fields": list(PARAM_FIELDS), "shapes": shapes}
    path = tmp_path / "huge.ckpt"
    path.write_bytes(json.dumps(meta).encode() + b"\n" + bytes(64))
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(str(path))
    argv = ["skr", "--method", "pkg_net", "--checkpoint", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "truncated" in err and "MemoryError" not in err


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
    vec = params.vec.copy()
    back = NetParams(params.M, params.L, params.hidden)
    back.vec = vec
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(back, name), getattr(params, name))
    assert vec.size == sum(getattr(params, n).size for n in PARAM_FIELDS)
