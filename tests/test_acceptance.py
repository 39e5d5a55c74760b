"""Acceptance gate: one test per release criterion, in order.

Each test pins its tolerances and seeds so the whole gate is deterministic;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
"""

import json
import math
import statistics
import time

import numpy as np
import numpy.testing as npt

from irskey import (
    ChannelStatistics,
    SweepSpec,
    SystemConfig,
    TrainConfig,
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
    run_sweep,
    sample_realization,
    skr_closed_form,
    skr_monte_carlo,
    uplink_probe,
    waterfill,
)
from irskey import cli, neural
from irskey.baseline import per_mode_objective
from irskey.neural import (
    NetParams,
    forward,
    init_params,
    loss,
    loss_and_gradient,
    train,
)


_LN2 = math.log(2.0)


def test_criterion_01_closed_form_matches_monte_carlo():
    # 100 random instances at M=2, L=4; 2e5 simulated probing rounds each;
    # the closed form must sit within 2 Monte Carlo standard errors at least
    # 95 times, and the whole check must finish inside 10 minutes.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    hits = 0
    for _ in range(100):
        eta = float(rng.uniform(0.0, 0.9))
        ue = (float(rng.uniform(5.0, 15.0)), float(rng.uniform(5.0, 15.0)), 0.0)
        power_a = dbm_to_mw(float(rng.uniform(0.0, 20.0)))
        power_b = dbm_to_mw(float(rng.uniform(0.0, 20.0)))
        cfg = SystemConfig(M=2, L_h=2, L_v=2, eta=eta, pos_ue=ue,
                           power_a=power_a, power_b=power_b)
        stats = channel_statistics(cfg)
        design = random_design(cfg, rng)
        closed = skr_closed_form(design, stats, power_b, cfg.noise).bits
        mc = skr_monte_carlo(design, stats, power_b, cfg.noise, 200_000, rng,
                             n_batches=100)
        hits += abs(closed - mc.bits) <= 2.0 * mc.std_error
    elapsed = time.perf_counter() - t0
    assert hits >= 95, f"closed form agreed with Monte Carlo on only {hits}/100 instances"
    assert elapsed < 600.0, f"oracle check took {elapsed:.0f}s"


def test_criterion_02_scalar_reduction_matches_two_gaussian_mi():
    # single antenna, reflect path switched off: the closed form must collapse
    # to the textbook mutual information of two jointly Gaussian scalars.
    beta_h, noise = 2e-6, 1e-9
    stats = ChannelStatistics(
        R_bs=np.eye(1), R_irs=irs_correlation(2, 2),
        beta_direct=beta_h, beta_bs_irs=0.0, beta_irs_ue=1e-5,
    )
    from irskey import ProbeDesign

    for pa_dbm in (0.0, 5.0, 10.0, 15.0, 20.0):
        for pb_dbm in (0.0, 5.0, 10.0, 15.0, 20.0):
            power_a, power_b = dbm_to_mw(pa_dbm), dbm_to_mw(pb_dbm)
            design = ProbeDesign(
                precoder=np.array([[math.sqrt(power_a)]], dtype=complex),
                phases=np.ones(4, dtype=complex),
            )
            got = skr_closed_form(design, stats, power_b, noise).bits
            sa, sb = power_a * beta_h, power_b * beta_h
            want = math.log2((sb + noise) * (sa + noise) / (noise * (sa + sb + noise)))
            assert abs(got - want) / want < 1e-12, (pa_dbm, pb_dbm, got, want)


def test_criterion_03_equal_phase_maximizes_effective_variance():
    # the all-equal reflection pattern beats 1e4 random
    # unit-modulus patterns for every tested surface size.
    rng = np.random.default_rng(303)
    for side in (2, 3, 4):
        L = side * side
        stats = channel_statistics(SystemConfig(M=4, L_h=side, L_v=side))
        equal = effective_variance(equal_phase_vector(L), stats)
        best = max(
            effective_variance(np.exp(2j * np.pi * rng.random(L)), stats)
            for _ in range(10_000)
        )
        assert equal - best >= -1e-9, f"L={L}: random pattern won by {best - equal:.3e}"


def test_criterion_04_waterfilling_kkt_and_budget():
    # 100 random (eta, variance, power) instances: budget met to 1e-9, KKT
    # stationarity to 1e-6 against an independently coded marginal utility,
    # never worse than the proportional allocation, and eta=0 gives q_i = 1.
    def marginal_bits(q, var, pa, pb, noise):
        a = pb * var / noise
        b = pa * var / noise
        c = a + b
        return (a / (a * q + 1) + b / (b * q + 1) - c / (c * q + 1)) / _LN2

    rng = np.random.default_rng(414)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        eta = float(rng.uniform(0.0, 0.9))
        var = 10.0 ** float(rng.uniform(-8, -4))
        pa = 10.0 ** float(rng.uniform(0, 2))
        pb = 10.0 ** float(rng.uniform(0, 2))
        noise = 1e-9
        stats = ChannelStatistics(
            R_bs=bs_correlation(eta, m), R_irs=irs_correlation(2, 2),
            beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
        )
        res = waterfill(stats, var, pa, pb, noise)
        p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
        assert abs(float(np.sum(res.mode_powers / p_modes)) - m) < 1e-9
        for q, p in zip(res.mode_powers, p_modes):
            if q > 0:
                assert abs(marginal_bits(q, var, pa, pb, noise) - res.water_level / p) < 1e-6
            else:
                assert marginal_bits(0.0, var, pa, pb, noise) <= res.water_level / p + 1e-6
        uniform = sum(per_mode_objective(p, var, pa, pb, noise) for p in p_modes)
        assert res.objective_bits >= uniform - 1e-12
    flat = ChannelStatistics(
        R_bs=bs_correlation(0.0, 4), R_irs=irs_correlation(2, 2),
        beta_direct=1e-8, beta_bs_irs=1e-6, beta_irs_ue=1e-5,
    )
    npt.assert_allclose(waterfill(flat, 1e-6, 10.0, 10.0, 1e-9).mode_powers, 1.0, atol=1e-9)


def test_criterion_05_analytic_gradient_matches_finite_differences():
    # 10 random parameter/batch configurations at M=2, L=4, 20 coordinates
    # each, drawn where the central difference is trustworthy (|fd| >= 1e-5,
    # above the double-precision noise floor of the difference quotient):
    # relative error < 1e-4. A further 20 near-flat coordinates per
    # configuration must agree absolutely, so zero directions are not faked.
    system = SystemConfig(M=2, L_h=2, L_v=2)
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


def test_criterion_06_forward_output_always_feasible():
    # 1e4 random parameter vectors over two antenna/surface sizes: every
    # forward pass must emit unit-modulus phases and an exactly budgeted
    # precoder, no matter how badly scaled the parameters are.
    rng = np.random.default_rng(606)
    setups = [
        (SystemConfig(M=2, L_h=2, L_v=2), init_params(2, 4, rng, hidden=32)),
        (SystemConfig(M=3, L_h=3, L_v=3, power_a=2.5), init_params(3, 9, rng, hidden=48)),
    ]
    for system, template in setups:
        n = template.vec.size
        budget = system.power_a * system.M
        for _ in range(5000):
            scale = 10.0 ** rng.uniform(-3, 1)
            params = NetParams(template.M, template.L, template.hidden)
            params.vec = scale * rng.standard_normal(n)
            loc = (rng.uniform(0, 30), rng.uniform(0, 30), 0.0)
            design = forward(params, loc, system)
            assert np.abs(np.abs(design.phases) - 1.0).max() <= 1e-9
            tr = float(np.trace(design.precoder @ design.precoder.conj().T).real)
            assert abs(tr - budget) <= 1e-9 * budget


def test_criterion_07_trend_reproduction_across_sweeps():
    # Qualitative curve shapes, for the trained network and the designed
    # baseline alike: key rate strictly increasing in antennas, surface size,
    # and transmit power; strictly decreasing in antenna correlation.
    reference = SystemConfig(M=4, L_h=5, L_v=5)
    tc = TrainConfig()
    jobs = (
        ("m", (2, 4, 8), SystemConfig(M=4, L_h=6, L_v=6), 1),
        ("l", (16, 36, 64), reference, 1),
        ("power", (0.0, 10.0, 20.0), reference, 1),
        ("eta", (0.0, 0.3, 0.6), SystemConfig(M=8, L_h=6, L_v=6), -1),
    )
    for variable, values, cfg, direction in jobs:
        spec = SweepSpec(variable, values, methods=("pkg_net", "baseline"))
        rows = run_sweep(spec, cfg, tc).rows
        for method in ("pkg_net", "baseline"):
            curve = [r.skr_bits for r in rows if r.method == method]
            deltas = np.diff(curve) * direction
            assert (deltas > 0).all(), (
                f"{method} not monotone in {variable}: {curve}"
            )


def test_criterion_08_method_ordering_at_reference_setup():
    # M=4, L=25, 10 dBm, UE at (10, 10, 0): median over five training seeds
    # of the learned design must reach the designed baseline, which must beat
    # the mean of random configurations; one full training stays under 30 min.
    system = SystemConfig(M=4, L_h=5, L_v=5)
    stats = channel_statistics(system)

    net_bits = []
    train_seconds = None
    for seed in range(5):
        t0 = time.perf_counter()
        params, history = train(TrainConfig(seed=seed), system)
        elapsed = time.perf_counter() - t0
        if seed == 0:
            train_seconds = elapsed
        assert history[-1] <= history[0], "training did not reduce the loss"
        design = forward(params, system.pos_ue, system)
        net_bits.append(skr_closed_form(design, stats, system.power_b, system.noise).bits)

    base_bits = skr_closed_form(
        baseline_design(system, stats), stats, system.power_b, system.noise
    ).bits
    rng = np.random.default_rng(808)
    random_bits = [
        skr_closed_form(random_design(system, rng), stats, system.power_b, system.noise).bits
        for _ in range(100)
    ]
    rand_mean = float(np.mean(random_bits))

    med = statistics.median(net_bits)
    assert med >= base_bits, f"median learned rate {med:.6f} < baseline {base_bits:.6f}"
    assert base_bits >= rand_mean, f"baseline {base_bits:.6f} < random mean {rand_mean:.6f}"
    assert train_seconds < 1800.0, f"one training run took {train_seconds:.0f}s"


def test_criterion_09_reciprocity_and_compact_channel_form():
    # 1000 random instances with M <= 4, L <= 9: noiseless uplink equals the
    # sqrt(power)-scaled downlink to 1e-10, and the combined channel equals
    # its Kronecker-selector compact form to 1e-10.
    rng = np.random.default_rng(909)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        cfg = SystemConfig(
            M=m, L_h=int(rng.integers(1, 4)), L_v=int(rng.integers(1, 4)),
            eta=float(rng.uniform(0.0, 0.9)),
        )
        stats = channel_statistics(cfg)
        real = sample_realization(stats, rng)
        design = random_design(cfg, rng)
        power_b = 10.0 ** float(rng.uniform(-1, 2))
        c = combined_channel(real, design)
        y_a = uplink_probe(c, design.precoder, np.zeros(m), power_b)
        y_b = downlink_probe(c, design.precoder, np.zeros(m))
        npt.assert_allclose(y_a, math.sqrt(power_b) * y_b, atol=1e-10)
        sel = np.kron(design.phases_ext[None, :], np.eye(m))
        npt.assert_allclose(combined_channel(real, design), sel @ real.cascade, atol=1e-10)


_GATE_INI = """\
[system]
m = 2
l_h = 2
l_v = 2

[train]
epochs = 2
samples_per_epoch = 20
batch_size = 10
seed = 3

[sweep]
variable = eta
values = 0.0, 0.3
methods = baseline, random
trials = 5
seed = 2
"""


def _strip_wall_seconds(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(",".join(line.split(",")[:2]) for line in lines)


def test_criterion_10_cli_runs_are_byte_reproducible(tmp_path):
    # every verb, run twice with the same config and seed, must write
    # byte-identical artifacts (the training history's wall-clock column is
    # timing telemetry and is excluded).
    config = tmp_path / "gate.ini"
    config.write_text(_GATE_INI)
    verbs = {
        "skr": (["skr", "--method", "random", "--trials", "10", "--seed", "5"], ["skr.json"]),
        "baseline": (["baseline"], ["baseline.json"]),
        "train": (["train"], ["pkgnet_M2_L4.ckpt"]),
        "sweep": (["sweep"], ["sweep.csv", "sweep_plot.py"]),
        "mc-check": (["mc-check", "--samples", "20000", "--seed", "2"], ["mc_check.json"]),
    }
    for verb, (argv, artifacts) in verbs.items():
        outs = []
        for run in ("first", "second"):
            out = tmp_path / f"{verb}-{run}"
            code = cli.main(argv + ["--config", str(config), "--out", str(out)])
            assert code == 0, f"{verb} exited {code}"
            outs.append(out)
        for name in artifacts:
            a, b = (out / name for out in outs)
            assert a.read_bytes() == b.read_bytes(), f"{verb}: {name} differs between runs"
        if verb == "train":
            histories = [(out / "train_history.csv").read_text() for out in outs]
            assert _strip_wall_seconds(histories[0]) == _strip_wall_seconds(histories[1])
