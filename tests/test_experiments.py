import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from irskey import (
    ConfigError,
    SweepResult,
    SweepRow,
    SweepSpec,
    SystemConfig,
    TrainConfig,
    baseline_design,
    channel_statistics,
    effective_variance,
    equal_phase_vector,
    load_experiment_config,
    load_system_config,
    per_mode_objective,
    random_design,
    read_csv,
    run_sweep,
    skr_closed_form,
    validate_design,
    write_csv,
    write_plot_script,
)
from irskey import cli
from irskey.experiments import random_design_bits


TINY_TRAIN = TrainConfig(epochs=1, samples_per_epoch=20, batch_size=10, seed=0)


def _tiny_system():
    return SystemConfig(M=2, L_h=2, L_v=2)


# --------------------------------------------------------------------------
# sweep specification


def test_sweep_spec_validation():
    SweepSpec("m", (2, 4, 8))
    SweepSpec("l", (16, 36), methods=("baseline",))
    with pytest.raises(ConfigError):
        SweepSpec("bandwidth", (1, 2))
    with pytest.raises(ConfigError):
        SweepSpec("m", ())
    with pytest.raises(ConfigError):
        SweepSpec("m", (4, 2))  # not increasing
    with pytest.raises(ConfigError):
        SweepSpec("l", (16, 35))  # not a perfect square
    with pytest.raises(ConfigError):
        SweepSpec("m", (2, 4), methods=("baseline", "genie"))
    with pytest.raises(ConfigError):
        SweepSpec("m", (2, 4), methods=())
    with pytest.raises(ConfigError):
        SweepSpec("m", (2, 4), trials=0)


def test_sweep_spec_rejects_non_integer_sizes(tmp_path):
    # _override would otherwise run these as M=4 and L=16 through int()
    with pytest.raises(ConfigError):
        SweepSpec("m", (2, 4.5))
    with pytest.raises(ConfigError):
        SweepSpec("l", (9, 16.7))
    SweepSpec("m", (2.0, 4.0))  # integral floats, as the INI reader produces
    for variable, values in (("m", "2, 4.5"), ("l", "9, 16.7")):
        path = tmp_path / f"{variable}.ini"
        path.write_text(f"[sweep]\nvariable = {variable}\nvalues = {values}\n")
        with pytest.raises(ConfigError):
            load_experiment_config(str(path))


# --------------------------------------------------------------------------
# random reference configuration


def test_random_design_bits_matches_scalar_loop():
    cfg = SystemConfig(M=4, L_h=3, L_v=3)
    stats = channel_statistics(cfg)
    rng = np.random.default_rng(3)
    draws = np.array(
        [skr_closed_form(random_design(cfg, rng), stats, cfg.power_b, cfg.noise).bits
         for _ in range(12)]
    )
    bits, std_error = random_design_bits(cfg, stats, np.random.default_rng(3), 12)
    assert bits == pytest.approx(draws.mean(), rel=1e-12)
    assert std_error == pytest.approx(draws.std(ddof=1) / math.sqrt(12), rel=1e-9)
    assert random_design_bits(cfg, stats, np.random.default_rng(3), 1)[1] is None
    with pytest.raises(ConfigError):
        random_design_bits(cfg, stats, rng, 0)


def test_random_design_is_feasible(rng):
    cfg = _tiny_system()
    des = random_design(cfg, rng)
    validate_design(des, cfg.power_a, power_rtol=1e-12)
    npt.assert_allclose(np.abs(des.phases), 1.0, atol=1e-12)


def test_random_design_draws_differ():
    cfg = _tiny_system()
    a = random_design(cfg, np.random.default_rng(1))
    b = random_design(cfg, np.random.default_rng(2))
    assert np.abs(a.precoder - b.precoder).max() > 1e-3


# --------------------------------------------------------------------------
# sweep execution


def test_run_sweep_single_point_row_per_method(reference_setup):
    spec = SweepSpec("eta", (0.3,), methods=("baseline", "random"), trials=5, seed=1)
    result = run_sweep(spec, reference_setup)
    assert len(result.rows) == 2
    methods = [r.method for r in result.rows]
    assert methods == ["baseline", "random"]
    base_row = result.rows[0]
    assert base_row.variable == "eta" and base_row.value == 0.3
    assert base_row.std_error is None
    assert result.rows[1].std_error is not None


def test_run_sweep_three_methods_times_four_values():
    spec = SweepSpec("eta", (0.0, 0.2, 0.4, 0.6), methods=("pkg_net", "baseline", "random"),
                     trials=3, seed=0)
    result = run_sweep(spec, _tiny_system(), TINY_TRAIN)
    assert len(result.rows) == 12


def test_run_sweep_overrides_each_variable():
    base = _tiny_system()
    for variable, value, check in (
        ("m", 3, lambda cfg_rows: True),
        ("l", 9, lambda cfg_rows: True),
        ("power", 0.0, lambda cfg_rows: True),
        ("eta", 0.5, lambda cfg_rows: True),
    ):
        spec = SweepSpec(variable, (value,), methods=("baseline",))
        rows = run_sweep(spec, base).rows
        assert len(rows) == 1 and rows[0].value == value and rows[0].skr_bits > 0


def test_run_sweep_results_independent_of_worker_count(reference_setup):
    spec = SweepSpec("eta", (0.0, 0.3, 0.6), methods=("baseline", "random"), trials=4, seed=9)
    seq = run_sweep(spec, reference_setup, max_workers=1)
    par = run_sweep(spec, reference_setup, max_workers=3)
    assert seq.rows == par.rows


def test_run_sweep_uses_checkpoints_when_given(tmp_path):
    from irskey import neural
    from irskey.experiments import checkpoint_name

    system = _tiny_system()
    params, _ = neural.train(TINY_TRAIN, system)
    path = tmp_path / checkpoint_name(system)
    neural.save_checkpoint(str(path), params, seed=0)
    spec = SweepSpec("power", (10.0,), methods=("pkg_net",))
    result = run_sweep(spec, system, checkpoint_dir=str(tmp_path))
    stats_bits = result.rows[0].skr_bits
    design = neural.forward(params, system.pos_ue, system)
    from irskey import channel_statistics
    want = skr_closed_form(design, channel_statistics(system), system.power_b, system.noise).bits
    assert stats_bits == pytest.approx(want, rel=1e-12)


def test_run_sweep_missing_checkpoint_errors(tmp_path):
    spec = SweepSpec("power", (10.0,), methods=("pkg_net",))
    with pytest.raises(ConfigError):
        run_sweep(spec, _tiny_system(), checkpoint_dir=str(tmp_path))


def test_run_sweep_reference_ordering(reference_setup):
    # at the reference setup the designed baseline never loses to random draws
    spec = SweepSpec("power", (10.0,), methods=("baseline", "random"), trials=20, seed=4)
    rows = run_sweep(spec, reference_setup).rows
    assert rows[0].skr_bits > rows[1].skr_bits


# --------------------------------------------------------------------------
# CSV and plot emission


def _sample_result():
    return SweepResult(rows=(
        SweepRow("m", 2, "baseline", 4.5, None),
        SweepRow("m", 2, "random", 3.25, 0.125),
        SweepRow("m", 4, "baseline", 9.0078125, None),
        SweepRow("m", 4, "random", 7.5, 0.25),
    ))


def test_write_csv_header_and_cells(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(_sample_result(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "variable,value,method,skr_bits,std_error"
    assert lines[1] == "m,2,baseline,4.5,"
    assert lines[2] == "m,2,random,3.25,0.125"
    assert len(lines) == 5


def test_csv_roundtrip_identity(tmp_path):
    path = tmp_path / "sweep.csv"
    result = _sample_result()
    write_csv(result, str(path))
    back = read_csv(str(path))
    assert back.rows == result.rows


def test_empty_result_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(SweepResult(rows=()), str(path))
    assert path.read_text() == "variable,value,method,skr_bits,std_error\n"
    assert read_csv(str(path)).rows == ()


def test_csv_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(_sample_result(), str(p1))
    write_csv(_sample_result(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_csv(str(path))


def test_plot_script_is_valid_python_with_data(tmp_path):
    path = tmp_path / "plot.py"
    write_plot_script(_sample_result(), str(path))
    src = path.read_text()
    compile(src, str(path), "exec")
    assert "baseline" in src and "9.0078125" in src
    assert "matplotlib" in src


# --------------------------------------------------------------------------
# configuration file


FULL_INI = """
[system]
m = 2
l_h = 2
l_v = 2
eta = 0.4
power_a_dbm = 10
power_b_dbm = 10
noise_dbm = -90

[train]
epochs = 2
samples_per_epoch = 20
batch_size = 10
learning_rate = 0.002
seed = 3
ue_region = 5, 15, 5, 15
fresh_samples = true

[sweep]
variable = eta
values = 0.0, 0.3, 0.6
methods = baseline, random
trials = 7
seed = 2
"""


def test_load_experiment_config_full(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL_INI)
    system, train_cfg, spec = load_experiment_config(str(path))
    assert system.M == 2 and system.eta == 0.4
    assert train_cfg.epochs == 2 and train_cfg.learning_rate == 0.002
    assert train_cfg.ue_region == ((5.0, 15.0), (5.0, 15.0))
    assert spec.variable == "eta" and spec.values == (0.0, 0.3, 0.6)
    assert spec.methods == ("baseline", "random") and spec.trials == 7 and spec.seed == 2


def test_load_experiment_config_sections_optional(tmp_path):
    path = tmp_path / "sys_only.ini"
    path.write_text("[system]\nm = 3\n")
    system, train_cfg, spec = load_experiment_config(str(path))
    assert system.M == 3
    assert train_cfg == TrainConfig()
    assert spec is None


def test_load_experiment_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\nm = 2\n\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))


def test_load_experiment_config_rejects_bad_train_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))
    path.write_text("[train]\nue_region = 1, 2, 3\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))
    path.write_text("[sweep]\nvariable = eta\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))


# --------------------------------------------------------------------------
# CLI


def _write_cli_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL_INI)
    return str(path)


def test_cli_skr_baseline_writes_json(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["skr", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "skr.json").read_text())
    assert payload["method"] == "baseline" and payload["skr_bits"] > 0
    assert payload["M"] == 2 and payload["L"] == 4


def test_cli_skr_random_reports_std_error(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["skr", "--config", cfg, "--method", "random",
                     "--trials", "8", "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads((out / "skr.json").read_text())
    assert payload["std_error"] > 0


def test_cli_baseline_artifacts(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["baseline", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "baseline.json").read_text())
    assert len(payload["mode_powers"]) == 2
    assert payload["objective_bits"] > 0 and payload["water_level"] > 0


@pytest.mark.parametrize("power_a_dbm, power_b_dbm", [(20, 70), (70, 30), (-10, -10)])
def test_cli_baseline_at_extreme_powers(tmp_path, power_a_dbm, power_b_dbm):
    # M=4, L=25: at the two high-SNR points the three-term marginal utility
    # cancels, and at -10 dBm no mode reaches the decreasing marginal branch
    cfg = tmp_path / "extreme.ini"
    cfg.write_text(f"[system]\npower_a_dbm = {power_a_dbm}\npower_b_dbm = {power_b_dbm}\n")
    out = tmp_path / "out"
    assert cli.main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "baseline.json").read_text())
    system = load_system_config(str(cfg))
    validate_design(baseline_design(system), system.power_a)
    stats = channel_statistics(system)
    p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
    var = effective_variance(equal_phase_vector(system.L), stats)
    uniform = sum(
        per_mode_objective(p, var, system.power_a, system.power_b, system.noise) for p in p_modes
    )
    assert payload["objective_bits"] >= uniform - 1e-12


@pytest.mark.parametrize("verb", ["baseline", "skr"])
@pytest.mark.parametrize("power_a_dbm, power_b_dbm", [(2000, 10), (10, 2000)])
def test_cli_absurd_power_is_a_numerical_failure(tmp_path, capsys, verb, power_a_dbm, power_b_dbm):
    # products of the two SNRs overflow here; the failure must stay inside the exit-code contract
    cfg = tmp_path / "absurd.ini"
    cfg.write_text(f"[system]\npower_a_dbm = {power_a_dbm}\npower_b_dbm = {power_b_dbm}\n")
    assert cli.main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_cli_train_rejects_region_at_the_surface(tmp_path, capsys):
    cfg = tmp_path / "near.ini"
    cfg.write_text("[train]\nue_region = 0.5, 30, 0.5, 30\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "ue_region" in capsys.readouterr().err
    assert not (tmp_path / "out" / "train_history.csv").exists()


def test_cli_power_sweep_baseline_at_low_power(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nvariable = power\nvalues = -10, 0\nmethods = baseline\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(r[0], float(r[1]), r[2]) for r in rows] == [("power", -10.0, "baseline"), ("power", 0.0, "baseline")]
    assert float(rows[0][3]) > 0.0


def test_cli_import_leaves_scipy_unloaded():
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, irskey.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_train_and_infer_roundtrip(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    ckpt = out / "pkgnet_M2_L4.ckpt"
    assert ckpt.is_file()
    history = (out / "train_history.csv").read_text().splitlines()
    assert history[0] == "epoch,mean_loss_bits,wall_seconds"
    assert len(history) == 3  # header + 2 epochs
    assert cli.main(["skr", "--config", cfg, "--method", "pkg_net",
                     "--checkpoint", str(ckpt), "--out", str(out)]) == 0


def test_cli_train_seed_flag_overrides_config(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    cli.main(["train", "--config", cfg, "--out", str(out_a)])
    cli.main(["train", "--config", cfg, "--seed", "11", "--out", str(out_b)])
    cli.main(["train", "--config", cfg, "--seed", "11", "--out", str(out_c)])
    a = (out_a / "pkgnet_M2_L4.ckpt").read_bytes()
    b = (out_b / "pkgnet_M2_L4.ckpt").read_bytes()
    c = (out_c / "pkgnet_M2_L4.ckpt").read_bytes()
    assert a != b and b == c


def test_cli_sweep_writes_csv_and_plot(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "variable,value,method,skr_bits,std_error"
    assert len(lines) == 1 + 3 * 2
    compile((out / "sweep_plot.py").read_text(), "sweep_plot.py", "exec")


def test_cli_mc_check_consistency(tmp_path):
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["mc-check", "--config", cfg, "--samples", "20000",
                     "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "mc_check.json").read_text())
    assert payload["within_two_std_errors"] is True
    assert payload["abs_gap"] <= 2 * payload["std_error"]


@pytest.mark.parametrize("samples, batches", [(20_000, 30_000), (20_005, 10), (20_000, 10_000)])
def test_cli_mc_check_rejects_uneven_or_undersized_batches(tmp_path, capsys, samples, batches):
    # 30000 batches left 0 samples each (NaN in the report), 20005 dropped 5
    # samples silently, and 2 samples per batch cannot estimate the 4x4 covariance
    cfg = _write_cli_config(tmp_path)
    out = tmp_path / "out"
    argv = ["mc-check", "--config", cfg, "--samples", str(samples), "--batches", str(batches), "--out", str(out)]
    assert cli.main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "mc_check.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("spacing_wl", "inf"),
        ("eta", "nan"),
        ("power_a_dbm", "inf"),
        ("power_b_dbm", "nan"),
        ("noise_dbm", "nan"),
        ("ref_loss_db", "nan"),
        ("ref_dist_m", "inf"),
        ("alpha_direct", "nan"),
        ("alpha_bs_irs", "-inf"),
        ("alpha_irs_ue", "nan"),
        ("pos_bs_m", "5 nan 0"),
        ("pos_irs_m", "0 0 inf"),
        ("pos_ue_m", "inf 10 0"),
    ],
)
def test_cli_rejects_non_finite_system_values(tmp_path, capsys, key, value):
    # NaN passed the "<= 0" checks and ran into water-filling (exit 2)
    path = tmp_path / "nonfinite.ini"
    path.write_text(f"[system]\n{key} = {value}\n")
    assert cli.main(["baseline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "finite" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, monkeypatch):
    # 1: configuration problems of any kind
    assert cli.main(["skr", "--config", str(tmp_path / "nope.ini")]) == 3
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\nm = -1\n")
    assert cli.main(["skr", "--config", str(bad)]) == 1
    assert cli.main(["unknown-verb"]) == 1
    assert cli.main(["skr", "--method", "pkg_net", "--out", str(tmp_path)]) == 1
    assert cli.main(["sweep", "--out", str(tmp_path)]) == 1
    # 2: numerical failures surfaced from the library
    from irskey.errors import NumericalError

    def blow_up(args):
        raise NumericalError("synthetic instability")

    monkeypatch.setitem(cli._COMMANDS, "baseline", blow_up)
    assert cli.main(["baseline", "--out", str(tmp_path)]) == 2
    # 3: I/O failures
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert cli.main(["skr", "--out", str(blocker / "sub")]) == 3
