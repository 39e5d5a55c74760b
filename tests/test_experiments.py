import configparser
import csv
import dataclasses
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
    per_mode_objective,
    random_design,
    run_sweep,
    skr_closed_form,
    validate_design,
    write_csv,
    write_plot_script,
)
from irskey import _blas, channel, cli, experiments, neural
from irskey.errors import NumericalError
from irskey.experiments import _draw_designs, random_design_bits
from irskey.probing import ProbeDesign


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


def test_sweep_spec_rejects_repeated_methods():
    # a repeated method wrote each of its rows twice and trained the inline network twice per point
    with pytest.raises(ConfigError, match=r"repeats \['pkg_net', 'random'\]"):
        SweepSpec("m", (2, 4), methods=("pkg_net", "random", "pkg_net", "random"))


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
    precoders, phases = _draw_designs(cfg, np.random.default_rng(3), 12)
    draws = np.array(
        [skr_closed_form(ProbeDesign(precoder=p, phases=t), stats, cfg.power_b, cfg.noise).bits
         for p, t in zip(precoders, phases)]
    )
    bits, std_error = random_design_bits(cfg, stats, np.random.default_rng(3), 12)
    assert bits == pytest.approx(draws.mean(), rel=1e-12)
    assert std_error == pytest.approx(draws.std(ddof=1) / math.sqrt(12), rel=1e-9)
    assert random_design_bits(cfg, stats, np.random.default_rng(3), 1)[1] is None
    with pytest.raises(ConfigError):
        random_design_bits(cfg, stats, np.random.default_rng(3), 0)


def test_methods_bits_rejects_an_unfittable_random_batch_before_loading_the_network():
    # in a sweep without checkpoints load_net trains a network, which an unfittable batch must not wait for
    cfg = SystemConfig(M=4, L_h=3, L_v=3)

    def load_net():
        raise AssertionError("load_net was called")

    with pytest.raises(ConfigError, match=r"^1000000000000000000 random designs of M=4, L=9 do not fit in memory$"):
        experiments._methods_bits(("random", "pkg_net"), cfg, channel_statistics(cfg), np.random.default_rng(3),
                                  10**18, load_net)


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


def _scaled(raw, m, power_a):
    return raw * np.sqrt(m * power_a / np.sum(np.abs(raw) ** 2, axis=(-2, -1)))[..., None, None]


def _block_reference(m, l, power_a, rng, trials):
    # the block order written out: every real part, every imaginary part, then every angle
    re = rng.standard_normal((trials, m, m))
    raw = re + 1j * rng.standard_normal((trials, m, m))
    return _scaled(raw, m, power_a), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (trials, l)))


def _one_design_reference(m, l, power_a, rng):
    # the stream of one random_design call, as it has always been read
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return _scaled(raw, m, power_a), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, l))


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("side", [1, 2, 5, 12])
def test_draw_designs_draws_one_block_per_factor(m, side):
    cfg = SystemConfig(M=m, L_h=side, L_v=side)
    for trials in (1, 2, 100):
        for seed in (0, 1, 2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            precoders, phases = _draw_designs(cfg, rng, trials)
            want_precoders, want_phases = _block_reference(m, cfg.L, cfg.power_a, ref_rng, trials)
            assert np.array_equal(precoders, want_precoders)
            assert np.array_equal(phases, want_phases)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    for seed in (0, 1, 2):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        design = random_design(cfg, rng)
        want_precoder, want_phases = _one_design_reference(m, cfg.L, cfg.power_a, ref_rng)
        assert np.array_equal(design.precoder, want_precoder)
        assert np.array_equal(design.phases, want_phases)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def test_run_sweep_pool_runs_blas_on_one_thread_and_restores_it(monkeypatch):
    threads = _blas.openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS reachable in this process")
    get, put = threads
    evaluate = experiments._evaluate_point
    seen, failing = [], []

    def spy(spec, base_config, index, *rest):
        seen.append(get())
        if index in failing:
            raise NumericalError("synthetic point failure")
        return evaluate(spec, base_config, index, *rest)

    monkeypatch.setattr(experiments, "_evaluate_point", spy)
    spec = SweepSpec("eta", (0.0, 0.3, 0.6), methods=("baseline", "random"), trials=3)
    before = get()
    put(2)  # a count the pool must lower and then bring back
    try:
        run_sweep(spec, _tiny_system(), max_workers=2)
        assert seen == [1, 1, 1]
        assert get() == 2
        failing.append(1)
        with pytest.raises(NumericalError, match="synthetic"):
            run_sweep(spec, _tiny_system(), max_workers=2)
        assert seen == [1] * len(seen) and len(seen) in (5, 6)  # point 2 may be cancelled before it starts
        assert get() == 2
    finally:
        put(before)


def test_run_sweep_uses_checkpoints_when_given(tmp_path):
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


def _spy_closed_form(monkeypatch):
    # records the batch size K of every closed_form_bits call the experiments module makes
    real, sizes = experiments.closed_form_bits, []

    def spy(precoders, *args):
        sizes.append(len(precoders))
        return real(precoders, *args)

    monkeypatch.setattr(experiments, "closed_form_bits", spy)
    return sizes


@pytest.mark.parametrize("methods", [("pkg_net", "baseline", "random"), ("random", "pkg_net"), ("baseline", "random"),
                                     ("baseline",), ("pkg_net",), ("random",)])
def test_run_sweep_scores_each_point_in_one_closed_form_call(methods, tmp_path, monkeypatch):
    from irskey.experiments import checkpoint_name

    base = SystemConfig(M=3)
    spec = SweepSpec("l", (4, 9, 16), methods=methods, trials=7, seed=5)
    configs = [dataclasses.replace(base, L_h=side, L_v=side) for side in (2, 3, 4)]
    nets = [neural.init_params(cfg.M, cfg.L, np.random.default_rng(cfg.L)) for cfg in configs]
    for cfg, params in zip(configs, nets):
        neural.save_checkpoint(str(tmp_path / checkpoint_name(cfg)), params)
    sizes = _spy_closed_form(monkeypatch)
    rows = run_sweep(spec, base, checkpoint_dir=str(tmp_path), max_workers=1).rows
    k = ("random" in methods) * spec.trials + len(set(methods) - {"random"})
    assert sizes == [k] * len(configs)
    assert [(row.value, row.method) for row in rows] == [(v, m) for v in spec.values for m in methods]
    for index, (cfg, params) in enumerate(zip(configs, nets)):
        stats = channel_statistics(cfg)
        for row in rows[index * len(methods) : (index + 1) * len(methods)]:
            if row.method == "random":  # the same bits as the draws scored alone
                rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
                assert (row.skr_bits, row.std_error) == random_design_bits(cfg, stats, rng, spec.trials)
                continue
            design = baseline_design(cfg, stats) if row.method == "baseline" else neural.forward(params, cfg.pos_ue, cfg)
            want = skr_closed_form(design, stats, cfg.power_b, cfg.noise).bits
            assert row.std_error is None and abs(row.skr_bits - want) <= 1e-14 * want


@pytest.mark.parametrize("method, k", [("baseline", 1), ("random", 9), ("pkg_net", 1)])
def test_cli_skr_scores_through_the_sweep_helper(method, k, tmp_path, monkeypatch):
    cfg = _write_cli_config(tmp_path)
    ckpt = tmp_path / "net.ckpt"
    neural.save_checkpoint(str(ckpt), neural.init_params(2, 4, np.random.default_rng(0)))
    sizes = _spy_closed_form(monkeypatch)
    argv = ["skr", "--config", cfg, "--method", method, "--trials", "9", "--checkpoint", str(ckpt)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert sizes == [k]


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


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["variable", "value", "method", "skr_bits", "std_error"]
        return tuple(
            SweepRow(var, float(value), method, float(bits), None if err == "" else float(err))
            for var, value, method, bits, err in reader
        )


def test_csv_roundtrip_identity(tmp_path):
    path = tmp_path / "sweep.csv"
    result = _sample_result()
    write_csv(result, str(path))
    assert _read_rows(path) == result.rows


def test_empty_result_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(SweepResult(rows=()), str(path))
    assert path.read_text() == "variable,value,method,skr_bits,std_error\n"
    assert _read_rows(path) == ()


def test_csv_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(_sample_result(), str(p1))
    write_csv(_sample_result(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


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


_TABLES = {
    "system": channel._SYSTEM_KEYS,
    "train": neural._TRAIN_KEYS,
    "sweep": experiments._SWEEP_KEYS,
}

# Every accepted key: a raw INI value, the field it must land in, and the value
# it must land as; none equals the field's default. The field names are
# spelled out here, apart from the tables, so that a swapped entry fails.
_NON_DEFAULT = {
    "system": {
        "m": ("3", "M", 3),
        "l_h": ("2", "L_h", 2),
        "l_v": ("3", "L_v", 3),
        "spacing_wl": ("0.25", "spacing_wl", 0.25),
        "eta": ("0.5", "eta", 0.5),
        "pos_bs_m": ("6, -30 1", "pos_bs", (6.0, -30.0, 1.0)),
        "pos_irs_m": ("1 0 2", "pos_irs", (1.0, 0.0, 2.0)),
        "pos_ue_m": ("11,9,0", "pos_ue", (11.0, 9.0, 0.0)),
        "power_a_dbm": ("20", "power_a", 100.0),
        "power_b_dbm": ("0", "power_b", 1.0),
        "noise_dbm": ("-80", "noise", 1e-8),
        "ref_loss_db": ("-20", "ref_loss_db", -20.0),
        "ref_dist_m": ("0.5", "ref_dist", 0.5),
        "alpha_direct": ("3.5", "alpha_direct", 3.5),
        "alpha_bs_irs": ("2.5", "alpha_bs_irs", 2.5),
        "alpha_irs_ue": ("2.25", "alpha_irs_ue", 2.25),
    },
    "train": {
        "epochs": ("7", "epochs", 7),
        "samples_per_epoch": ("500", "samples_per_epoch", 500),
        "batch_size": ("50", "batch_size", 50),
        "learning_rate": ("0.01", "learning_rate", 0.01),
        "adam_beta1": ("0.8", "adam_beta1", 0.8),
        "adam_beta2": ("0.99", "adam_beta2", 0.99),
        "adam_eps": ("1e-6", "adam_eps", 1e-6),
        "ue_region": ("6, 14, 4, 16", "ue_region", ((6.0, 14.0), (4.0, 16.0))),
        "seed": ("9", "seed", 9),
        "fresh_samples": ("No", "fresh_samples", False),
    },
    "sweep": {
        "variable": ("ETA", "variable", "eta"),
        "values": ("0.1 0.2", "values", (0.1, 0.2)),
        "methods": ("random", "methods", ("random",)),
        "trials": ("9", "trials", 9),
        "seed": ("4", "seed", 4),
    },
}
_DEFAULTS = {"system": SystemConfig(), "train": TrainConfig(), "sweep": SweepSpec("power", (10.0,))}
_REQUIRED = {"sweep": {"variable": "power", "values": "10"}}
_SECTION_KEYS = [(section, key) for section, table in _TABLES.items() for key in table]


def _load_section(tmp_path, section, entries):
    path = tmp_path / "one.ini"
    body = {**_REQUIRED.get(section, {}), **entries}
    path.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
    loaded = load_experiment_config(str(path))
    return loaded[list(_TABLES).index(section)]


def test_reader_tables_and_their_tests_name_the_same_keys():
    assert {s: set(t) for s, t in _TABLES.items()} == {s: set(t) for s, t in _NON_DEFAULT.items()}


@pytest.mark.parametrize("section, key", _SECTION_KEYS)
def test_reader_puts_each_key_in_its_own_field(tmp_path, section, key):
    raw, field, want = _NON_DEFAULT[section][key]
    default = _DEFAULTS[section]
    assert getattr(default, field) != want
    assert _load_section(tmp_path, section, {key: raw}) == dataclasses.replace(default, **{field: want})


@pytest.mark.parametrize("section, key", _SECTION_KEYS)
def test_reader_rejects_garbage_naming_the_key(tmp_path, section, key):
    garbage = "maybe" if key == "fresh_samples" else "1x"
    with pytest.raises(ConfigError, match=rf"\b{section}\.{key}\b"):
        _load_section(tmp_path, section, {key: garbage})


def test_reader_rejects_a_bad_interpolation(tmp_path):
    # configparser raised its InterpolationSyntaxError through main() as a traceback
    with pytest.raises(ConfigError, match=r"system\.m: '5%'"):
        _load_section(tmp_path, "system", {"m": "5%"})
    assert _load_section(tmp_path, "system", {"l_h": "3", "l_v": "%(l_h)s"}).L == 9


def test_readme_config_block_is_the_defaults_and_names_every_key(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    parser = configparser.ConfigParser()
    parser.read(path)
    assert {s: set(parser[s]) for s in parser.sections()} == {s: set(t) for s, t in _TABLES.items()}
    system, train_cfg, spec = load_experiment_config(str(path))
    assert system == SystemConfig()
    assert train_cfg == TrainConfig()
    assert spec.variable == "power"


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
    system = load_experiment_config(str(cfg))[0]
    validate_design(baseline_design(system), system.power_a)
    stats = channel_statistics(system)
    p_modes = np.sort(np.linalg.eigvalsh(stats.R_bs))[::-1]
    var = effective_variance(equal_phase_vector(system.L), stats)
    uniform = sum(
        per_mode_objective(p, var, system.power_a, system.power_b, system.noise) for p in p_modes
    )
    assert payload["objective_bits"] >= uniform - 1e-12


def test_cli_sweep_seed_flag_reseeds_training_and_random_draws(tmp_path):
    # --seed N must give the bytes of a config whose [train] and [sweep] seeds are both N
    text = FULL_INI.replace("methods = baseline, random", "methods = pkg_net, random")
    plain, seeded = tmp_path / "plain.ini", tmp_path / "seeded.ini"
    plain.write_text(text)
    seeded.write_text(text.replace("seed = 3", "seed = 8").replace("seed = 2", "seed = 8"))
    for cfg, extra, out in ((plain, ["--seed", "8"], "a"), (seeded, [], "b"), (plain, [], "c")):
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out)] + extra) == 0
    a, b, c = ((tmp_path / d / "sweep.csv").read_bytes() for d in "abc")
    assert a == b and a != c


def test_cli_power_sweep_baseline_at_low_power(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nvariable = power\nvalues = -10, 0\nmethods = baseline\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(r[0], float(r[1]), r[2]) for r in rows] == [("power", -10.0, "baseline"), ("power", 0.0, "baseline")]
    assert float(rows[0][3]) > 0.0


def test_cli_sweep_power_past_float_range_is_a_config_error(tmp_path, capsys, monkeypatch):
    # 10**(4000/10) overflowed on a pool thread and escaped main() as an OverflowError
    evaluated = []
    monkeypatch.setattr(experiments, "_evaluate_point", lambda *args: evaluated.append(args) or [])
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nvariable = power\nvalues = 10, 4000\nmethods = baseline\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "4000" in err and "Traceback" not in err
    assert evaluated == []
    assert not out.exists()


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


@pytest.mark.parametrize("verb", ["skr", "sweep"])
def test_cli_checkpoint_sized_for_another_system_is_a_config_error(tmp_path, capsys, verb):
    # sweeps once fed such a file to the forward pass and died with a numpy ValueError
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    ckpt = ckpt_dir / "pkgnet_M8_L16.ckpt"
    neural.save_checkpoint(str(ckpt), neural.init_params(4, 25, np.random.default_rng(0)), seed=0)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[system]\nm = 8\nl_h = 4\nl_v = 4\n\n[sweep]\nvariable = l\nvalues = 16\nmethods = pkg_net\n")
    argv = ["sweep", "--checkpoints", str(ckpt_dir)]
    if verb == "skr":
        argv = ["skr", "--method", "pkg_net", "--checkpoint", str(ckpt)]
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "checkpoint sized for M=4, L=25; system has M=8, L=16" in err and "Traceback" not in err


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


@pytest.mark.parametrize("power_dbm, rank", [(0, 2), (-10, 1)])
def test_cli_mc_check_rank_deficient_baseline(tmp_path, power_dbm, rank):
    # water-filling leaves modes unpowered, so y_a = P^T u spans rank(P) < M
    # dimensions and the 2M-square sample covariance was singular (exit 2)
    cfg = tmp_path / "low_power.ini"
    cfg.write_text(f"[system]\npower_a_dbm = {power_dbm}\npower_b_dbm = {power_dbm}\n")
    system = load_experiment_config(str(cfg))[0]
    assert np.linalg.matrix_rank(baseline_design(system).precoder) == rank
    out = tmp_path / "out"
    assert cli.main(["mc-check", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "mc_check.json").read_text())
    assert payload["abs_gap"] <= 6.6 * payload["std_error"]  # the benchmark's bound, the 1e-4 quantile of t(9)


def test_cli_exit_codes(tmp_path, monkeypatch):
    # the cases a test_cli_contract row cannot express; configuration errors (1) are all rows there
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
