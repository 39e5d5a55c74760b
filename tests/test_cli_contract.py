"""The CLI's error contract as one table: a row per case, one checker (``check_contract``) for every row.

Exit codes: 0 success, 1 ConfigError, 2 NumericalError, 3 OSError. A new case is one more row.
"""

import os
import subprocess
import sys
import warnings
from typing import NamedTuple

import pytest

from irskey import cli, neural
from test_experiments import FULL_INI


class Row(NamedTuple):
    argv: tuple
    ini: str | None  # written to c.ini and passed as --config; None runs without --config
    code: int
    fragments: tuple = ()  # each must appear in the stderr line; a first one with the code's prefix must start it
    out_dir: bool = False  # train made --out before it failed; it must be empty
    label: str | None = None  # stands for the INI in the test id

    @property
    def id(self) -> str:
        lines = [line for line in (self.ini or "").splitlines() if line and not line.startswith("[")]
        return f"{' '.join(self.argv)} : {self.label or '; '.join(lines) or 'no config'}"


def check_contract(row: Row, workdir, run) -> None:
    """Run ``row`` through ``run(argv) -> (exit code, stderr)``, which runs in ``workdir``; assert the contract.

    Exit 0 prints nothing to stderr. A failure prints one line with the code's prefix and the
    row's fragments, without a traceback or a warning, and leaves nothing under ``--out``. A
    first fragment that itself starts with the prefix must start the line.
    """
    argv = list(row.argv)
    if row.ini is not None:
        (workdir / "c.ini").write_text(row.ini)
        argv += ["--config", "c.ini"]
    code, err = run(argv + ["--out", "out"])
    assert code == row.code, err
    if code == 0:
        assert err == ""
        return
    prefix = {1: "config error:", 2: "numerical failure:", 3: "i/o error:"}[code]
    head = row.fragments[0] if row.fragments and row.fragments[0].startswith(prefix) else prefix
    assert len(err.splitlines()) == 1 and err.startswith(head), err
    assert "Traceback" not in err and "Warning" not in err, err
    assert [part for part in row.fragments if part not in err] == [], err
    out = workdir / "out"
    assert not out.exists() or (row.out_dir and not any(out.iterdir()))


_ALL_BUT_SWEEP = (("skr",), ("skr", "--method", "random"), ("baseline",), ("mc-check",), ("train",))
_WATERFILL_OVERFLOWS = ("ref_loss_db = -2000", "noise_dbm = 3000", "noise_dbm = -3000", "power_a_dbm = -3000",
                        "power_b_dbm = -3000", "power_a_dbm = 3000")
_ONE_STEP = "[train]\nepochs = 1\nsamples_per_epoch = 10\nbatch_size = 10\n"
_THREE_EPOCHS = "[train]\nepochs = 3\nsamples_per_epoch = 100\nbatch_size = 10\n"

ROWS = [
    # products of the two SNRs overflow here; the failure must stay inside the exit-code contract
    *(Row((verb,), f"[system]\npower_a_dbm = {a}\npower_b_dbm = {b}\n", 2)
      for verb in ("baseline", "skr") for a, b in ((2000, 10), (10, 2000))),
    # a*b under- or overflows, or a and b lie ~300 decades apart: the solve divides by 0 or,
    # at power_a_dbm = 3000, its candidates overflow to NaN. A random design does not
    # water-fill and still gets a rate
    *(Row((verb,), f"[system]\n{line}\n", 2, ("numerical failure: water-filling", "a = ", "b = "))
      for line in _WATERFILL_OVERFLOWS for verb in ("skr", "baseline", "mc-check")),
    *(Row(("skr", "--method", "random"), f"[system]\n{line}\n", 0) for line in _WATERFILL_OVERFLOWS),
    Row(("sweep",), "[sweep]\nvariable = power\nvalues = -3000, 0\n", 2, ("numerical failure: water-filling",)),
    # the distance overflowed with a RuntimeWarning, or every gain underflowed to 0, and the
    # error blamed the powers; the random method printed 0 bits and exited 0. train checks
    # pos_ue as well, though its batches draw their positions from ue_region. A subnormal
    # ref_dist_m overflowed dist / ref_dist with a RuntimeWarning first
    *(Row(argv, f"[system]\n{line}\n", 1, (named,), out_dir=argv == ("train",)) for argv in _ALL_BUT_SWEEP
      for line, named in (("pos_ue_m = 1e300, 0, 0", "BS-UE distance"), ("ref_dist_m = 1e-300", "BS-UE link gain"),
                          ("ref_dist_m = 1e-320", "no signal path"))),
    # a gain above 1 made mc-check ask for more samples, water-filling divide by 0, errors
    # name neither link nor key, train warn, and skr exit 0 with a direct gain of ~1e79
    *(Row(argv, f"[system]\n{key} = {value}\n", 1, (key,)) for argv in _ALL_BUT_SWEEP for key, value in (
        ("ref_loss_db", 100), ("ref_loss_db", 1000), ("ref_loss_db", 2000), ("alpha_direct", -50),
        ("alpha_bs_irs", -1), ("alpha_irs_ue", -1))),
    # (p_b s + N)**2 overflowed in dMI/dvar: a RuntimeWarning on stderr, and a wrong gradient
    *(Row(("train",), f"[system]\n{line}\n[train]\nepochs = 2\n", 0) for line in ("noise_dbm = 3000", "power_b_dbm = 3000")),
    # the advice was "increase n_samples", which cannot help: 2M samples failed the same way. The newline ends the line
    Row(("mc-check",), "[system]\nnoise_dbm = -250\n", 2,
        ("numerical failure: sample covariance of batch 0 is singular in float64 at this SNR\n",)),
    Row(("train",), "[train]\nue_region = 0.5, 30, 0.5, 30\n", 1, ("ue_region",), out_dir=True),
    # a side longer than the float range escaped main() as an OverflowError from rng.uniform
    *(Row(("train",), f"[train]\nue_region = {region}\n", 1, ("ue_region",), out_dir=True)
      for region in ("-1e308, 1e308, 5, 15", "7, 15, -1e308, 1e308")),
    # the first four trained to NaN weights and exited 0; the last escaped as an OverflowError
    *(Row(("train",), f"{_ONE_STEP}{entry}\n", 1) for entry in (
        "learning_rate = nan", "adam_eps = 0", "adam_beta1 = 1.0", "adam_beta2 = 1.0", "ue_region = -inf, inf, 5, 15")),
    # one step overflowed into a checkpoint of infinite weights and exited 0; 30 steps
    # printed 4 RuntimeWarnings before the divergence error
    *(Row(("train",), f"{steps}learning_rate = 1e308\n", 2, ("learning_rate 1e+308",), out_dir=True)
      for steps in (_ONE_STEP, _THREE_EPOCHS)),
    # with finite weights the forward pass overflowed: 1e50 and 1e100 warned, then exited 0 with a loss of 0 bits
    *(Row(("train",), f"{_THREE_EPOCHS}learning_rate = {lr}\n", 2, ("training step", f"learning_rate {lr}"),
          out_dir=True) for lr in (1e50, 1e100, 1e200, 1e300)),
    # numpy rejects negative seeds with a ValueError that escaped main() as a traceback
    *(Row(argv, FULL_INI, 1, ("seed",), label="FULL_INI") for argv in (
        ("skr", "--method", "random", "--seed", "-1"), ("mc-check", "--samples", "20000", "--seed", "-1"),
        ("train", "--seed", "-1"), ("sweep", "--seed", "-1"))),
    *(Row((verb,), FULL_INI.replace(f"seed = {seed}", "seed = -2"), 1, ("seed",), label=f"FULL_INI, {verb} seed -2")
      for verb, seed in (("train", 3), ("sweep", 2))),
    # a repeated method wrote each of its rows twice and trained the inline network twice per point
    Row(("sweep",), "[sweep]\nvariable = m\nvalues = 2, 4\nmethods = baseline, random, baseline\n", 1, ("['baseline']",)),
    # numpy refuses the L x L or M x M correlation matrix before touching memory;
    # that escaped main() as an _ArrayMemoryError or a ValueError traceback
    Row(("baseline",), "[system]\nl_h = 1000000\nl_v = 1\n", 1, ("M=", "L=")),
    Row(("baseline",), "[system]\nm = " + "9" * 400 + "\n", 1, ("M=", "L="), label="m = 400 nines"),
    # 30000 batches left 0 samples each (NaN in the report), 20005 dropped 5
    # samples silently, and 2 samples per batch cannot estimate the 4x4 covariance
    *(Row(("mc-check", "--samples", str(samples), "--batches", str(batches)), FULL_INI, 1, label="FULL_INI")
      for samples, batches in ((20_000, 30_000), (20_005, 10), (20_000, 10_000))),
    # each buffer is far beyond any address space, so the allocation fails at
    # once; numpy's MemoryError used to escape main() as a traceback
    Row(("mc-check", "--samples", str(10**15), "--batches", "2"), None, 1, ("memory",)),
    # numpy counts child streams in a C long: 2**63 batches escaped main() as an OverflowError from rng.spawn
    Row(("mc-check", "--samples", str(8 * 2**63), "--batches", str(2**63)), None, 1, (f"{2**63} batches",)),
    Row(("skr", "--method", "random", "--trials", str(10**15)), None, 1, ("memory",)),
    # the step's buffers or an epoch's UE locations: numpy's MemoryError escaped train as a traceback
    *(Row(("train",), f"[train]\nsamples_per_epoch = {10**12}\nbatch_size = {batch}\nfresh_samples = {fresh}\n", 1,
          ("memory", named), out_dir=True) for fresh in ("true", "false")
      for batch, named in ((10**12, f"batch_size {10**12}"), (100, f"samples_per_epoch {10**12}"))),
    # each size is past numpy's index range, so numpy refuses it with a ValueError before asking for
    # memory and the row does not depend on the machine's RAM; that ValueError escaped main() as a traceback
    *(Row(argv, ini, 1, (named, "do not fit in memory"), out_dir=argv == ("train",)) for argv, ini, named in (
        (("skr", "--method", "random", "--trials", str(10**18)), None, f"{10**18} random designs"),
        (("sweep",), f"[sweep]\nvariable = m\nvalues = 2\nmethods = random\ntrials = {10**18}\n",
         f"{10**18} random designs"),
        (("mc-check", "--samples", str(10**19)), None, f"{10**19} Monte Carlo samples"),
        *((("train",), f"[train]\nsamples_per_epoch = {10**21}\nfresh_samples = {fresh}\n",
           f"samples_per_epoch {10**21}") for fresh in ("true", "false")),
        (("train",), f"[train]\nsamples_per_epoch = {10**20}\nbatch_size = {10**20}\n", f"batch_size {10**20}"))),
    # NaN passed the "<= 0" checks and ran into water-filling (exit 2)
    *(Row(("baseline",), f"[system]\n{key} = {value}\n", 1, ("finite",)) for key, value in (
        ("spacing_wl", "inf"), ("eta", "nan"), ("power_a_dbm", "inf"), ("power_b_dbm", "nan"), ("noise_dbm", "nan"),
        ("ref_loss_db", "nan"), ("ref_dist_m", "inf"), ("alpha_direct", "nan"), ("alpha_bs_irs", "-inf"),
        ("alpha_irs_ue", "nan"), ("pos_bs_m", "5 nan 0"), ("pos_irs_m", "0 0 inf"), ("pos_ue_m", "inf 10 0"))),
    # the distance across the surface overflowed: exit 2 with "overflow encountered in multiply", naming no key
    Row(("skr",), "[system]\nspacing_wl = 1e308\n", 1, ("spacing_wl",)),
    Row(("skr",), "[system]\nspacing_wl = 1e300\n", 0),
    # a config file that cannot be read is an I/O failure, not a configuration error
    Row(("skr", "--config", "missing.ini"), None, 3, ("missing.ini",)),
    # argv the parser rejects, an input a verb needs and lacks, a size out of range
    Row(("unknown-verb",), None, 1, ("'unknown-verb'",)),
    Row(("skr", "--method", "pkg_net"), None, 1, ("--checkpoint",)),
    Row(("sweep",), None, 1, ("[sweep] section",)),
    Row(("skr",), "[system]\nm = -1\n", 1, ("antenna count", "-1")),
    # the error named power_a or eta, a field the [sweep] section never mentions
    *(Row(("sweep",), f"[sweep]\nvariable = {variable}\nvalues = {values}\n", 1,
          ("sweep values must be nonempty and finite",))
      for variable, values in (("power", "nan"), ("power", "1e400"), ("eta", "0.5, inf"))),
    # the UE on the surface or on the BS: the error named neither the link nor the key
    *(Row(argv, f"[system]\npos_ue_m = {pos}\n", 1, (f"{link} distance 0.0 below reference distance",),
          out_dir=argv == ("train",)) for argv in _ALL_BUT_SWEEP
      for pos, link in (("0 0 0", "surface-UE"), ("5 -35 0", "BS-UE"))),
    # configparser hands [DEFAULT]'s keys to every section: m = 2 without [system] ran at M = 4,
    # epochs = 2 set [train] epochs and seed = 3 set both seeds, each with exit 0. An empty one is harmless
    *(Row((verb,), f"[DEFAULT]\n{line}\n{sections}", 1, ("unknown config sections: ['DEFAULT']",),
          label=f"[DEFAULT] {line}") for verb, line, sections in (
        ("skr", "m = 2", ""), ("train", "epochs = 2", "[train]\nsamples_per_epoch = 10\nbatch_size = 10\n"),
        ("sweep", "seed = 3", "[train]\n[sweep]\nvariable = m\nvalues = 2\n"))),
    Row(("skr",), "[DEFAULT]\n[system]\nm = 2\n", 0, label="empty [DEFAULT], m = 2"),
]
_BY_ID = {row.id: row for row in ROWS}
assert len(_BY_ID) == len(ROWS), "two rows share a test id"


def _in_process(capfd):
    # cli.main with every warning an error; capfd also sees writes to fd 2
    def run(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(argv), capfd.readouterr().err

    return run


@pytest.mark.parametrize("row", ROWS, ids=list(_BY_ID))
def test_cli_contract(row, tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    check_contract(row, tmp_path, _in_process(capfd))


# the network and its Adam state were allocated outside train's MemoryError guard: at M=3000 numpy's
# _ArrayMemoryError (27 GiB) escaped main() as a traceback. Whether a size is refused depends on the
# machine's RAM and swap, so each allocation is made to fail at the default sizes instead
_TRAINING_OUT_OF_MEMORY = [
    Row(("train",), None, 1, ("memory", "M=4", "L=25", "batch_size 100"), out_dir=True),
    Row(("sweep",), "[sweep]\nvariable = m\nvalues = 2\nmethods = pkg_net\n", 1,
        ("memory", "M=2", "L=25", "batch_size 100")),
]


@pytest.mark.parametrize("row", _TRAINING_OUT_OF_MEMORY, ids=[row.id for row in _TRAINING_OUT_OF_MEMORY])
@pytest.mark.parametrize("allocation", ["init_params", "_AdamState"])
def test_cli_contract_when_training_runs_out_of_memory(row, allocation, tmp_path, monkeypatch, capfd):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 27.0 GiB")

    monkeypatch.setattr(neural, allocation, out_of_memory)
    monkeypatch.chdir(tmp_path)
    check_contract(row, tmp_path, _in_process(capfd))


def _real_process(workdir, **options):
    # run(argv) for check_contract: python -m irskey.cli in ``workdir``, with subprocess.run's ``options``
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), **options.pop("env", {}))

    def run(argv):
        done = subprocess.run([sys.executable, "-m", "irskey.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=300, **options)
        return done.returncode, done.stderr

    return run


@pytest.mark.parametrize("row_id", ["skr : ref_dist_m = 1e-320", "baseline : noise_dbm = -3000",
                                    "skr --config missing.ini : no config",
                                    "skr --method random --trials 1000000000000000000 : no config",
                                    "mc-check --samples 73786976294838206464 --batches 9223372036854775808 : no config",
                                    "train : ue_region = -1e308, 1e308, 5, 15"])
def test_cli_contract_in_a_real_process(row_id, tmp_path):
    # python -m irskey.cli under the default warning filters, one row per failing exit code, a size past
    # numpy's index range and two counts past numpy's C types: an escaped ValueError or OverflowError exits
    # 1 too, so only the no-traceback check tells it apart
    check_contract(_BY_ID[row_id], tmp_path, _real_process(tmp_path))


# requests that fit numpy's index range but not a 2000-MiB address space, so they fail the same way on
# any machine. The random designs' phase exponential and their scoring ran outside the memory rule:
# numpy's _ArrayMemoryError for a (1000000, 25) complex array escaped main() as a traceback
_ADDRESS_SPACE_MIB = 2000
_OVER_THE_ADDRESS_SPACE = [
    Row(("skr", "--method", "random", "--trials", str(10**6)), None, 1,
        ("config error: 1000000 random designs of M=4, L=25 do not fit in memory",)),
    # a 27-GiB network, refused whatever the machine's RAM; train has made --out by then
    Row(("train",), "[system]\nm = 3000\n", 1,
        ("config error: training at M=3000, L=25, batch_size 100: the network and a step do not fit in memory",),
        out_dir=True),
    Row(("skr",), "[system]\nl_h = 30000\n", 1,
        ("config error: correlation matrices for M=4, L=150000 do not fit in memory",)),
    # without checkpoints a sweep trains inline; unlimited, M = 1000 ran into the OOM killer (exit 137)
    Row(("sweep",), "[sweep]\nvariable = m\nvalues = 1000\nmethods = pkg_net\n", 1,
        ("config error: training at M=1000, L=25, batch_size 100: the network and a step do not fit in memory",)),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds a process's memory only on Linux")
@pytest.mark.parametrize("row", _OVER_THE_ADDRESS_SPACE, ids=[row.id for row in _OVER_THE_ADDRESS_SPACE])
def test_cli_contract_in_a_real_process_under_an_address_space_limit(row, tmp_path):
    import resource

    def limit_address_space():  # in the child only; one BLAS thread, so its buffers do not grow with the cores
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_MIB * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))

    run = _real_process(tmp_path, env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit_address_space)
    check_contract(row, tmp_path, run)
