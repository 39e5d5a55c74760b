"""Tests for the benchmark's own code: oracle, span arithmetic, tracing, checks.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import irskey  # noqa: E402
import irskey.cli  # noqa: E402
from irskey import SystemConfig, baseline_design, channel_statistics, skr_closed_form  # noqa: E402
from irskey import experiments  # noqa: E402
from irskey.experiments import SweepSpec, random_design  # noqa: E402

from oracle import gaussian_mi_bits  # noqa: E402
from spans import END, NAME, PARENT, START, Recorder, covered, irskey_modules, self_times, summarize  # noqa: E402
from workloads import ORACLE_RTOL, McCheck  # noqa: E402


@pytest.mark.parametrize("m, side", [(2, 2), (4, 5), (8, 4), (8, 8), (8, 12)])
def test_oracle_matches_closed_form_on_baseline_designs(m, side):
    system = SystemConfig(M=m, L_h=side, L_v=side)
    stats = channel_statistics(system)
    design = baseline_design(system, stats)
    exact = skr_closed_form(design, stats, system.power_b, system.noise).bits
    oracle = gaussian_mi_bits(design.precoder, design.phases, stats, system.power_b, system.noise)
    assert abs(oracle - exact) <= ORACLE_RTOL * abs(exact)


def test_oracle_matches_closed_form_on_random_designs():
    system = SystemConfig(M=4, L_h=5, L_v=5)
    stats = channel_statistics(system)
    rng = np.random.default_rng(7)
    for _ in range(5):
        design = random_design(system, rng)
        exact = skr_closed_form(design, stats, system.power_b, system.noise).bits
        oracle = gaussian_mi_bits(design.precoder, design.phases, stats, system.power_b, system.noise)
        assert abs(oracle - exact) <= ORACLE_RTOL * abs(exact)


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_union_of_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)  # overlaps a, as pool threads do
    leaf = _span("leaf", 2.0, 3.0, a)
    late = _span("late", 9.0, 12.0, root)  # runs past its parent: clipped
    spans = [leaf, a, b, late, root]
    assert self_times(spans) == pytest.approx([1.0, 2.0, 3.0, 3.0, 4.0])
    assert covered((0.0, 10.0), []) == 0.0


def test_summarize_counts_and_queue_wait():
    sweep = _span("experiments.run_sweep", 0.0, 5.0)
    p0 = _span("channel.channel_statistics", 0.5, 1.0, sweep)
    p1 = _span("channel.channel_statistics", 2.0, 2.5, sweep)
    out = summarize([p0, p1, sweep], [0.2, 0.1, 0.4])
    assert out["channel.channel_statistics.calls"] == 2
    assert out["channel.channel_statistics.self_s"] == pytest.approx(1.0)
    assert out["experiments.run_sweep.self_s"] == pytest.approx(4.0)
    assert out["experiments.point_queue_wait_s"] == pytest.approx(2.5)
    assert out["neural.epoch_s"] == pytest.approx(0.2)


def _namespace_snapshot():
    return {(m.__name__, k): v for m in irskey_modules() for k, v in vars(m).items()}


def _assert_restored(before):
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_traced_cli_call_records_nested_spans_and_restores(tmp_path):
    before = _namespace_snapshot()
    recorder = Recorder()
    with recorder.installed():
        assert irskey.skr_closed_form is not before[("irskey", "skr_closed_form")]
        code = irskey.cli.main(["baseline", "--out", str(tmp_path)])
    assert code == 0
    _assert_restored(before)
    names = [s[NAME] for s in recorder.spans]
    assert names.count("cli.main") == 1
    assert names.count("baseline.baseline_design") == 1
    assert names.count("baseline.brentq") > 0
    cascade = next(s for s in recorder.spans if s[NAME] == "channel.cascade_covariance")
    ancestors = []
    node = cascade[PARENT]
    while node is not None:
        ancestors.append(node[NAME])
        node = node[PARENT]
    assert ancestors[-3:] == ["skr.skr_closed_form", "cli.run", "cli.main"]
    layers = summarize(recorder.spans, recorder.epoch_seconds)
    assert layers["channel.cascade_covariance.bytes"] == 8 * (4 * 26) ** 2


def test_pool_threads_nest_under_run_sweep():
    spec = SweepSpec(variable="l", values=(4, 9, 16), methods=("baseline",), trials=1)
    before = _namespace_snapshot()
    recorder = Recorder()
    with recorder.installed():
        experiments.run_sweep(spec, SystemConfig(M=2), max_workers=2)
    _assert_restored(before)
    sweep = [s for s in recorder.spans if s[NAME] == "experiments.run_sweep"]
    assert len(sweep) == 1
    stats_calls = [s for s in recorder.spans if s[NAME] == "channel.channel_statistics"]
    assert len(stats_calls) == 3
    assert all(s[PARENT] is sweep[0] for s in stats_calls)
    assert all(sweep[0][START] <= s[START] and s[END] <= sweep[0][END] for s in stats_calls)


def test_foreign_thread_without_open_span_is_a_root():
    recorder = Recorder()
    fn = recorder.wrap("x", lambda: None)
    worker = threading.Thread(target=fn)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert recorder.spans[0][PARENT] is None


def test_restore_after_exception():
    before = _namespace_snapshot()
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.installed():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_mc_check_output_check(tmp_path):
    workload = McCheck(str(tmp_path), seed=0)
    system = workload.system
    stats = channel_statistics(system)
    design = baseline_design(system, stats)
    exact = skr_closed_form(design, stats, system.power_b, system.noise).bits

    def check(closed, mc, se):
        report = {"closed_form_bits": closed, "monte_carlo_bits": mc, "std_error": se, "n_samples": 200_000}
        (tmp_path / "mc_check.json").write_text(json.dumps(report))
        return workload.check(str(tmp_path))

    assert check(exact, exact + 0.01, 0.01) == []
    assert len(check(exact * (1 + 1e-7), exact, 0.01)) == 1
    assert len(check(exact, exact + 0.1, 0.01)) == 1
    assert len(check(exact, float("nan"), 0.01)) == 1
