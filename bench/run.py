"""irskey benchmark: CLI workloads timed end to end, or traced layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep-l,train,mc-check} --seed N --seconds S --trace {0,1}

Each run starts fresh workload processes (``worker.py``) that import
``irskey.cli`` from ``src/`` and call ``irskey.cli.main`` in a closed loop.
The metric names and units come from ``BENCHMARK.json``. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` the per-layer ones,
from calls that alternate with untraced calls. Times are scaled to a nominal
host speed (see ``reference.py``). Human-readable lines come first; the last
stdout line is the JSON result. Run details, raw times, the environment and
the spans of the last traced call go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh set-up-only processes per run; setup_s is their median
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _launch(root: str, args, timeout: float, setup_only: bool = False, spans_out: str | None = None):
    """Run one worker; returns (seconds from launch to ready, result payload or None)."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--root", root, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if not ready.strip() or json.loads(ready).get("event") != "ready":
        raise BenchError(f"worker did not report set-up: {ready!r}")
    if setup_only:
        return setup, None
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("event") != "result":
        raise BenchError("worker printed no result")
    return setup, result


def end_to_end(result: dict, setups: list) -> dict:
    return {
        "setup_s": median(setups),
        "work_per_s": result["items_per_op"] / median([op["scaled_s"] for op in result["ops"]]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, names: list) -> dict:
    """Per-call averages over the traced calls, plus the two run-level ratios."""
    plain = [op for op in result["ops"] if not op["traced"]]
    traced = [op for op in result["ops"] if op["traced"]]
    layers = result["layers"]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = median([op["scaled_s"] for op in traced]) / median([op["scaled_s"] for op in plain]) - 1.0
        elif name == "proc.cpu_util":
            out[name] = median([op["cpu_s"] / op["wall_s"] for op in plain])
        else:
            out[name] = sum(layer.get(name, 0.0) for layer in layers) / len(layers)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "irskey", "cli.py")):
        print(f"{root} holds no irskey sources (src/irskey/cli.py); run from a checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_before = os.getloadavg()
    try:
        setups, raw_setups = [], []
        if not args.trace:
            start_before = reference.start_seconds()
            for _ in range(SETUP_SAMPLES):
                raw = _launch(root, args, deadline - time.monotonic(), setup_only=True)[0]
                start_after = reference.start_seconds()
                raw_setups.append(raw)
                setups.append(reference.scaled(raw, start_before, start_after, reference.START_NOMINAL_S))
                start_before = start_after
        spans_out = os.path.join(out_dir, f"{tag}-spans.jsonl") if args.trace else None
        _, result = _launch(root, args, deadline - time.monotonic(), spans_out=spans_out)
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    names = [m["name"] for m in wanted]
    values = per_layer(result, names) if args.trace else end_to_end(result, setups)
    missing = [n for n in names if n not in values]
    if missing:
        print(f"BENCHMARK.json names metrics this script does not measure: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    ops = result["ops"]
    failed = sum(1 for op in ops if op["errors"])
    walls = sorted(op["wall_s"] for op in ops if not op["traced"])
    speed = median([op["wall_s"] / op["scaled_s"] for op in ops])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loadavg_1m_before": load_before[0], "loadavg_1m_after": load_after[0],
        "host_slowdown": speed, "setup_raw_s": raw_setups, "setup_scaled_s": setups,
        "env": result["env"], "ops": ops, "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed; "
          f"untraced op wall s min/median/max {walls[0]:.4f}/{median(walls):.4f}/{walls[-1]:.4f}; "
          f"unscaled {result['item']}_per_s {result['items_per_op'] / median(walls):.6g}")
    print(f"host slowdown {speed:.3f} (reference loop time / {reference.LOOP_NOMINAL_S} s, median over ops)")
    print(f"load average 1m before/after {load_before[0]:.2f}/{load_after[0]:.2f}; "
          f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"failed_frac {failed / len(ops):.4f} frac")
    for name, metric in metrics.items():
        alias = f"  ({result['item']}_per_s)" if name == "work_per_s" else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{alias}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
