"""One fresh workload process: set up, run timed CLI operations, check them.

Started by ``run.py``; not meant to be run by hand. It talks to its parent
through JSON lines on stdout: ``{"event": "ready"}`` once ``irskey.cli`` is
imported and the inputs are written (the end of set-up), then one
``{"event": "result", ...}`` line. The CLI's own printing is discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

import reference
from spans import Recorder, summarize, write_spans

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    """Interpreter, library and BLAS versions, CPU count and BLAS thread settings."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
        if key in deps
    }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def _call(cli, argv: list) -> tuple:
    """One timed CLI call; returns (wall_s, cpu_s, errors)."""
    start_cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        errors = [] if code == 0 else [f"exit code {code}"]
    except Exception:  # a traceback out of the CLI is a failed operation
        errors = [traceback.format_exc(limit=5)]
    return time.perf_counter() - start, time.process_time() - start_cpu, errors


def _check(workload, out_dir: str) -> list:
    try:
        return workload.check(out_dir)
    except Exception:  # unreadable or malformed output fails the check
        return [traceback.format_exc(limit=5)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import irskey.cli as cli

    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"irskey was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = os.path.join(args.root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        _emit({"event": "ready"})
        if args.setup_only:
            return 0
        return _measure(cli, workload, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(cli, workload, workdir: str, args) -> int:
    """Closed loop, one client: the next call starts when the previous one is checked.

    With ``--trace 1`` calls alternate untraced/traced so the tracing overhead
    is measured under the same conditions; at least one of each runs.
    """
    recorder = Recorder()
    ops = []
    layers = []
    last_spans = []
    busy = 0.0
    loop_before = reference.loop_seconds()
    while busy < args.seconds or len(ops) < (2 if args.trace else 1):
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        out_dir = os.path.join(workdir, f"op{index}")
        if traced:
            recorder.reset()
            with recorder.installed():
                wall, cpu, errors = _call(cli, workload.argv(out_dir))
            layers.append(summarize(recorder.spans, recorder.epoch_seconds))
            last_spans = list(recorder.spans)
        else:
            wall, cpu, errors = _call(cli, workload.argv(out_dir))
        if not errors:
            errors = _check(workload, out_dir)
        loop_after = reference.loop_seconds()
        shutil.rmtree(out_dir, ignore_errors=True)
        busy += wall
        ops.append(
            {
                "wall_s": wall,
                "scaled_s": reference.scaled(wall, loop_before, loop_after, reference.LOOP_NOMINAL_S),
                "cpu_s": cpu,
                "traced": traced,
                "errors": errors,
            }
        )
        loop_before = loop_after
        for err in errors[:3]:
            print(f"[{workload.name} op {index}] {err}", file=sys.stderr)
    if args.spans_out and last_spans:
        write_spans(args.spans_out, last_spans)
    _emit(
        {
            "event": "result",
            "items_per_op": workload.items_per_op,
            "item": workload.item,
            "ops": ops,
            "layers": layers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
