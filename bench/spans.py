"""Span recorder for the traced benchmark run.

The recorder rebinds the public functions of the irskey modules to timing
wrappers for the duration of one ``installed()`` block and puts the original
objects back afterwards; nothing under ``src/`` is edited. Spans stay in
memory as ``[name, start, end, parent, nbytes, thread]`` lists and are
aggregated or written out after the traced operation.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

MODULES = ("channel", "probing", "skr", "baseline", "neural", "experiments", "cli")

# Bytes a call materializes, computed from its arguments (labelled "computed":
# cache traffic is not measured). The cascade covariance is a dense float64
# matrix of side M(L+1).
_BYTES = {
    "channel.cascade_covariance": lambda stats: 8 * (stats.M * (stats.L + 1)) ** 2,
}

NAME, START, END, PARENT, NBYTES, THREAD = range(6)


def traced_functions():
    """(span name, original) for each public function of the traced modules.

    Also covers ``brentq`` as the baseline module sees it, so root-finder
    calls are counted whichever library provides the function.
    """
    found = []
    for mod in MODULES:
        module = sys.modules[f"irskey.{mod}"]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                found.append((f"{mod}.{attr}", obj))
    brentq = getattr(sys.modules["irskey.baseline"], "brentq", None)
    if brentq is not None:
        found.append(("baseline.brentq", brentq))
    return found


def irskey_modules():
    return [m for name, m in list(sys.modules.items()) if name == "irskey" or name.startswith("irskey.")]


class Recorder:
    """Collects spans from every thread; one parent stack per thread.

    A thread whose own stack is empty (a ``run_sweep`` pool worker) adopts the
    innermost open span of the thread that entered ``installed()``, so pool
    work nests under the call that submitted it.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.epoch_seconds: list = []
        self._local = threading.local()
        self._owner: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` wrapped to record one span named ``name`` per call."""
        spans = self.spans
        stack_of = self._stack
        nbytes_of = _BYTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                outer = self._owner
                parent = outer[-1] if outer else None
            span = [name, clock(), 0.0, parent, 0, threading.get_ident()]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if nbytes_of is not None:
                span[NBYTES] = nbytes_of(*args, **kwargs)
            return result

        return traced

    def _wrap_train(self, fn):
        traced = self.wrap("neural.train", fn)
        epochs = self.epoch_seconds

        def train(train_config, system, progress=None):
            if progress is None:
                return traced(train_config, system)
            inner = progress

            def progress(epoch, mean_loss_bits, wall_seconds):
                epochs.append(wall_seconds)
                inner(epoch, mean_loss_bits, wall_seconds)

            return traced(train_config, system, progress=progress)

        return train

    def _wrap_make_stats_provider(self, fn):
        traced = self.wrap("neural.make_stats_provider", fn)
        wrap = self.wrap

        def make_stats_provider(system):
            return wrap("neural.stats_provider", traced(system))

        return make_stats_provider

    def _wrapper(self, name: str, fn):
        if name == "neural.train":
            return self._wrap_train(fn)
        if name == "neural.make_stats_provider":
            return self._wrap_make_stats_provider(fn)
        return self.wrap(name, fn)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every irskey namespace holding it."""
        replacement = {id(fn): self._wrapper(name, fn) for name, fn in traced_functions()}
        patched = []
        try:
            for module in irskey_modules():
                for attr, value in list(vars(module).items()):
                    wrapped = replacement.get(id(value))
                    if wrapped is not None:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrapped)
            self._owner = self._stack()
            yield self
        finally:
            self._owner = []
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.epoch_seconds.clear()


def covered(interval: tuple, children: list) -> float:
    """Length of the union of ``children`` intervals clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the time its children cover.

    Children on pool threads can overlap each other, so coverage is the union
    of their intervals, not the sum of their durations.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered((span[START], span[END]), children.get(id(span), []))
        for span in spans
    ]


def summarize(spans: list, epoch_seconds: list) -> dict:
    """Per-layer numbers for one traced operation.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.bytes`` for every span
    name, ``neural.epoch_s`` (median epoch wall time reported through the
    training progress callback) and ``experiments.point_queue_wait_s`` (sum
    over sweep points of the time from ``run_sweep`` entry to the point's
    first ``channel_statistics`` call).
    """
    out: dict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name}.bytes"] += span[NBYTES]
    wait = 0.0
    for span in spans:
        parent = span[PARENT]
        if (
            span[NAME] == "channel.channel_statistics"
            and parent is not None
            and parent[NAME] == "experiments.run_sweep"
        ):
            wait += span[START] - parent[START]
    out["experiments.point_queue_wait_s"] = wait
    if epoch_seconds:
        out["neural.epoch_s"] = statistics.median(epoch_seconds)
    return dict(out)


def write_spans(path: str, spans: list) -> None:
    """One JSON array per span: name, start, end, parent line index, bytes, thread number."""
    index = {id(span): i for i, span in enumerate(spans)}
    threads: dict = {}
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            parent = span[PARENT]
            row = [
                span[NAME],
                span[START],
                span[END],
                None if parent is None else index.get(id(parent)),
                span[NBYTES],
                threads.setdefault(span[THREAD], len(threads)),
            ]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
