"""Spans around the public functions of each layer, installed from outside.

Each wrapper is bound at the name its caller looks up (a module attribute,
or a method on the class), so no package file changes. A span is
(repetition, id, parent id, name, start, end, rows); spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children, which never overlap because the
traced audit runs serially in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from regret_audit import estimators, harness, mechanisms, optimizer, rng


def _batch_rows(args) -> int:
    return len(args[1])  # (self, batch, ...)


#: (owner, attribute, span name, rows counter or None). Each attribute is the
#: name the caller looks up: harness and optimizer import functions by name,
#: rng is reached through the module, mechanisms through the class.
TARGETS = (
    (harness, "run_audit", "harness.run_audit", None),
    (harness, "sample_valuations", "sampling.sample_valuations", None),
    (harness, "exhaustive_regret", "estimators.exhaustive", None),
    (harness, "lower_bound_regret", "estimators.lower_bound", None),
    (harness, "item_wise_regret", "estimators.item_wise", None),
    (harness, "random_restart_pga", "optimizer.pga", None),
    (harness, "guided_refinement", "optimizer.guided", None),
    (harness, "write_report", "report.write", None),
    (estimators, "_scan_all_items", "estimators.scan", None),
    (optimizer, "_scan_all_items", "estimators.scan", None),
    (optimizer, "build_portfolio", "optimizer.build_portfolio", None),
    (optimizer, "fd_gradient_rows", "mechanisms.fd_gradient", None),
    (optimizer, "rows_to_profiles", "mechanisms.rows_to_profiles", None),
    (mechanisms, "rows_to_profiles", "mechanisms.rows_to_profiles", None),
    (rng, "spawn_generator", "rng.spawn", None),
    (mechanisms.Mechanism, "run_many", "mechanisms.run_many", _batch_rows),
    (mechanisms.NeuralMechanism, "utility_and_gradient_many", "mechanisms.grad", _batch_rows),
)

OPTIMIZER_SPANS = ("optimizer.pga", "optimizer.guided", "optimizer.build_portfolio")
SPAN_COLUMNS = ("rep", "id", "parent", "name", "start_s", "end_s", "rows")


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.reps = 0  # repetitions traced; each entry of the context starts one
        self._stack = []
        self._next_id = 0
        self._saved = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, name, rows_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.reps - 1, span_id, parent, name, start, end,
                              rows_of(args) if rows_of else 0))
        return traced

    def __enter__(self):
        self.reps += 1
        for owner, attr, name, rows_of in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, rows_of))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            for rep, span_id, parent, name, start, end, rows in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{rep},{span_id},{parent},{name},{start - self._origin:.9f},"
                         f"{end - self._origin:.9f},{rows}\n")


@contextlib.contextmanager
def count_pool_tasks():
    """Count the tasks the harness submits to its process pool, by rebinding
    ``harness.ProcessPoolExecutor``; yields a one-element list."""
    submitted = [0]
    base = harness.ProcessPoolExecutor

    class CountingPool(base):
        def submit(self, *args, **kwargs):
            submitted[0] += 1
            return super().submit(*args, **kwargs)

    harness.ProcessPoolExecutor = CountingPool
    try:
        yield submitted
    finally:
        harness.ProcessPoolExecutor = base


def aggregate(spans):
    """Per span name: calls, rows, total and self seconds, and the rows of
    every run_many call made beneath a span of that name."""
    by_id = {s[1]: s for s in spans}
    child_s = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    agg = defaultdict(lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0,
                               "run_many_rows_below": 0})
    for _, span_id, parent, name, start, end, rows in spans:
        entry = agg[name]
        entry["calls"] += 1
        entry["rows"] += rows
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[span_id]
        if name == "mechanisms.run_many":
            ancestors = set()
            while parent >= 0:
                ancestors.add(by_id[parent][3])
                parent = by_id[parent][2]
            for ancestor in ancestors:
                agg[ancestor]["run_many_rows_below"] += rows
    return agg


def neural_flops_per_row(n: int, m: int, hidden: int) -> int:
    """Computed flops of one utility_and_gradient_many row: two per
    multiply-add of the three affine layers and the two backward
    accumulations; element-wise work is not counted."""
    forward = n * m * hidden + hidden * (n + 1) * m + hidden * n
    backward = (n + 1) * m * hidden + hidden + hidden * m
    return 2 * (forward + backward)


def _ratio(num, den) -> float:
    """num / den, or 0 where a run traced nothing of that kind."""
    return num / den if den else 0.0


def layer_metrics(agg, reps: int, pairs: int, profiles: int, flops_per_row: int) -> dict:
    """Per-layer metrics of a traced run of ``reps`` identical repetitions.

    ``pairs`` (sample, bidder pairs) and ``profiles`` (records) are per
    repetition; ``*_frac`` is self time over audit wall time.
    """
    wall = agg["harness.run_audit"]["total_s"]

    def self_frac(*names):
        return _ratio(sum(agg[name]["self_s"] for name in names), wall)

    def per_call(name):
        return _ratio(agg[name]["rows"], agg[name]["calls"])

    def rate(rows, name):
        return _ratio(rows, agg[name]["total_s"])

    def per_bidder(count):
        return _ratio(count, reps * pairs)

    grad, run_many = agg["mechanisms.grad"], agg["mechanisms.run_many"]
    ascent_calls = grad["calls"] + agg["mechanisms.fd_gradient"]["calls"]
    return {
        "mechanisms.grad.rows_per_call": (per_call("mechanisms.grad"), "rows/call"),
        "mechanisms.grad.self_frac": (self_frac("mechanisms.grad"), "frac"),
        "mechanisms.grad.rows_per_s": (rate(grad["rows"], "mechanisms.grad"), "rows/s"),
        "mechanisms.grad.flops_per_row": (flops_per_row if grad["calls"] else 0, "flop/row"),
        "mechanisms.run_many.self_frac": (self_frac("mechanisms.run_many"), "frac"),
        "mechanisms.run_many.rows_per_s": (rate(run_many["rows"], "mechanisms.run_many"), "rows/s"),
        "mechanisms.run_many.rows_per_call": (per_call("mechanisms.run_many"), "rows/call"),
        "mechanisms.rows_to_profiles.self_frac": (self_frac("mechanisms.rows_to_profiles"), "frac"),
        "mechanisms.fd_gradient.self_frac": (self_frac("mechanisms.fd_gradient"), "frac"),
        "mechanisms.evals_per_profile": (_ratio(grad["rows"] + run_many["rows"], reps * profiles),
                                         "evals/profile"),
        "optimizer.ascent_calls_per_bidder": (per_bidder(ascent_calls), "calls/bidder"),
        "optimizer.self_frac": (self_frac(*OPTIMIZER_SPANS), "frac"),
        "estimators.scan_passes_per_bidder": (per_bidder(agg["estimators.scan"]["calls"]),
                                              "scans/bidder"),
        "estimators.scan.self_frac": (self_frac("estimators.scan"), "frac"),
        "estimators.exhaustive.self_frac": (self_frac("estimators.exhaustive"), "frac"),
        "estimators.exhaustive.rows_per_s": (
            rate(agg["estimators.exhaustive"]["run_many_rows_below"], "estimators.exhaustive"),
            "rows/s"),
        "rng.spawn.calls_per_bidder": (per_bidder(agg["rng.spawn"]["calls"]), "calls/bidder"),
        "rng.spawn.self_frac": (self_frac("rng.spawn"), "frac"),
        "sampling.self_frac": (self_frac("sampling.sample_valuations"), "frac"),
        "harness.self_frac": (self_frac("harness.run_audit"), "frac"),
        "report.write_s": (_ratio(agg["report.write"]["total_s"], reps), "s"),
    }
