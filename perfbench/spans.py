"""Call accounting and tracing around the package's public functions.

Every public call a workload makes goes through a `Calls` wrapper.  The
wrapper always counts attempts and failures.  With tracing off it marks each
call's start and end on the `SpeedClock`, if one runs.  With tracing on it
records one span per call (name, parent, start, end, probe flag, wrapper
time) and, after the span has ended, the work counts that the call's inputs
and outputs imply.  Spans stay in memory.  Self time is a span's duration
minus that of its direct children and minus the wrapper's own time around
them, so the cost of tracing a child is not charged to its parent.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


# every public call a workload makes, as <module>.<function>
PUBLIC = (
    "statespace.validate",
    "lifting.lift_matrix",
    "koopman.fit",
    "koopman.accumulate",
    "koopman.solve_koopman",
    "koopman.rollout",
    "koopman.prediction_errors",
    "controller.supervision",
    "controller.train",
    "controller.loss",
    "controller.forward",
    "envs.execute_policy",
    "envs.generate_demos",
    "envs.reset",
    "metrics.evaluate_success",
    "persist.save_demos",
    "persist.load_demos",
    "persist.save_model",
    "persist.load_model",
    "persist.save_controller",
    "persist.load_controller",
)


def _bound(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _pairs(demos) -> int:
    return sum(traj.horizon - 1 for traj in demos.trajectories)


def _states(demos) -> int:
    return sum(traj.horizon for traj in demos.trajectories)


def _count_fit(counts, a, model):
    counts["koopman.fit.calls"] += 1
    counts["koopman.fit.pairs"] += model.fit_meta.n_pairs
    # p and rank describe the widest fit of the segment (first one on ties)
    if model.K.shape[0] > counts["koopman.fit.p"]:
        counts["koopman.fit.p"] = model.K.shape[0]
        counts["koopman.fit.rank"] = model.fit_meta.rank


def _count_accumulate(counts, a, acc):
    # two (p x pairs) @ (pairs x p) products per trajectory, 2 flops per
    # multiply-add; computed from array sizes, not measured
    p = acc.A.shape[0]
    counts["koopman.accumulate.flops_computed"] += 4 * p * p * acc.pair_count


def _count_train(counts, a, result):
    cfg = a["config"]
    P = _pairs(a["demos"])
    sweep = cfg.batch is not None and cfg.batch < P
    counts["controller.train.iterations"] += cfg.iterations
    counts["controller.train.updates"] += cfg.iterations * (math.ceil(P / cfg.batch) if sweep else 1)
    # each iteration runs forward + backward over all P rows for the loss
    # history, then again over all P rows in minibatches; computed
    counts["controller.train.rows"] += cfg.iterations * P * (2 if sweep else 1)


def _count_save_demos(counts, a, manifest):
    counts["persist.save_demos.bytes"] += sum(f.stat().st_size for f in Path(manifest).parent.iterdir())


# name -> hook(counts, bound arguments, result); runs after the span ends
COUNT_HOOKS = {
    "statespace.validate": lambda c, a, r: c.update({"statespace.validate.states": _states(a["demos"])}),
    "lifting.lift_matrix": lambda c, a, r: c.update({"lifting.lift_matrix.rows": r.shape[0]}),
    "koopman.fit": _count_fit,
    "koopman.accumulate": _count_accumulate,
    "koopman.rollout": lambda c, a, r: c.update({"koopman.rollout.steps": a["horizon"]}),
    "controller.train": _count_train,
    "envs.execute_policy": lambda c, a, r: c.update(
        {"envs.execute_policy.calls": 1, "envs.execute_policy.steps": a["horizon"] - 1}
    ),
    "envs.generate_demos": lambda c, a, r: c.update(
        {"envs.generate_demos.steps": a["n_demos"] * (a["horizon"] - 1)}
    ),
    "persist.save_demos": _count_save_demos,
    "persist.load_demos": lambda c, a, r: c.update({"persist.load_demos.rows": _states(r)}),
    "persist.save_model": lambda c, a, r: c.update({"persist.artifact.bytes": Path(r).stat().st_size}),
    "persist.save_controller": lambda c, a, r: c.update({"persist.artifact.bytes": Path(r).stat().st_size}),
}

# name -> the count one call adds 1 to; these need no arguments
PER_CALL = {
    "controller.forward": "controller.forward.calls",
    "envs.reset": "envs.reset.calls",
    "metrics.evaluate_success": "metrics.evaluate_success.calls",
}

# every count the hooks and PER_CALL record, with its unit
COUNTS = (
    ("statespace.validate.states", "count"),
    ("lifting.lift_matrix.rows", "count"),
    ("koopman.fit.calls", "count"),
    ("koopman.fit.pairs", "count"),
    ("koopman.fit.p", "count"),
    ("koopman.fit.rank", "count"),
    ("koopman.accumulate.flops_computed", "flop"),
    ("koopman.rollout.steps", "count"),
    ("controller.train.iterations", "count"),
    ("controller.train.updates", "count"),
    ("controller.train.rows", "count"),
    ("controller.forward.calls", "count"),
    ("envs.execute_policy.calls", "count"),
    ("envs.execute_policy.steps", "count"),
    ("envs.generate_demos.steps", "count"),
    ("envs.reset.calls", "count"),
    ("metrics.evaluate_success.calls", "count"),
    ("persist.save_demos.bytes", "bytes"),
    ("persist.load_demos.rows", "count"),
    ("persist.artifact.bytes", "bytes"),
)
# counts derived from array sizes rather than observed events
COMPUTED = ("koopman.accumulate.flops_computed", "controller.train.updates", "controller.train.rows")
# model.json stores fit_meta.wall_time_s, so its size varies by the few bytes
# that the digits of a wall time take; every other count repeats exactly
VARYING = ("persist.artifact.bytes",)
_WIDEST = ("koopman.fit.p", "koopman.fit.rank")


def repeatable(counts) -> dict:
    """The counts that must be equal between runs of the same inputs."""
    return {key: value for key, value in counts.items() if key not in VARYING}


def merge_counts(a: Counter, b: Counter) -> Counter:
    """Counts of two segments together: sums, except p and rank of the widest fit."""
    out = Counter(a)
    for key, value in b.items():
        if key not in _WIDEST:
            out[key] += value
    if b["koopman.fit.p"] > a["koopman.fit.p"]:
        for key in _WIDEST:
            out[key] = b[key]
    return out


class Calls:
    """Wraps public functions; counts every call and, when tracing, spans it."""

    def __init__(self):
        self.tracing = False
        self.probing = False
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        # [name, parent index, start, end, probe, wrapper seconds outside start..end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # current segment, see `segment`
        self.clock = None  # a SpeedClock while an untraced block is timed
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        per_call = PER_CALL.get(name)
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            self.attempted[name] += 1
            if not self.tracing:
                if self.clock is not None:
                    self.clock.boundary()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    self.failed[name] += 1
                    raise
                finally:
                    if self.clock is not None:
                        self.clock.boundary()
            enter = time.perf_counter()
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, None, None, self.probing, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, _bound(signature, args, kwargs), result)
            if per_call is not None:
                self.counts[per_call] += 1
            span[5] = (span[2] - enter) + (time.perf_counter() - span[3])
            return result

        return call

    @contextmanager
    def traced(self):
        self.tracing = True
        try:
            yield
        finally:
            self.tracing = False

    @contextmanager
    def probe(self):
        """Calls made here repeat work the workload did inside other calls."""
        self.probing = True
        try:
            yield
        finally:
            self.probing = False

    @contextmanager
    def segment(self, out: list):
        """Append (spans, index of the first, counts) of the calls made inside the block."""
        first = len(self.spans)
        self.counts = Counter()
        try:
            yield
        finally:
            out.append((self.spans[first:], first, self.counts))

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def self_times(spans: list[list], first: int) -> tuple[dict[str, float], set[str]]:
    """Self time per function over one segment, and the names seen only as probes."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, probe, wrapper in spans:
        if parent is not None and parent >= first:
            child_time[parent - first] += end - start + wrapper
    busy: dict[str, float] = {}
    direct, probed = set(), set()
    for k, (name, parent, start, end, probe, wrapper) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + (end - start) - child_time[k]
        (probed if probe else direct).add(name)
    return busy, probed - direct


def layer_busy(setup_seg, pass_segs) -> tuple[dict[str, float], set[str]]:
    """Setup self time plus the median over traced passes, per function."""
    busy, probes = self_times(*setup_seg[:2])
    per_pass = [self_times(spans, first) for spans, first, _ in pass_segs]
    names = set().union(*(b for b, _ in per_pass)) if per_pass else set()
    for name in names:
        busy[name] = busy.get(name, 0.0) + statistics.median(b.get(name, 0.0) for b, _ in per_pass)
    for _, p in per_pass:
        probes |= p
    return busy, probes
