"""Span tracing by rebinding poselift's public functions from outside the package.

A traced call records one span: name, start, end, parent span and an
optional amount of work (bytes, flops, capsules).  Spans live in memory
and are written out when the benchmark ends.  Nothing under ``src/``
changes: :func:`install` replaces module attributes with timing wrappers
and the returned function puts the originals back.

Names a module imports directly (``from .depth import read_depth_at``)
are rebound in the importing module, since rebinding the defining
module would not reach calls made through the imported name.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np


class Tracer:
    """Records nested spans; each span is [name, start, end, parent, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, work=None):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if work is not None:
            span[4] = float(work(args, kwargs, result))
        return result

    def to_jsonable(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "work": w}
            for n, s, e, p, w in self.spans
        ]


def _adam_bytes(args, kwargs, result) -> float:
    # Reads params, grads, m, v; writes params, m, v: seven float64 arrays.
    return 7 * 8 * sum(p.size for p in args[0].values())


def _forward_name(args, kwargs) -> str:
    return "nn.forward_train" if kwargs.get("train", args[3] if len(args) > 3 else False) else "nn.forward_eval"


def _forward_flops(args, kwargs, result) -> float:
    config, x = args[1], np.asarray(args[2])
    rows = 1 if x.ndim == 1 else x.shape[0]
    h = config.hidden_dim
    macs = config.input_dim * h + 2 * config.num_blocks * h * h + h * config.output_dim
    return 2.0 * rows * macs


def _capsules(args, kwargs, result) -> float:
    poses, spec = args[0], args[4]
    return len(poses) * len(spec.bones())


def _file_bytes(args, kwargs, result) -> float:
    return os.path.getsize(args[0])


def install(tracer: Tracer):
    """Rebind every traced function; returns a callable that restores them."""
    from poselift import data, depth, metrics, nn, pipeline, synth

    targets = [
        (nn, "adam_step", "nn.adam_step", _adam_bytes),
        (nn, "forward", _forward_name, _forward_flops),
        (nn, "backward", "nn.backward", None),
        (pipeline, "train", "pipeline.train", None),
        (pipeline, "build_inputs", "pipeline.build_inputs", None),
        (pipeline, "zoom_augment", "pipeline.zoom_augment", None),
        (pipeline, "predicted_joint_depths", "pipeline.predicted_joint_depths", None),
        (pipeline, "joint_depth_backward", "pipeline.joint_depth_backward", None),
        (pipeline, "total_loss", "losses.total_loss", None),
        (pipeline, "predict_frames", "pipeline.predict_frames", None),
        (pipeline, "predict_pose", "pipeline.predict_pose", None),
        (pipeline, "save_bundle", "pipeline.save_bundle", _file_bytes),
        (pipeline, "load_bundle", "pipeline.load_bundle", _file_bytes),
        (synth, "generate_dataset", "synth.generate_dataset", None),
        (synth, "generate_pose", "synth.generate_pose", None),
        (synth, "render_depth", "synth.render_depth", None),
        (synth, "render_clean_depth", "synth.render_clean_depth", _capsules),
        (synth, "read_depth_at", "depth.read_depth_at", None),
        (data, "read_depth_at", "depth.read_depth_at", None),
        (data, "load_depth", "depth.load_depth", None),
        (depth, "save_depth", "depth.save_depth", None),
        (data, "write_pose_file", "data.write_pose_file", None),
        (data, "read_pose_file", "data.read_pose_file", None),
        (data.Sample, "ensure_readouts", "data.ensure_readouts", None),
        (metrics, "match_poses", "metrics.match_poses", None),
        (metrics, "evaluate", "metrics.evaluate", None),
    ]
    originals = []
    for owner, attr, name, work in targets:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, fn, name, work))

    def restore() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


def _wrap(tracer: Tracer, fn, name, work):
    if callable(name):
        def traced(*args, **kwargs):
            return tracer.call(name(args, kwargs), fn, args, kwargs, work)
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, work)
    traced.__wrapped__ = fn
    return traced


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Measured extra cost of one traced call over a direct call.

    Times a no-op both ways; the median over repeats times the span
    count estimates the tracing overhead of a run far more steadily than
    the difference of a traced and an untraced run would.
    """
    def noop():
        return None

    traced = _wrap(Tracer(), noop, "noop", None)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        direct = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - start - direct) / calls)
    return max(float(np.median(costs)), 0.0)


TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail_level(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; 100 (the
    maximum) when there are too few samples for any."""
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10.0:
            return level
    return 100.0


class SpanStats:
    """Per-name durations, self times and work, derived from a span list."""

    def __init__(self, spans: list[list], wall_s: float) -> None:
        self.wall_s = wall_s
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.work: dict[str, float] = {}
        for i, (name, start, end, parent, work) in enumerate(spans):
            self.durations.setdefault(name, []).append(end - start)
            self.self_times.setdefault(name, []).append(end - start - child_time[i])
            self.work[name] = self.work.get(name, 0.0) + work
        self.root_time = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        self.self_total = sum(sum(v) for v in self.self_times.values())

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, []))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, [])))

    def self_total_of(self, name: str) -> float:
        return float(sum(self.self_times.get(name, [])))

    def percentile(self, name: str, q: float, self_time: bool = False) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        if not values:
            return math.nan
        return float(np.percentile(values, q))

    @property
    def untraced_s(self) -> float:
        """Wall time outside every root span: the harness's own work."""
        return self.wall_s - self.root_time
