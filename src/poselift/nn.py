"""A small fully connected residual network with hand-written backprop.

The architecture is fixed up to widths: an input projection, a stack of
residual blocks (linear -> LayerNorm -> dropout -> ReLU, twice, plus an
identity skip) and an output projection.  Everything runs in float64 so
analytic gradients can be checked against central finite differences.

Inputs are batched row vectors of shape (B, d).  A network's parameters,
its gradients and each Adam moment are one float64 vector apiece, laid
out by :func:`param_shapes`; :class:`ParamVector` names the views into it.
The caller owns the gradient buffer: :func:`backward` writes into it, so
a trainer allocates one per network and reuses it on every step.

:func:`adam_step` updates a network in one pass of the ``adam_update``
loop of :mod:`poselift.compiled`, built with ``cc`` on first use in a
process and called through ctypes, which releases the interpreter lock
so two updates, or the two element ranges of one, can run on two
threads at once.  :func:`pair` decides where: a process has at most one
worker thread, started by its first paired call that
:func:`_side_by_side` lets run there.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import compiled
from .checks import check_fields, finite, fits, type_rules

LN_EPS = 1e-10
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    output_dim: int
    hidden_dim: int = 1024
    num_blocks: int = 2
    dropout: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self, type_rules(self))
        check_fields(self, (
            ("input_dim", self.input_dim > 0, "positive"),
            ("output_dim", self.output_dim > 0, "positive"),
            ("hidden_dim", self.hidden_dim > 0, "positive"),
            ("num_blocks", self.num_blocks >= 0, ">= 0"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
        ))


def param_shapes(config: MlpConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in storage and initialization order."""
    h = config.hidden_dim
    shapes = {"fc_in.w": (h, config.input_dim), "fc_in.b": (h,)}
    for i in range(config.num_blocks):
        for half in ("1", "2"):
            shapes[f"block{i}.fc{half}.w"] = (h, h)
            shapes[f"block{i}.fc{half}.b"] = (h,)
            shapes[f"block{i}.ln{half}.g"] = (h,)
            shapes[f"block{i}.ln{half}.b"] = (h,)
    shapes["fc_out.w"] = (config.output_dim, h)
    shapes["fc_out.b"] = (config.output_dim,)
    return shapes


class ParamVector(dict):
    """Name -> views into one float64 vector ``flat`` (zeros by default).
    Write through the views: rebinding a name detaches it from ``flat``."""

    def __init__(self, config: MlpConfig, flat: np.ndarray | None = None) -> None:
        shapes = param_shapes(config)
        size = sum(math.prod(shape) for shape in shapes.values())
        self.flat = np.zeros(size) if flat is None else flat
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"layout needs {size} float64 values, got {self.flat.shape} {self.flat.dtype}")
        offset = 0
        for name, shape in shapes.items():
            self[name] = self.flat[offset : offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)


def init_params(config: MlpConfig, rng: np.random.Generator) -> ParamVector:
    """Kaiming-uniform weights (fan-in) drawn in layout order, zero biases, unit LayerNorm gains."""
    params = ParamVector(config)
    for name, p in params.items():
        if name.endswith(".w"):
            bound = np.sqrt(6.0 / p.shape[1])
            p[...] = rng.uniform(-bound, bound, size=p.shape)
        elif name.endswith(".g"):
            p[...] = 1.0
    return params


def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w.T + b


def _linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray, dw=None, db=None):
    """Returns (dx, dw, db); dw and db are written into the given arrays if any."""
    dw = np.matmul(dy.T, x, out=dw)
    db = dy.sum(axis=0, out=db)
    dx = dy @ w
    return dx, dw, db


def _layernorm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # Each row is centred once; the variance is numpy's own ``var`` steps
    # on the centred rows, so the bits equal ``x.var(axis=1)``'s.
    xhat = x - x.mean(axis=1, keepdims=True)
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / x.shape[1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = g * xhat
    out += b
    return out, (xhat, inv)


def _layernorm_backward(dy: np.ndarray, cache, g: np.ndarray, dg=None, db=None):
    """Returns (dx, dg, db); dg and db are written into the given arrays if any."""
    xhat, inv = cache
    d = xhat.shape[1]
    dxhat = dy * g
    dg = (dy * xhat).sum(axis=0, out=dg)
    db = dy.sum(axis=0, out=db)
    # Standard LayerNorm gradient with the mean and variance terms folded in.
    dx = inv / d * (d * dxhat - dxhat.sum(axis=1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
    return dx, dg, db


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) >= rate).astype(np.float64)


def forward(
    params: dict[str, np.ndarray],
    config: MlpConfig,
    x: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the network; returns (output, cache) with cache feeding backward.

    ``train`` enables inverted dropout (activations divided by the keep
    probability so expectations match eval mode), which requires ``rng``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"input must have shape (B, {config.input_dim}), got {x.shape}")
    if train and config.dropout > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")

    keep = 1.0 - config.dropout
    use_dropout = train and config.dropout > 0.0
    cache: dict = {"x": x, "blocks": []}

    h = _linear_forward(x, params["fc_in.w"], params["fc_in.b"])
    for i in range(config.num_blocks):
        block: dict = {}
        u = h
        for half in ("1", "2"):
            a = _linear_forward(u, params[f"block{i}.fc{half}.w"], params[f"block{i}.fc{half}.b"])
            n, ln_cache = _layernorm_forward(a, params[f"block{i}.ln{half}.g"], params[f"block{i}.ln{half}.b"])
            if use_dropout:
                mask = _dropout_mask(n.shape, config.dropout, rng)
                d = n * mask / keep
            else:
                mask = None
                d = n
            r = np.maximum(d, 0.0)
            block[f"lin_in{half}"] = u
            block[f"ln{half}"] = ln_cache
            block[f"mask{half}"] = mask
            block[f"pre_relu{half}"] = d
            u = r
        h = h + u
        cache["blocks"].append(block)
    cache["h_out"] = h
    y = _linear_forward(h, params["fc_out.w"], params["fc_out.b"])
    if not np.isfinite(y).all():
        raise FloatingPointError("non-finite activations in forward pass")
    return y, cache


def backward(
    params: dict[str, np.ndarray],
    config: MlpConfig,
    cache: dict,
    dy: np.ndarray,
    grads: ParamVector,
    accumulate: bool = False,
) -> np.ndarray:
    """Exact gradients of the cached forward pass, written into ``grads``;
    returns the gradient with respect to the input.

    The caller owns ``grads``.  Every element is overwritten, so it needs
    no zeroing between calls.  With ``accumulate`` each layer's gradient
    is computed into one scratch array the size of the largest layer and
    then added to what ``grads`` holds.
    """
    dy = np.asarray(dy, dtype=np.float64)
    h_out = cache["h_out"]
    if dy.shape != (h_out.shape[0], config.output_dim):
        raise ValueError(f"dy must have shape ({h_out.shape[0]}, {config.output_dim}), got {dy.shape}")

    keep = 1.0 - config.dropout
    scratch = None
    if accumulate:  # a layer is a weight (or LayerNorm gain) and its bias
        sizes = [g.size + grads[name[:-1] + "b"].size for name, g in grads.items() if not name.endswith(".b")]
        scratch = np.empty(max(sizes))

    def layer(layer_backward, d, saved, prefix, weight):
        w, b = grads[f"{prefix}.{weight}"], grads[f"{prefix}.b"]
        dw, db = (w, b) if scratch is None else (scratch[: w.size].reshape(w.shape), scratch[w.size : w.size + b.size])
        dx, _, _ = layer_backward(d, saved, params[f"{prefix}.{weight}"], dw, db)
        if scratch is not None:
            w += dw
            b += db
        return dx

    dh = layer(_linear_backward, dy, h_out, "fc_out", "w")
    for i in reversed(range(config.num_blocks)):
        block = cache["blocks"][i]
        du = dh  # gradient entering the block's top, skip handled below
        for half in ("2", "1"):
            d_pre = block[f"pre_relu{half}"]
            du = du * (d_pre > 0.0)
            mask = block[f"mask{half}"]
            if mask is not None:
                du = du * mask / keep
            du = layer(_layernorm_backward, du, block[f"ln{half}"], f"block{i}.ln{half}", "g")
            du = layer(_linear_backward, du, block[f"lin_in{half}"], f"block{i}.fc{half}", "w")
        dh = dh + du  # identity skip
    return layer(_linear_backward, dh, cache["x"], "fc_in", "w")


@dataclass
class AdamState:
    """First and second moment vectors plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(params: ParamVector) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _refusal(arrays: dict[str, np.ndarray]) -> str:
    """Why the compiled loop cannot update ``arrays`` in place, or ""."""
    shape = arrays["params"].shape
    for name, a in arrays.items():
        if a.dtype != np.float64 or a.shape != shape:
            return f"{name} is not float64 of shape {shape}"
        if not (a.flags.c_contiguous and a.flags.aligned):
            return f"{name} is not C-contiguous and aligned"
        if name != "grads" and not a.flags.writeable:
            return f"{name} is read-only"
    for (a_name, a), (b_name, b) in itertools.combinations(arrays.items(), 2):
        if np.may_share_memory(a, b):
            return f"{a_name} and {b_name} overlap"
    return ""


def _side_by_side() -> bool:
    """Whether :func:`pair` gives its two calls two threads: the process
    may run on two CPUs or more, and BLAS was started single-threaded
    (the first of ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that
    is set is ``1``).  Two threads whose matrix products queue on one
    multi-threaded BLAS ran slower than one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas = next((os.environ[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if name in os.environ),
                None)
    return cpus >= 2 and blas == "1"


_on_worker = threading.local()  # its flag is set in the worker thread alone


def _start_worker() -> None:
    """A fresh executor for :func:`pair`, whose one thread starts on its
    first submit; a forked child, which has no worker thread, runs it too."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, initializer=lambda: setattr(_on_worker, "flag", True))


_start_worker()
os.register_at_fork(after_in_child=_start_worker)


def pair(first: Callable, second: Callable) -> tuple:
    """``(first(), second())``.  When :func:`_side_by_side` holds and the
    caller is not the worker itself, ``first`` runs on the process's one
    worker thread in a copy of the caller's context, so it sees the
    caller's ``np.errstate``, while the caller runs ``second``; if both
    fail, ``first``'s error is raised.  Otherwise the caller runs the two
    in turn, so a pair nested in a worker's ``first`` cannot deadlock."""
    if getattr(_on_worker, "flag", False) or not _side_by_side():
        return first(), second()
    future = _worker.submit(contextvars.copy_context().run, first)
    try:
        tail = second()
    finally:  # also when second failed: first's error wins
        head = future.result()
    return head, tail


def _adam_range(update, arrays: dict[str, np.ndarray], lo: int, hi: int, c1: float, c2: float, lr: float) -> int:
    """:func:`adam_step`'s update of elements ``[lo, hi)`` of ``arrays`` by the
    compiled ``update``; returns the IEEE exceptions it raised."""
    return update(*(a.ctypes.data + lo * a.itemsize for a in arrays.values()), hi - lo,
                  ADAM_BETA1, ADAM_BETA2, c1, c2, lr, ADAM_EPS)


def adam_step(params: ParamVector, grads: ParamVector, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    With beta1, beta2 and eps the ``ADAM_*`` constants, per element this
    is exactly, and in this order,
    m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g;
    p = p - lr*(m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps).

    The compiled loop (module docstring) runs it.  Before any change, this
    raises ValueError for an ``lr`` that is not a finite float >= 0, and
    for the first vector that is not C-contiguous float64, writeable where
    written and apart, since the loop writes through raw pointers;
    FloatingPointError for a non-finite gradient; and RuntimeError where
    the loop does not build (:func:`compiled.loop`).  The elements before
    ``n // 2`` and the rest are two ranges handed to :func:`pair`: side by
    side where it gives them two threads, else in turn.  No element's
    arithmetic changes, so neither do the bits.  An IEEE exception raises
    or warns per ``np.errstate`` once for both ranges, after them.
    :func:`compiled.runs` counts the updates.
    """
    if not (fits(lr, "float") and finite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be a finite float >= 0, got {lr!r}")
    if grads.keys() != params.keys() or grads.flat.shape != params.flat.shape:
        raise ValueError("grads must have the parameter layout")
    arrays = {"params": params.flat, "grads": grads.flat, "state.m": state.m, "state.v": state.v}
    if why := _refusal(arrays):
        raise ValueError(f"adam_step cannot update in place: {why}")
    # A non-finite element makes the sum of squares non-finite; only then,
    # or when the sum overflows, is the element-wise scan run.  Underflow
    # in the sum is no error either: only the update reports IEEE errors.
    with np.errstate(over="ignore", under="ignore"):
        sum_sq = grads.flat @ grads.flat
    if not np.isfinite(sum_sq) and not np.isfinite(grads.flat).all():
        bad = next(k for k, g in grads.items() if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient for {bad}")
    update, n, lr = compiled.loop("adam_update"), params.flat.size, float(lr)
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    head, tail = pair(lambda: _adam_range(update, arrays, 0, n // 2, c1, c2, lr),
                      lambda: _adam_range(update, arrays, n // 2, n, c1, c2, lr))
    compiled.report(head | tail, "adam_step")


def lr_schedule(base_lr: float, epoch: int, decay: float, every: int) -> float:
    """Step decay: base_lr * decay ** floor(epoch / every)."""
    # Comparisons with NaN are false, so each range also rejects NaN.
    if not (finite(base_lr) and base_lr > 0.0):
        raise ValueError(f"base_lr must be finite and > 0, got {base_lr}")
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if every <= 0:
        raise ValueError(f"every must be >= 1, got {every}")
    return base_lr * decay ** (epoch // every)
