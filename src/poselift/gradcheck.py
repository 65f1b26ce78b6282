"""Central finite-difference verification of every analytic gradient.

One driver, :func:`_check`, runs every check but the vectorized ``gm-loss``
one: it perturbs entries of input or parameter arrays by h = 1e-5 in
float64, compares (f(x+h) - f(x-h)) / 2h against the hand-written backward
pass, and reports the worst relative error over all the arrays.  The
primitive checks perturb every entry; the two end-to-end checks, through
the training step functions, twelve entries of each parameter array, drawn
by a generator seeded from the check's seed.  Relative error uses a small
absolute floor so that true-zero gradients are not failed on
finite-difference round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import SampleBatch
from .geometry import CameraIntrinsics
from .losses import gm_grad, gm_loss, l1_pose_loss, total_loss
from .pipeline import TrainConfig, annotated_step, fit_standardizer, init_bundle, weak_step
from .skeleton import default_skeleton

H = 1e-5
PRIMITIVE_TOL = 1e-6
END_TO_END_TOL = 1e-5
_FLOOR = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _FLOOR)


def _check(name: str, loss, pairs, tol: float = PRIMITIVE_TOL, max_entries: int = 0, rng=None) -> CheckResult:
    """The worst relative error, over every ``(label, analytic, x)`` pair, of
    ``analytic`` against central differences of ``loss()`` in each entry of
    ``x`` (or ``max_entries`` drawn by ``rng``, when set and ``x`` is larger)."""
    worst = 0.0
    for label, analytic, x in pairs:
        if np.shape(analytic) != x.shape:
            raise AssertionError(f"{name} ({label}): gradient shape {np.shape(analytic)} vs input {x.shape}")
        flat = x.ravel()
        grad = np.asarray(analytic, dtype=np.float64).ravel()
        if max_entries and flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            old = flat[i]
            flat[i] = old + H
            up = loss()
            flat[i] = old - H
            down = loss()
            flat[i] = old
            worst = max(worst, _rel_err(grad[i], (up - down) / (2.0 * H)))
    return CheckResult(name=name, max_rel_err=worst, tolerance=tol)


def check_linear(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=4)
    c = rng.normal(size=(3, 4))

    dx, dw, db = nn._linear_backward(c, x, w)
    return _check("linear", lambda: float((nn._linear_forward(x, w, b) * c).sum()),
                  [("x", dx, x), ("w", dw, w), ("b", db, b)])


def check_layernorm(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 9)) * 2.0
    g = rng.normal(size=9)
    b = rng.normal(size=9)
    c = rng.normal(size=(4, 9))

    dx, dg, db = nn._layernorm_backward(c, nn._layernorm_forward(x, g, b)[1], g)
    return _check("layernorm", lambda: float((nn._layernorm_forward(x, g, b)[0] * c).sum()),
                  [("x", dx, x), ("g", dg, g), ("b", db, b)])


def check_relu(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 7))
    x = np.where(np.abs(x) < 0.05, 0.1, x)  # keep clear of the kink
    c = rng.normal(size=(5, 7))

    return _check("relu/dx", lambda: float((np.maximum(x, 0.0) * c).sum()), [("x", c * (x > 0.0), x)])


def check_dropout(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 8))
    c = rng.normal(size=(4, 8))
    rate = 0.5
    mask = nn._dropout_mask(x.shape, rate, np.random.default_rng(seed + 1))

    return _check("dropout/dx", lambda: float((x * mask / (1.0 - rate) * c).sum()), [("x", c * mask / (1.0 - rate), x)])


def check_mlp(seed: int, train: bool) -> CheckResult:
    rng = np.random.default_rng(seed)
    config = nn.MlpConfig(input_dim=6, output_dim=5, hidden_dim=16, num_blocks=2, dropout=0.5 if train else 0.0)
    params = nn.init_params(config, np.random.default_rng(seed + 1))
    x = rng.normal(size=(3, 6))
    c = rng.normal(size=(3, 5))

    def forward():
        return nn.forward(params, config, x, train=train, rng=np.random.default_rng(seed + 2))  # pins the dropout masks

    grads = nn.ParamVector(config)
    dx = nn.backward(params, config, forward()[1], c, grads)
    pairs = [("x", dx, x)] + [(name, grads[name], params[name]) for name in params]
    return _check(f"mlp-{'train' if train else 'eval'}", lambda: float((forward()[0] * c).sum()), pairs)


def check_gm(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alpha in (1.0, 100.0, 1e4):
        x = np.concatenate([rng.uniform(-3, 3, size=20) * np.sqrt(alpha), [0.0]])
        analytic = gm_grad(x, alpha)
        numeric = (gm_loss(x + H, alpha) - gm_loss(x - H, alpha)) / (2.0 * H)
        for a, f in zip(analytic, numeric):
            worst = max(worst, _rel_err(a, f))
    return CheckResult(name="gm-loss", max_rel_err=worst, tolerance=PRIMITIVE_TOL)


def check_l1(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(4, 17, 3))
    gt = pred + np.where(rng.normal(size=pred.shape) > 0, 1.0, -1.0) * rng.uniform(0.05, 2.0, size=pred.shape)
    _, grad = l1_pose_loss(pred, gt)
    return _check("l1/dpred", lambda: l1_pose_loss(pred, gt)[0], [("pred", grad, pred)])


def check_total_loss(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    pred_d = rng.normal(scale=20.0, size=(3, 14))
    target_d = rng.normal(scale=20.0, size=(3, 14))
    target_d[rng.random(size=(3, 14)) <= 0.3] = np.nan  # invalid readouts
    _, grad = total_loss(pred_d, target_d, 100.0, 0.7)
    return _check("total-loss", lambda: total_loss(pred_d, target_d, 100.0, 0.7)[0], [("pred_d", grad, pred_d)])


def _pipeline_setup(seed: int):
    """A small bundle with its stats fit on a four-row annotated batch, the
    config that trains it, and the batch.  A fifth of the readouts are
    invalid, none in the first two rows, so each dimension can be fit."""
    rng = np.random.default_rng(seed)
    spec = default_skeleton()
    j = spec.num_joints
    joints_3d = rng.normal(scale=300.0, size=(4, j, 3)) + [0.0, 0.0, 3500.0]
    valid = rng.random(size=(4, j)) > 0.2
    valid[:2] = True
    batch = SampleBatch(
        frame_ids=np.array([f"frame{i}" for i in range(4)], dtype=object),
        intrinsics=np.tile(CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480), (4, 1)),
        joints_2d=rng.uniform(0.0, 480.0, size=(4, j, 2)),
        readouts=np.where(valid, joints_3d[..., 2] + rng.normal(-40.0, 60.0, size=(4, j)), np.nan),
        joints_3d=joints_3d,
    )
    config = TrainConfig(hidden_dim=24, num_blocks=2, depth_hidden_dim=24, depth_num_blocks=2, dropout=0.5,
                         alpha=1e4, lambda_weight=1.0, seed=seed)
    return init_bundle(config, fit_standardizer(batch, spec), spec), config, batch


def _check_step(name: str, run, seed: int) -> CheckResult:
    """Twelve sampled entries of every parameter of each (label, params,
    grads) network that ``run()`` returns after its loss, against central
    differences of that loss."""
    pairs = [(f"{label}.{param}", grads[param], params[param]) for label, params, grads in run()[1] for param in params]
    return _check(name, lambda: run()[0], pairs, END_TO_END_TOL, max_entries=12, rng=np.random.default_rng(seed))


def check_weak_path(seed: int) -> CheckResult:
    """End-to-end through :func:`weak_step`: inputs -> pose net -> depth head -> robust loss."""
    bundle, config, batch = _pipeline_setup(seed)

    def run():
        pose_grads, depth_grads = nn.ParamVector(bundle.pose_config), nn.ParamVector(bundle.depth_config)
        value, _, pose_backward = weak_step(bundle, config, batch, 0, 0, depth_grads)
        pose_backward(pose_grads)
        return value, (("pose", bundle.pose_params, pose_grads), ("depth", bundle.depth_params, depth_grads))

    return _check_step("weak-path", run, seed + 5)


def check_annotated_path(seed: int) -> CheckResult:
    """End-to-end through :func:`annotated_step`: inputs -> pose net -> standardized L1."""
    bundle, config, batch = _pipeline_setup(seed)

    def run():
        grads = nn.ParamVector(bundle.pose_config)
        return annotated_step(bundle, config, batch, 0, 0, grads), [("pose", bundle.pose_params, grads)]

    return _check_step("annotated-path", run, seed + 6)


def run_all(seed: int = 0) -> list[CheckResult]:
    """The full gradient suite; all analytic gradients vs finite differences."""
    return [
        check_linear(seed),
        check_layernorm(seed + 10),
        check_relu(seed + 20),
        check_dropout(seed + 30),
        check_mlp(seed + 40, train=False),
        check_mlp(seed + 50, train=True),
        check_gm(seed + 60),
        check_l1(seed + 70),
        check_total_loss(seed + 80),
        check_annotated_path(seed + 90),
        check_weak_path(seed + 100),
    ]
