"""The gradient suite's contract: its eleven checks by name, order and
tolerance, and that each check whose analytic gradient comes from package
code fails when that gradient is 1% off, holds a NaN or has the wrong
shape.  The two end-to-end checks have their rows in ``test_pipeline.py``
(``TestGradientSuiteChecksTheTrainingStep``)."""

import math

import numpy as np
import pytest

from poselift import gradcheck, nn

SUITE = [("linear", 1e-6), ("layernorm", 1e-6), ("relu/dx", 1e-6), ("dropout/dx", 1e-6), ("mlp-eval", 1e-6),
         ("mlp-train", 1e-6), ("gm-loss", 1e-6), ("l1/dpred", 1e-6), ("total-loss", 1e-6),
         ("annotated-path", 1e-5), ("weak-path", 1e-5)]


def test_run_all_returns_the_eleven_checks_in_order():
    assert [(r.name, r.tolerance) for r in gradcheck.run_all(0)] == SUITE


def _one_percent_off(g):
    return 1.01 * g


def _nan_first(g):
    """``g`` with a NaN in its first entry; Python's ``max`` once folded a
    NaN error away, so a NaN ahead of finite errors passed."""
    g = np.array(g, dtype=np.float64)
    g.flat[0] = np.nan
    return g


def _every(change):
    """A backward function with each gradient it returns changed."""
    return lambda f: lambda *args, **kwargs: tuple(change(g) for g in f(*args, **kwargs))


def _dx(change):
    """``nn._linear_backward`` with the input gradient changed alone."""
    return lambda f: lambda *args: (change(f(*args)[0]), *f(*args)[1:])


def _beside_value(change):
    """A loss with its gradient changed and its value kept."""
    return lambda f: lambda *args: (f(*args)[0], change(f(*args)[1]))


def _in_place(change):
    """``nn.backward`` with the parameter gradients it writes and the input
    gradient it returns changed."""
    def mutate(f):
        def backward(params, config, cache, d_out, grads, **kwargs):
            dx = f(params, config, cache, d_out, grads, **kwargs)
            grads.flat[:] = change(grads.flat)
            return change(dx)
        return backward
    return mutate


def _gm(change):
    return lambda f: lambda x, a: change(f(x, a))


# check name: (the check at its run_all seed, where gradcheck finds the function, its name, the mutation of a
# gradient)
MUTANTS = {
    "linear": (lambda: gradcheck.check_linear(0), nn, "_linear_backward", _every),
    "layernorm": (lambda: gradcheck.check_layernorm(10), nn, "_layernorm_backward", _every),
    "mlp-eval": (lambda: gradcheck.check_mlp(40, train=False), nn, "backward", _in_place),
    "mlp-train": (lambda: gradcheck.check_mlp(50, train=True), nn, "backward", _in_place),
    "gm-loss": (lambda: gradcheck.check_gm(60), gradcheck, "gm_grad", _gm),
    "l1/dpred": (lambda: gradcheck.check_l1(70), gradcheck, "l1_pose_loss", _beside_value),
    "total-loss": (lambda: gradcheck.check_total_loss(80), gradcheck, "total_loss", _beside_value),
}
NAN_ROWS = {**MUTANTS, "linear/dx": (*MUTANTS["linear"][:3], _dx)}


def _run(monkeypatch, row, change):
    check, module, attr, mutate = NAN_ROWS[row]
    monkeypatch.setattr(module, attr, mutate(change)(getattr(module, attr)))
    result = check()
    assert result.name == row.removesuffix("/dx") and not result.passed, result
    return result


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_gradient_one_percent_off_fails(monkeypatch, name):
    _run(monkeypatch, name, _one_percent_off)


@pytest.mark.parametrize("row", list(NAN_ROWS))
def test_a_nan_gradient_fails(monkeypatch, row):
    """The NaN is the worst error, whatever finite errors follow it."""
    assert math.isnan(_run(monkeypatch, row, _nan_first).max_rel_err)


@pytest.mark.parametrize("err", [math.nan, math.inf])
def test_a_non_finite_error_does_not_pass(err):
    assert not gradcheck.CheckResult("x", err, 1e-6).passed


@pytest.mark.parametrize("bad", [lambda g: g.T, lambda g: g[:-1]], ids=["transposed", "short"])
def test_a_wrong_shaped_gradient_names_the_check_and_the_array(monkeypatch, bad):
    original = nn._linear_backward

    def backward(*args):
        dx, dw, db = original(*args)
        return dx, bad(dw), db

    monkeypatch.setattr(nn, "_linear_backward", backward)
    with pytest.raises(AssertionError, match=r"^linear \(w\): gradient shape \((5, 4|3, 5)\) vs input \(4, 5\)$"):
        gradcheck.check_linear(0)
