"""The gradient suite's contract: its eleven checks by name, order and
tolerance, and that each check whose analytic gradient comes from package
code fails when that gradient is 1% off or has the wrong shape.  The two
end-to-end checks have their rows in ``test_pipeline.py``
(``TestGradientSuiteChecksTheTrainingStep``)."""

import pytest

from poselift import gradcheck, nn

SUITE = [("linear", 1e-6), ("layernorm", 1e-6), ("relu/dx", 1e-6), ("dropout/dx", 1e-6), ("mlp-eval", 1e-6),
         ("mlp-train", 1e-6), ("gm-loss", 1e-6), ("l1/dpred", 1e-6), ("total-loss", 1e-6),
         ("annotated-path", 1e-5), ("weak-path", 1e-5)]


def test_run_all_returns_the_eleven_checks_in_order():
    assert [(r.name, r.tolerance) for r in gradcheck.run_all(0)] == SUITE


def _every(f):
    """A backward function with each gradient it returns 1% off."""
    return lambda *args, **kwargs: tuple(1.01 * g for g in f(*args, **kwargs))


def _beside_value(f):
    """A loss with its gradient 1% off and its value kept."""
    return lambda *args: (f(*args)[0], 1.01 * f(*args)[1])


def _in_place(f):
    """``nn.backward`` with the parameter gradients it writes and the input
    gradient it returns 1% off."""
    def backward(params, config, cache, d_out, grads, **kwargs):
        dx = f(params, config, cache, d_out, grads, **kwargs)
        grads.flat *= 1.01
        return 1.01 * dx
    return backward


# check name: (the check at its run_all seed, where gradcheck finds the function, its name, the mutation)
MUTANTS = {
    "linear": (lambda: gradcheck.check_linear(0), nn, "_linear_backward", _every),
    "layernorm": (lambda: gradcheck.check_layernorm(10), nn, "_layernorm_backward", _every),
    "mlp-eval": (lambda: gradcheck.check_mlp(40, train=False), nn, "backward", _in_place),
    "mlp-train": (lambda: gradcheck.check_mlp(50, train=True), nn, "backward", _in_place),
    "gm-loss": (lambda: gradcheck.check_gm(60), gradcheck, "gm_grad", lambda f: lambda x, a: 1.01 * f(x, a)),
    "l1/dpred": (lambda: gradcheck.check_l1(70), gradcheck, "l1_pose_loss", _beside_value),
    "total-loss": (lambda: gradcheck.check_total_loss(80), gradcheck, "total_loss", _beside_value),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_gradient_one_percent_off_fails(monkeypatch, name):
    check, module, attr, mutate = MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    result = check()
    assert result.name == name and not result.passed, result


@pytest.mark.parametrize("bad", [lambda g: g.T, lambda g: g[:-1]], ids=["transposed", "short"])
def test_a_wrong_shaped_gradient_names_the_check_and_the_array(monkeypatch, bad):
    original = nn._linear_backward

    def backward(*args):
        dx, dw, db = original(*args)
        return dx, bad(dw), db

    monkeypatch.setattr(nn, "_linear_backward", backward)
    with pytest.raises(AssertionError, match=r"^linear \(w\): gradient shape \((5, 4|3, 5)\) vs input \(4, 5\)$"):
        gradcheck.check_linear(0)
