"""Network plumbing tests: layout, shapes, determinism, Adam.

Gradient correctness has its own finite-difference suite; these tests
pin everything else: the parameter layout and its views into one
vector, forward-pass semantics in train and eval mode, the exact Adam
update rule against an independent scalar implementation and against
the whole-array formula, and the learning-rate schedule values.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from poselift import nn
from poselift.data import fields_from_json


def _tiny_config(dropout=0.0):
    return nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=8, num_blocks=2, dropout=dropout)


class TestMlpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nn.MlpConfig(input_dim=0, output_dim=1)
        with pytest.raises(ValueError):
            nn.MlpConfig(input_dim=1, output_dim=1, hidden_dim=-4)
        with pytest.raises(ValueError):
            nn.MlpConfig(input_dim=1, output_dim=1, num_blocks=-1)
        with pytest.raises(ValueError):
            nn.MlpConfig(input_dim=1, output_dim=1, dropout=1.0)

    def test_dict_round_trip(self):
        config = _tiny_config(dropout=0.25)
        assert fields_from_json(nn.MlpConfig, json.loads(json.dumps(asdict(config)))) == config


class TestInitParams:
    def test_shapes_and_names(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(0))
        assert {k: p.shape for k, p in params.items()} == nn.param_shapes(config)
        assert params["fc_in.w"].shape == (8, 6)
        assert params["fc_out.w"].shape == (4, 8)
        assert params["block1.fc2.w"].shape == (8, 8)

    def test_parameters_are_views_into_one_vector(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(0))
        assert params.flat.shape == (sum(p.size for p in params.values()),)
        np.testing.assert_array_equal(params.flat, np.concatenate([p.ravel() for p in params.values()]))
        params.flat[:] = 7.0
        assert all((p == 7.0).all() for p in params.values())
        with pytest.raises(ValueError, match="layout needs"):
            nn.ParamVector(config, np.zeros(params.flat.size - 1))

    def test_biases_zero_gains_one(self):
        params = nn.init_params(_tiny_config(), np.random.default_rng(1))
        assert not params["fc_in.b"].any()
        assert not params["fc_out.b"].any()
        np.testing.assert_array_equal(params["block0.ln1.g"], np.ones(8))
        assert not params["block0.ln1.b"].any()

    def test_weight_bound_is_fan_in(self):
        params = nn.init_params(_tiny_config(), np.random.default_rng(2))
        bound = math.sqrt(6.0 / 6)
        assert np.abs(params["fc_in.w"]).max() <= bound


class TestForward:
    def test_no_blocks_is_a_plain_linear_composition(self):
        """With zero residual blocks, the network is fc_out(fc_in(x));
        checked against a direct matrix computation."""
        config = nn.MlpConfig(input_dim=3, output_dim=2, hidden_dim=5, num_blocks=0, dropout=0.0)
        rng = np.random.default_rng(3)
        params = nn.init_params(config, rng)
        x = rng.normal(size=(4, 3))
        y, _ = nn.forward(params, config, x)
        expected = (x @ params["fc_in.w"].T + params["fc_in.b"]) @ params["fc_out.w"].T + params["fc_out.b"]
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)

    def test_eval_mode_is_deterministic(self):
        config = _tiny_config(dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(3, 6))
        y1, _ = nn.forward(params, config, x, train=False)
        y2, _ = nn.forward(params, config, x, train=False)
        np.testing.assert_array_equal(y1, y2)

    def test_train_mode_requires_rng_when_dropping(self):
        config = _tiny_config(dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(6))
        with pytest.raises(ValueError):
            nn.forward(params, config, np.zeros((1, 6)), train=True)

    def test_train_mode_reproducible_under_a_pinned_stream(self):
        config = _tiny_config(dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(3, 6))
        y1, _ = nn.forward(params, config, x, train=True, rng=np.random.default_rng(99))
        y2, _ = nn.forward(params, config, x, train=True, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(y1, y2)

    def test_zero_dropout_train_equals_eval(self):
        config = _tiny_config(dropout=0.0)
        params = nn.init_params(config, np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(2, 6))
        y_train, _ = nn.forward(params, config, x, train=True)
        y_eval, _ = nn.forward(params, config, x, train=False)
        np.testing.assert_array_equal(y_train, y_eval)

    def test_one_dimensional_input_is_promoted(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(11))
        y, _ = nn.forward(params, config, np.zeros(6))
        assert y.shape == (1, 4)

    def test_wrong_width_raises(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(12))
        with pytest.raises(ValueError):
            nn.forward(params, config, np.zeros((2, 5)))

    def test_non_finite_activations_raise(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(13))
        params["fc_out.b"] = np.full(4, np.inf)
        with pytest.raises(FloatingPointError):
            nn.forward(params, config, np.zeros((1, 6)))


class TestBackwardInterface:
    def test_dy_shape_is_checked(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(14))
        _, cache = nn.forward(params, config, np.zeros((2, 6)))
        with pytest.raises(ValueError):
            nn.backward(params, config, cache, np.zeros((3, 4)))

    def test_gradients_cover_every_parameter(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(15))
        y, cache = nn.forward(params, config, np.random.default_rng(16).normal(size=(2, 6)))
        grads, dx = nn.backward(params, config, cache, np.ones_like(y))
        assert sorted(grads) == sorted(params)
        assert dx.shape == (2, 6)
        for k, g in grads.items():
            assert g.shape == params[k].shape, k


def _reference_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam reimplementation used as an oracle."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


def _vectors(config, *seeds):
    """ParamVectors of ``config`` filled with normal draws, one per seed."""
    size = nn.ParamVector(config).flat.size
    return [nn.ParamVector(config, np.random.default_rng(s).normal(size=size)) for s in seeds]


class TestAdam:
    def test_three_steps_match_scalar_reference(self):
        config = _tiny_config()
        (params,) = _vectors(config, 17)
        state = nn.init_adam(params)
        ref = {"p": params.flat.tolist(), "m": [0.0] * params.flat.size, "v": [0.0] * params.flat.size}
        for t in (1, 2, 3):
            (grads,) = _vectors(config, 100 + t)
            nn.adam_step(params, grads, state, lr=0.05)
            for i, g in enumerate(grads.flat):
                ref["p"][i], ref["m"][i], ref["v"][i] = _reference_adam(
                    ref["p"][i], g, ref["m"][i], ref["v"][i], t, lr=0.05
                )
            np.testing.assert_allclose(params.flat, ref["p"], rtol=0, atol=1e-15)
            assert state.t == t

    def test_matches_the_whole_array_formula_bit_for_bit(self):
        """Across several update blocks, including a partial last one."""
        config = nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=128, num_blocks=1)
        (params,) = _vectors(config, 20)
        assert params.flat.size > 2 * nn._ADAM_BLOCK and params.flat.size % nn._ADAM_BLOCK
        p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = nn.init_adam(params)
        for t in (1, 2, 3):
            (grads,) = _vectors(config, 200 + t)
            g = grads.flat
            nn.adam_step(params, grads, state, lr=1e-3)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            p = p - 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert params.flat.tobytes() == p.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_first_step_size_is_the_learning_rate(self):
        """With fresh moments, Adam's first update is -lr * sign(g) up to eps."""
        params, grads = _vectors(_tiny_config(), 18, 19)
        g = grads.flat
        g[np.abs(g) < 0.1] = 0.5
        before = params.flat.copy()
        nn.adam_step(params, grads, nn.init_adam(params), lr=0.01)
        np.testing.assert_allclose(params.flat - before, -0.01 * np.sign(g), atol=1e-6)

    def test_key_mismatch_raises(self):
        (params,) = _vectors(_tiny_config(), 1)
        (grads,) = _vectors(nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=8, num_blocks=1), 2)
        with pytest.raises(ValueError):
            nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)

    def test_shape_mismatch_raises(self):
        (params,) = _vectors(_tiny_config(), 1)
        (grads,) = _vectors(nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=9, num_blocks=2), 2)
        with pytest.raises(ValueError):
            nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)

    def test_non_finite_gradient_raises(self):
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads["block1.ln2.b"][3] = np.nan
        before = params.flat.copy()
        with pytest.raises(FloatingPointError, match="block1.ln2.b"):
            nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        assert params.flat.tobytes() == before.tobytes()

    def test_updates_params_and_moments_in_place(self):
        params, grads = _vectors(_tiny_config(), 1, 2)
        flat, view, g = params.flat, params["fc_out.b"], grads.flat.copy()
        before = flat.copy()
        state = nn.init_adam(params)
        nn.adam_step(params, grads, state, lr=0.1)
        assert params.flat is flat and np.shares_memory(params["fc_out.b"], flat) and params["fc_out.b"] is view
        assert (flat != before).all()
        assert state.t == 1 and state.m.any() and state.v.any()
        assert grads.flat.tobytes() == g.tobytes()


class TestLrSchedule:
    def test_exact_decay_values(self):
        assert nn.lr_schedule(0.001, 0) == 0.001
        assert nn.lr_schedule(0.001, 3) == 0.001
        assert nn.lr_schedule(0.001, 4) == 0.00096
        assert nn.lr_schedule(0.001, 7) == 0.00096
        assert nn.lr_schedule(0.001, 8) == 0.0009216

    def test_floor_division_boundaries(self):
        for epoch in range(12):
            assert nn.lr_schedule(1.0, epoch, decay=0.5, every=3) == 0.5 ** (epoch // 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.lr_schedule(0.0, 1)
        with pytest.raises(ValueError):
            nn.lr_schedule(0.1, -1)
        with pytest.raises(ValueError):
            nn.lr_schedule(0.1, 1, every=0)
