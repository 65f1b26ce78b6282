"""Network plumbing tests: layout, shapes, determinism, Adam.

Gradient correctness has its own finite-difference suite; these tests
pin everything else: the parameter layout and its views into one
vector, forward-pass semantics in train and eval mode, the exact Adam
update rule against an independent scalar implementation and against
the whole-array formula, with the caller alone and with the worker
thread and through a whole training, a build that fails, :func:`nn.pair`
and its schedule rule, and the learning-rate schedule values.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from poselift import compiled, nn
from poselift.checks import fields_from_json
from poselift.data import Dataset
from poselift.geometry import CameraIntrinsics
from poselift.pipeline import TrainConfig, train
from poselift.skeleton import default_skeleton
from poselift.synth import SceneConfig, generate_dataset, render_clean_depth



def _tiny_config(dropout=0.0):
    return nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=8, num_blocks=2, dropout=dropout)


class TestMlpConfig:
    def test_validation(self):
        """Each message names the field and its value."""
        rows = [
            ("input_dim", 0, "input_dim must be positive, got 0"),
            ("output_dim", -2, "output_dim must be positive, got -2"),
            ("hidden_dim", 0, "hidden_dim must be positive, got 0"),
            ("hidden_dim", -4, "hidden_dim must be positive, got -4"),
            ("num_blocks", -1, "num_blocks must be >= 0, got -1"),
            ("dropout", 1.0, "dropout must be in [0, 1), got 1.0"),
            ("dropout", -0.1, "dropout must be in [0, 1), got -0.1"),
            ("dropout", math.nan, "dropout must be in [0, 1), got nan"),
            ("hidden_dim", 8.0, "hidden_dim must be int, got 8.0"),
            ("num_blocks", True, "num_blocks must be int, got True"),
        ]
        for field, value, message in rows:
            with pytest.raises(ValueError) as info:
                nn.MlpConfig(**{"input_dim": 1, "output_dim": 1, field: value})
            assert str(info.value) == message

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


def _ref_layernorm_forward(x, g, b):
    """The earlier LayerNorm forward pass, which let ``x.var`` take the
    mean a second time."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nn.LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def _loop_layernorm_forward(x, g, b):
    """The ``layer_norm`` loop's LayerNorm in train mode, its values before
    the ReLU and cache, with a bias of -0.0, which adds exactly."""
    _, xhat, inv, pre = nn._hidden_layer(x.copy(), np.full(x.shape[1], -0.0), g, b, None, 1.0, True)
    return pre, (xhat, inv)


class TestLayerNorm:
    @pytest.mark.parametrize("rows, width", [
        (1, 8), (1, 1024), (2, 1), (3, 1), (7, 8), (33, 64), (64, 1024), (400, 1024), (400, 51), (5, 129),
    ])
    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e12], ids=["centred", "offset", "large-offset"])
    @pytest.mark.parametrize("subject", [nn._layernorm_forward, _loop_layernorm_forward], ids=["numpy", "loop"])
    def test_same_bytes_as_the_earlier_formula(self, rows, width, offset, subject):
        """Output and cache byte for byte, on rows that sit far from zero
        as well as on centred ones; a 1-wide row centres to exactly 0."""
        rng = np.random.default_rng(rows * 1031 + width)
        x = rng.normal(offset, 1.0 + abs(offset) * 1e-6, size=(rows, width)) * rng.uniform(0.5, 2.0, size=(rows, 1))
        g, b = rng.normal(1.0, 0.2, size=width), rng.normal(0.0, 0.2, size=width)
        out, (xhat, inv) = subject(x, g, b)
        ref_out, (ref_xhat, ref_inv) = _ref_layernorm_forward(x, g, b)
        for got, want in ((out, ref_out), (xhat, ref_xhat), (inv, ref_inv)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _numpy_layer(a, bias, g, b, mask, keep):
    """:func:`nn._hidden_layer` by numpy: (output, xhat, inv, pre-ReLU)."""
    n, (xhat, inv) = nn._layernorm_forward(a + bias, g, b)
    pre = n if mask is None else n * mask / keep
    return np.maximum(pre, 0.0), xhat, inv, pre


def _layer_case(rng, rows, width, offset):
    """A matrix product's rows around ``offset`` (every fifth row constant)
    and the layer's bias, gain, shift and dropout mask."""
    a = rng.normal(offset, 1.0 + abs(offset) * 1e-6, size=(rows, width))
    a[::5] = offset + 0.5
    bias, g, b = rng.normal(size=width), rng.normal(1.0, 0.5, size=width), rng.normal(0.0, 0.5, size=width)
    return a, bias, g, b, (rng.random((rows, width)) >= 0.3).astype(np.float64)


class TestLayerNormLoop:
    """The compiled ``layer_norm`` loop against numpy's bias add,
    :func:`nn._layernorm_forward`, dropout and ReLU, byte for byte."""

    MODES = [("eval", False, False), ("train", True, False), ("train-dropout", True, True)]

    @pytest.mark.parametrize("width", [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025])
    def test_same_bytes_as_numpy(self, width):
        """Rows 0, 1, 2 and 33; pairwise sums below 8, blocked up to 128
        and split above; constant rows; offsets far from zero; both modes,
        the train-mode xhat, inv and pre-ReLU values included."""
        rng = np.random.default_rng(width)
        for rows, offset, (mode, train, dropout) in itertools.product(
                (0, 1, 2, 33), (0.0, 1e6, -1e6, 3e12, -3e12), self.MODES):
            a, bias, g, b, mask = _layer_case(rng, rows, width, offset)
            mask = mask if dropout else None
            want = _numpy_layer(a, bias, g, b, mask, 0.7)
            got = nn._hidden_layer(a.copy(), bias, g, b, mask, 0.7, train)
            where = f"{rows} rows, offset {offset}, {mode}"
            assert got[0].tobytes() == want[0].tobytes(), where
            if train:
                for name, x, y in zip(("xhat", "inv", "pre"), got[1:], want[1:]):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), f"{where}: {name}"
            else:
                assert got[1:] == (None, None, None)

    def test_eval_mode_writes_over_the_product(self):
        a, bias, g, b, _ = _layer_case(np.random.default_rng(1), 4, 16, 0.0)
        product = a.copy()
        out = nn._hidden_layer(product, bias, g, b, None, 1.0, False)[0]
        assert out is product and out.tobytes() == _numpy_layer(a, bias, g, b, None, 1.0)[0].tobytes()

    def test_a_negative_zero_before_the_relu_becomes_positive_zero(self):
        """A constant row centres to +0.0; times a negative gain that is
        -0.0, plus a -0.0 shift still -0.0, and np.maximum gives +0.0."""
        a, bias, g, b = np.full((2, 9), 3.0), np.zeros(9), np.full(9, -2.0), np.full(9, -0.0)
        out, _, _, pre = nn._hidden_layer(a.copy(), bias, g, b, None, 1.0, True)
        assert np.signbit(pre).all() and not np.signbit(out).any()
        assert out.tobytes() == _numpy_layer(a, bias, g, b, None, 1.0)[0].tobytes()

    @pytest.mark.parametrize("width", [5, 16, 200])
    def test_a_row_of_negative_zeros_sums_to_positive_zero(self, width):
        """np.add.reduce starts from +0.0, so the mean of a -0.0 row is
        +0.0 and the row centres to -0.0; a sum started from the first
        value would give -0.0 and centre to +0.0."""
        a, bias = np.full((2, width), -0.0), np.full(width, -0.0)
        g, b = np.ones(width), np.zeros(width)
        got = nn._hidden_layer(a.copy(), bias, g, b, None, 1.0, True)
        want = _numpy_layer(a, bias, g, b, None, 1.0)
        assert np.signbit(got[1]).all()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_a_nan_input_stays_quiet_and_passes_through(self, train):
        """numpy raises nothing on a NaN it carries, np.maximum included."""
        a, bias, g, b, mask = _layer_case(np.random.default_rng(2), 3, 12, 0.0)
        a[1, 4] = np.nan
        with np.errstate(all="raise"):
            want = _numpy_layer(a, bias, g, b, mask, 0.5)
            got = nn._hidden_layer(a.copy(), bias, g, b, mask, 0.5, train)
        assert np.isnan(got[0][1]).all() and not np.isnan(got[0][[0, 2]]).any()
        assert got[0].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("value, kind, words", [(1e200, "over", "overflow"), (np.inf, "invalid", "invalid value")],
                             ids=["overflow", "inf"])
    @pytest.mark.parametrize("mode, outcome", [("warn", "warn"), ("raise", "raise"), ("ignore", "quiet")])
    def test_an_ieee_exception_obeys_errstate(self, value, kind, words, mode, outcome):
        """A row of +-1e200 overflows only when squared for its variance,
        and a row of +-inf is invalid in its sum.  Every other kind is set
        to raise, so a bit read under another kind's key fails.  The loop
        raises or warns after the layer, whose bytes are numpy's; numpy
        itself raises in multiply or reduce."""
        a, bias, g, b, _ = _layer_case(np.random.default_rng(3), 2, 10, 0.0)
        a[0] = value * np.where(np.arange(10) % 2, 1.0, -1.0)
        with np.errstate(all="ignore"):
            want = _numpy_layer(a, bias, g, b, None, 1.0)[0]
        with np.errstate(all="ignore", **{kind: "raise"}):
            with pytest.raises(FloatingPointError, match=f"^{words} encountered in (multiply|reduce)$"):
                _numpy_layer(a, bias, g, b, None, 1.0)
        expect = {"raise": pytest.raises(FloatingPointError, match=f"^{words} encountered in layer_norm$"),
                  "warn": pytest.warns(RuntimeWarning, match=f"^{words} encountered in layer_norm$"),
                  "quiet": contextlib.nullcontext()}[outcome]
        with np.errstate(all="raise"), np.errstate(**{kind: mode}), expect:
            out = nn._hidden_layer(a.copy(), bias, g, b, None, 1.0, False)[0]
        if outcome != "raise":
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arrange, message", [
        (lambda a, g, mask: (a, np.ones(9), None), r"bias, g and b must have shape \(8,\), got \[\(8,\), \(9,\), \(8,\)\]"),
        (lambda a, g, mask: (a, g, mask[:, :4]), r"the dropout mask must be C-contiguous float64 of shape \(2, 8\)"),
        (lambda a, g, mask: (a, g, mask.astype(np.float32)), r"the dropout mask must be C-contiguous float64"),
        (lambda a, g, mask: (np.asfortranarray(a), g, None), r"the matrix product must be a writeable C-contiguous"),
        (lambda a, g, mask: (np.frombuffer(a.tobytes()).reshape(a.shape), g, None),
         r"the matrix product must be a writeable C-contiguous"),
    ], ids=["narrow-gain", "narrow-mask", "float32-mask", "fortran-product", "read-only-product"])
    def test_arrays_the_loop_cannot_take_are_refused_before_it_runs(self, arrange, message):
        a, bias, g, b, mask = _layer_case(np.random.default_rng(4), 2, 8, 0.0)
        a, g, mask = arrange(a, g, mask)
        before, product = compiled.runs(), a.tobytes()
        with pytest.raises(ValueError, match=f"^{message}"):
            nn._hidden_layer(a, bias, g, b, mask, 0.5, True)
        assert compiled.runs() == before and a.tobytes() == product

    @pytest.mark.parametrize("blocks", [0, 1, 2])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_runs_counts_one_call_per_hidden_layer(self, blocks, train):
        config = nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=8, num_blocks=blocks, dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(5))
        before = compiled.runs()
        nn.forward(params, config, np.ones((3, 6)), train=train, rng=np.random.default_rng(6))
        assert compiled.runs() - before == ({"layer_norm": 2 * blocks} if blocks else {})

    def test_an_eval_mode_pass_keeps_no_cache(self):
        config = _tiny_config(dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(7))
        y, cache = nn.forward(params, config, np.ones((3, 6)))
        assert cache is None
        with pytest.raises(ValueError, match="^backward needs the cache of a train-mode forward pass"):
            nn.backward(params, config, cache, np.ones_like(y), nn.ParamVector(config))


class TestBackwardInterface:
    """On train-mode passes: an eval-mode pass keeps no cache."""

    def test_dy_shape_is_checked(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(14))
        _, cache = nn.forward(params, config, np.zeros((2, 6)), train=True)
        with pytest.raises(ValueError):
            nn.backward(params, config, cache, np.zeros((3, 4)), nn.ParamVector(config))

    def test_gradients_cover_every_parameter(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(15))
        y, cache = nn.forward(params, config, np.random.default_rng(16).normal(size=(2, 6)), train=True)
        grads = nn.ParamVector(config)
        dx = nn.backward(params, config, cache, np.ones_like(y), grads)
        assert sorted(grads) == sorted(params)
        assert dx.shape == (2, 6)
        for k, g in grads.items():
            assert g.shape == params[k].shape, k


class TestGradientBuffer:
    """``backward`` writes into a buffer its caller owns and reuses."""

    def _pass(self, seed):
        config = nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=8, num_blocks=2, dropout=0.5)
        params = nn.init_params(config, np.random.default_rng(30))
        x = np.random.default_rng(seed).normal(size=(3, 6))
        y, cache = nn.forward(params, config, x, train=True, rng=np.random.default_rng(seed + 1))
        return config, params, cache, np.random.default_rng(seed + 2).normal(size=y.shape)

    def test_every_element_is_overwritten(self):
        config, params, cache, dy = self._pass(31)
        zeros = nn.ParamVector(config)
        nans = nn.ParamVector(config, np.full(zeros.flat.size, np.nan))
        dx_zeros = nn.backward(params, config, cache, dy, zeros)
        dx_nans = nn.backward(params, config, cache, dy, nans)
        assert nans.flat.tobytes() == zeros.flat.tobytes()
        assert dx_nans.tobytes() == dx_zeros.tobytes()

    def test_accumulate_adds_each_element(self):
        config, params, cache_a, dy_a = self._pass(32)
        _, _, cache_b, dy_b = self._pass(35)
        a, b = nn.ParamVector(config), nn.ParamVector(config)
        nn.backward(params, config, cache_a, dy_a, a)
        dx_b = nn.backward(params, config, cache_b, dy_b, b)
        summed = nn.ParamVector(config, a.flat.copy())
        dx = nn.backward(params, config, cache_b, dy_b, summed, accumulate=True)
        assert summed.flat.tobytes() == (a.flat + b.flat).tobytes()
        assert dx.tobytes() == dx_b.tobytes()


def _reference_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam reimplementation used as an oracle."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


def _formula_step(p, m, v, g, t, lr):
    """One Adam update of p, m and v by the whole-array formula; returns
    the new (p, m, v)."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    return p - lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8), m, v


def _vectors(config, *seeds):
    """ParamVectors of ``config`` filled with normal draws, one per seed."""
    size = nn.ParamVector(config).flat.size
    return [nn.ParamVector(config, np.random.default_rng(s).normal(size=size)) for s in seeds]


class TestAdam:
    """Adam's update rule and checks, with the caller alone (each update is
    its two element ranges in turn); :class:`TestAdamOnTwoThreads` runs
    every test again with the worker thread."""

    @pytest.fixture(autouse=True)
    def _schedule(self, schedule, ranges):
        schedule(False)
        yield
        assert all(thread == threading.get_ident() for _, _, thread in ranges)

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
        config = nn.MlpConfig(input_dim=6, output_dim=4, hidden_dim=128, num_blocks=1)
        (params,) = _vectors(config, 20)
        p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = nn.init_adam(params)
        for t in (1, 2, 3):
            (grads,) = _vectors(config, 200 + t)
            nn.adam_step(params, grads, state, lr=1e-3)
            p, m, v = _formula_step(p, m, v, grads.flat, t, 1e-3)
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_element_raises(self, value):
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads["fc_in.w"][2, 5] = value
        before = params.flat.copy()
        with pytest.raises(FloatingPointError, match="non-finite gradient for fc_in.w"):
            nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        assert params.flat.tobytes() == before.tobytes()

    def test_finite_gradient_whose_sum_of_squares_overflows_steps(self):
        """The sum of squares is inf here, so the guard falls through to
        the element-wise check, which passes."""
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads.flat[[4, 40]] = 1.2e154
        with np.errstate(over="ignore"):
            assert np.isinf(grads.flat @ grads.flat)
        p, g = params.flat.copy(), grads.flat.copy()
        nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        with np.errstate(over="ignore"):
            p, _, _ = _formula_step(p, np.zeros_like(p), np.zeros_like(p), g, 1, 0.1)
        assert params.flat.tobytes() == p.tobytes()

    def test_a_subnormal_gradient_underflows_only_in_the_update(self):
        """The guard's sum of squares of [5e-324, 0] underflows, which is no
        error; the update's own underflow obeys errstate."""
        def step():
            nn.adam_step(_Flat(np.array([1.0, -2.0])), _Flat(np.array([5e-324, 0.0])),
                         nn.AdamState(m=np.zeros(2), v=np.zeros(2)), lr=0.1)

        with np.errstate(all="raise", under="ignore"):
            step()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="^underflow encountered in (?!matmul)"):
            step()

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

    @pytest.mark.parametrize("arrange, why", [
        (lambda p, s: (nn.ParamVector(_tiny_config(), np.repeat(p.flat, 2)[::2]), s.m, s.v),
         "params is not C-contiguous and aligned"),
        (lambda p, s: (p, s.m.astype(np.float32), s.v), "state.m is not float64 of shape"),
        (lambda p, s: (p, s.m, s.m), "state.m and state.v overlap"),
        (lambda p, s: (p, s.m, np.frombuffer(s.v.tobytes())), "state.v is read-only"),
    ], ids=["strided-params", "float32-moment", "shared-moments", "read-only-v"])
    def test_arrays_the_loop_cannot_update_in_place_are_refused_before_any_change(self, arrange, why):
        params, grads = _vectors(_tiny_config(), 1, 2)
        state = nn.init_adam(params)
        state.m[:] = 0.25
        params, state.m, state.v = arrange(params, state)
        before = [a.tobytes() for a in (params.flat, state.m, state.v)]
        with pytest.raises(ValueError, match=f"^adam_step cannot update in place: {why}"):
            nn.adam_step(params, grads, state, lr=0.1)
        assert [a.tobytes() for a in (params.flat, state.m, state.v)] == before and state.t == 0

    @pytest.mark.parametrize("lr, shown", [
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (-1e-3, "-0.001"),
        (True, "True"), (10**400, "10{400}"), ("0.001", "'0.001'"), (None, "None"),
    ], ids=["nan", "inf", "-inf", "negative", "bool", "beyond-float", "str", "none"])
    def test_a_bad_lr_is_refused_before_any_change(self, lr, shown):
        params, grads = _vectors(_tiny_config(), 1, 2)
        state = nn.init_adam(params)
        with pytest.raises(ValueError, match=f"^lr must be a finite float >= 0, got {shown}$"):
            nn.adam_step(params, grads, state, lr=lr)
        assert params.flat.tobytes() == _vectors(_tiny_config(), 1)[0].flat.tobytes()
        assert not state.m.any() and not state.v.any() and state.t == 0

    def test_a_rate_decayed_to_zero_moves_only_the_moments(self):
        """``lr_schedule``'s decay can underflow to 0.0, which is a legal rate."""
        lr = nn.lr_schedule(1e-3, 4000, 0.5, 1)
        assert lr == 0.0
        params, grads = _vectors(_tiny_config(), 1, 2)
        before = params.flat.tobytes()
        state = nn.init_adam(params)
        nn.adam_step(params, grads, state, lr=lr)
        assert params.flat.tobytes() == before and state.m.all() and state.t == 1


class _Flat(dict):
    """One named vector with ``.flat``, all :func:`nn.adam_step` reads of a
    :class:`nn.ParamVector`, so that any size can be updated."""

    def __init__(self, values):
        super().__init__(all=values)
        self.flat = values


def _hard_gradient(rng, size):
    """Normal draws, with zeros, subnormals and values whose square
    overflows mixed in."""
    g = rng.normal(size=size) * 10.0 ** rng.integers(-3, 3, size=size)
    kind = rng.choice(4, size=size, p=[0.8, 0.1, 0.09, 0.01])
    g[kind == 1] = 0.0
    g[kind == 2] = rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308], size=int((kind == 2).sum()))
    g[kind == 3] = rng.choice([1e160, -1e200], size=int((kind == 3).sum()))
    return g


def _updates(size, steps, seed):
    """A digest of the bytes of p, m and v after each of ``steps`` updates,
    with the same gradients and rates on every call."""
    rng = np.random.default_rng(seed)
    params = _Flat(rng.normal(size=size))
    state = nn.AdamState(m=np.zeros(size), v=np.zeros(size))
    out = []
    with np.errstate(all="ignore"):
        for t in range(steps):
            nn.adam_step(params, _Flat(_hard_gradient(rng, size)), state, nn.lr_schedule(0.05, t, 0.96, 4))
            out.append(hashlib.sha256(b"".join(a.tobytes() for a in (params.flat, state.m, state.v))).digest())
    return out


def _formula_updates(size, steps, seed):
    """:func:`_updates` by the whole-array formula."""
    rng = np.random.default_rng(seed)
    p, m, v = rng.normal(size=size), np.zeros(size), np.zeros(size)
    out = []
    with np.errstate(all="ignore"):
        for t in range(steps):
            p, m, v = _formula_step(p, m, v, _hard_gradient(rng, size), t + 1, nn.lr_schedule(0.05, t, 0.96, 4))
            out.append(hashlib.sha256(b"".join(a.tobytes() for a in (p, m, v))).digest())
    return out


def _formula_adam_step(params, grads, state, lr):
    """:func:`nn.adam_step` by the whole-array formula, in place."""
    state.t += 1
    params.flat[:], state.m[:], state.v[:] = _formula_step(params.flat, state.m, state.v, grads.flat, state.t, lr)


def _trained_bits(config, dataset):
    bundle, logs = train(config, dataset)
    return json.dumps(logs), bundle.pose_params.flat.tobytes(), bundle.depth_params.flat.tobytes()


@pytest.fixture(scope="module")
def criterion6_data():
    """Criterion 6's data set."""
    return generate_dataset(np.random.Generator(np.random.Philox([5, 100])), SceneConfig(), 24, 12)


class TestCompiledAdam:
    def test_the_loop_loads(self, monkeypatch):
        monkeypatch.setattr(compiled, "_library", None)
        before = compiled.runs()
        params, grads = _vectors(_tiny_config(), 1, 2)
        nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        assert not isinstance(compiled._library, str), compiled._library
        assert compiled.runs() - before == {"adam_update": 1}

    @pytest.mark.parametrize("first", ["adam_step", "render_clean_depth"])
    @pytest.mark.parametrize("source, which, why, builds", [
        (compiled._SOURCE, lambda name: None, "no cc on the PATH", 0),
        ("int adam_update(void) { return nope; }", shutil.which,
         r"cc failed with status 1: \S*loops\.c:1:\d+: error: .*nope.*", 1),
    ], ids=["no-cc", "cc-fails"])
    def test_a_failed_build_raises_on_every_call_and_runs_cc_once(self, monkeypatch, source, which, why, builds,
                                                                  first):
        """The first call for a loop, an Adam update or a render, raises
        RuntimeError naming ``cc`` and the reason; every later call, for
        either loop, raises it again without building again, and nothing
        was updated or counted."""
        monkeypatch.setattr(compiled, "_library", None)
        monkeypatch.setattr(compiled, "_SOURCE", source)
        monkeypatch.setattr(shutil, "which", which)
        calls = []
        run = subprocess.run
        monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: calls.append(args) or run(*args, **kwargs))
        params, grads = _vectors(_tiny_config(), 1, 2)
        state, before, flat = nn.init_adam(params), compiled.runs(), params.flat.tobytes()
        loops = {"adam_step": lambda: nn.adam_step(params, grads, state, lr=0.1),
                 "render_clean_depth": lambda: render_clean_depth(
                     [], [], CameraIntrinsics(4.0, 4.0, 2.0, 2.0, 4, 4), SceneConfig(), default_skeleton())}
        for name in [first, *loops.keys() - {first}] * 2:
            with pytest.raises(RuntimeError, match=rf"^the compiled loops need a C compiler \(cc\): {why}$"):
                loops[name]()
            assert len(calls) == builds
        assert params.flat.tobytes() == flat and state.t == 0 and not state.m.any()
        assert compiled.runs() == before

    @pytest.mark.parametrize("size, steps", [(1, 400), (7, 400), (16_385, 400), (None, 2)],
                             ids=["1", "7", "16385", "width-1024"])
    def test_same_bytes_as_the_whole_array_formula(self, size, steps):
        """On gradients with zeros, subnormals and overflowing squares.  At
        t = 356, 1 - 0.9**t rounds to 1.0; the width-1024 layout is the
        4.3M-element pose network of the benchmark."""
        if size is None:
            size = nn.ParamVector(nn.MlpConfig(51, 51, hidden_dim=1024)).flat.size
        assert 1.0 - 0.9**356 == 1.0 and 1.0 - 0.9**355 != 1.0
        pairs = zip(_updates(size, steps, seed=size), _formula_updates(size, steps, seed=size))
        for t, (a, b) in enumerate(pairs, start=1):
            assert a == b, f"step {t}"

    @pytest.mark.parametrize("lambda_weight, weak", [(1e-3, "labelled"), (1e-3, "unlabelled"), (0.0, "none")],
                             ids=["weak", "no-labels", "lambda-0"])
    def test_training_gives_the_same_bits(self, monkeypatch, criterion6_data, lambda_weight, weak):
        """Criterion 6's config, with weak data, with its labels stripped,
        and at lambda = 0 without it (as criterion 4 trains its baseline):
        the same log and parameters as with every update by the whole-array
        formula."""
        samples = {"labelled": criterion6_data.weak, "none": [],
                   "unlabelled": [dataclasses.replace(s, eval_visibility=None) for s in criterion6_data.weak]}[weak]
        dataset = Dataset(criterion6_data.annotated, samples)
        config = TrainConfig(epochs=3, batch_size=8, hidden_dim=64, num_blocks=1, depth_hidden_dim=64,
                             depth_num_blocks=1, lambda_weight=lambda_weight, alpha=2500.0, seed=0)
        before = compiled.runs()
        loop = _trained_bits(config, dataset)
        assert (compiled.runs() - before)["adam_update"] > 0
        monkeypatch.setattr(nn, "adam_step", _formula_adam_step)
        before = compiled.runs()
        assert _trained_bits(config, dataset) == loop
        assert "adam_update" not in compiled.runs() - before

    @pytest.mark.parametrize("errstate, outcome", [
        ({}, "warn"), ({"over": "raise"}, "raise"), ({"over": "ignore"}, "quiet"),
    ])
    def test_an_overflow_obeys_errstate(self, errstate, outcome):
        """(g * (1 - beta2)) * g overflows for g = 1e160.  The loop raises
        or warns after the update, which has the bytes of the whole-array
        formula in every row."""
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads.flat[3] = 1e160
        p = params.flat.copy()
        expect = {"raise": pytest.raises(FloatingPointError, match="^overflow encountered in adam_step$"),
                  "warn": pytest.warns(RuntimeWarning, match="^overflow encountered in adam_step$"),
                  "quiet": contextlib.nullcontext()}[outcome]
        with np.errstate(**errstate), expect:
            nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        with np.errstate(over="ignore"):
            p, _, _ = _formula_step(p, np.zeros_like(p), np.zeros_like(p), grads.flat, 1, 0.1)
        assert params.flat.tobytes() == p.tobytes()

    def test_an_overflow_in_both_ranges_is_warned_once(self, schedule):
        """The loop's flags from both ranges are reported together, on
        either schedule."""
        def warned():
            params, grads = _vectors(_tiny_config(), 1, 2)
            grads.flat[[0, -1]] = 1e160
            with warnings.catch_warnings(record=True) as seen, np.errstate(over="warn"):
                warnings.simplefilter("always")
                nn.adam_step(params, grads, nn.init_adam(params), 0.1)
            return [str(w.message) for w in seen]

        assert schedule.both(warned) == [["overflow encountered in adam_step"]] * 2


@pytest.fixture
def ranges(monkeypatch):
    """Every ``(lo, hi, thread)`` that :func:`nn._adam_range` is called with."""
    calls = []
    original = nn._adam_range

    def spy(update, arrays, lo, hi, *rest):
        calls.append((lo, hi, threading.get_ident()))
        return original(update, arrays, lo, hi, *rest)

    monkeypatch.setattr(nn, "_adam_range", spy)
    return calls


class TestAdamInTwoRanges:
    """:func:`nn.adam_step` updates the elements before ``n // 2`` and the
    rest as the two calls of one :func:`nn.pair`: the lower range on the
    worker thread and the upper one in the caller, or both in the caller."""

    @pytest.mark.parametrize("size, steps", [(1, 400), (2, 400), (3, 400), (16_385, 400), (None, 2)],
                             ids=["1", "2", "3", "16385", "width-1024"])
    def test_same_bytes_on_both_schedules(self, schedule, size, steps):
        if size is None:
            size = nn.ParamVector(nn.MlpConfig(51, 51, hidden_dim=1024)).flat.size
        inline, side_by_side = schedule.both(lambda: _updates(size, steps, size))
        for t, (a, b) in enumerate(zip(inline, side_by_side), start=1):
            assert a == b, f"step {t}"

    def test_the_lower_range_runs_on_the_worker(self, schedule, ranges):
        params, grads = _vectors(_tiny_config(), 1, 2)
        n, caller = params.flat.size, threading.get_ident()
        schedule(True)
        nn.adam_step(params, grads, nn.init_adam(params), 0.1)
        (lo, mid, thread), (upper, end, in_caller) = sorted(ranges)
        assert (lo, mid, upper, end) == (0, n // 2, n // 2, n)
        assert in_caller == caller != thread
        ranges.clear()
        schedule(False)
        nn.adam_step(params, grads, nn.init_adam(params), 0.1)
        assert ranges == [(0, n // 2, caller), (n // 2, n, caller)]

    @pytest.mark.parametrize("errstate, outcome", [({"over": "raise"}, "raise"), ({"over": "warn"}, "warn")])
    def test_an_overflow_in_the_worker_range_alone_is_reported_once(self, schedule, errstate, outcome):
        """(g * (1 - beta2)) * g overflows for g = 1e160, at element 0."""
        schedule(True)
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads.flat[0] = 1e160
        with warnings.catch_warnings(record=True) as seen, np.errstate(**errstate):
            warnings.simplefilter("always")
            expect = pytest.raises(FloatingPointError, match="^overflow encountered in ")
            with expect if outcome == "raise" else contextlib.nullcontext():
                nn.adam_step(params, grads, nn.init_adam(params), 0.1)
        shown = [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]
        assert len(shown) == (outcome == "warn") and all(m.startswith("overflow encountered in ") for m in shown)

    def test_runs_counts_one_call_per_update(self, schedule):
        params, grads = _vectors(_tiny_config(), 1, 2)
        state = nn.init_adam(params)

        def counted():
            before = compiled.runs()
            for _ in range(3):
                nn.adam_step(params, grads, state, 0.1)
            return compiled.runs() - before

        assert schedule.both(counted) == [{"adam_update": 3}] * 2

    @pytest.mark.parametrize("spoil", ["refusal", "non-finite-gradient"])
    def test_a_refusal_raises_before_either_range_runs(self, schedule, ranges, spoil):
        schedule(True)
        params, grads = _vectors(_tiny_config(), 1, 2)
        state = nn.init_adam(params)
        if spoil == "refusal":
            state.m = state.m.astype(np.float32)
            expect = pytest.raises(ValueError, match="^adam_step cannot update in place: state.m is not float64")
        else:
            grads.flat[-1] = np.nan
            expect = pytest.raises(FloatingPointError, match="^non-finite gradient for fc_out.b$")
        before = [a.tobytes() for a in (params.flat, state.m, state.v)]
        with expect:
            nn.adam_step(params, grads, state, 0.1)
        assert ranges == [] and state.t == 0
        assert [a.tobytes() for a in (params.flat, state.m, state.v)] == before


class TestAdamOnTwoThreads(TestAdam):
    """Every test of :class:`TestAdam` with the worker thread, as ``train``
    updates the pose network where it runs two threads: each update is two
    element ranges, the lower one on the worker."""

    @pytest.fixture(autouse=True)
    def _schedule(self, schedule, ranges):
        schedule(True)
        yield
        caller = threading.get_ident()
        assert len(ranges) % 2 == 0 and all((lo == 0) == (thread != caller) for lo, _, thread in ranges)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this ``poselift``
    with :func:`nn._side_by_side` forced to hold; killed after 30 s."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(nn.__file__).parents[1])}
    env.pop("OMP_NUM_THREADS", None)
    prelude = "import os, threading\nos.sched_getaffinity = lambda pid: {0, 1}\nfrom poselift import nn\n"
    return subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], env=env, capture_output=True,
                          text=True, timeout=30)


class TestPair:
    """:func:`nn.pair` runs ``first`` on the process's one worker thread
    when :func:`nn._side_by_side` holds, else the caller runs both."""

    @pytest.mark.parametrize("openblas, omp, cpus, side_by_side", [
        ("1", None, 2, True),
        (None, "1", 2, True),
        ("1", "4", 2, True),
        ("2", "1", 2, False),
        (None, None, 2, False),
        ("1", None, 1, False),
    ])
    def test_the_rule(self, monkeypatch, openblas, omp, cpus, side_by_side):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert nn._side_by_side() is side_by_side

    def test_first_runs_on_the_worker_when_the_rule_says(self, schedule):
        caller = threading.get_ident()
        inline, side_by_side = schedule.both(lambda: nn.pair(threading.get_ident, threading.get_ident))
        assert inline == (caller, caller) and side_by_side[1] == caller != side_by_side[0]

    def test_a_pair_nested_in_the_workers_first_runs_in_turn(self):
        """Were the nested pair to wait on the worker it runs on, it would
        wait for ever; the timeout makes that a failure, not a hang."""
        done = _run_python("""
            order = []

            def first():
                inner = nn.pair(lambda: order.append("first") or threading.get_ident(),
                                lambda: order.append("second") or threading.get_ident())
                return inner, threading.get_ident()

            ((a, b), worker), caller = nn.pair(first, threading.get_ident)
            assert a == b == worker != caller == threading.get_ident(), (a, b, worker, caller)
            assert order == ["first", "second"], order
        """)
        assert done.returncode == 0, done.stderr

    def test_a_forked_child_gets_a_working_pair(self):
        """A forked child has no copy of its parent's worker thread; were
        its executor the parent's, its first pair would wait for ever (the
        alarm ends it)."""
        done = _run_python("""
            import signal, warnings

            nn.pair(lambda: None, lambda: None)  # the parent's worker thread is running
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, Python 3.12+
                pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                worker, caller = nn.pair(threading.get_ident, threading.get_ident)
                os._exit(0 if worker != caller else 3)
            raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        assert done.returncode == 0, (done.returncode, done.stderr)


class TestLrSchedule:
    def test_exact_decay_values(self):
        assert nn.lr_schedule(0.001, 0, 0.96, 4) == 0.001
        assert nn.lr_schedule(0.001, 3, 0.96, 4) == 0.001
        assert nn.lr_schedule(0.001, 4, 0.96, 4) == 0.00096
        assert nn.lr_schedule(0.001, 7, 0.96, 4) == 0.00096
        assert nn.lr_schedule(0.001, 8, 0.96, 4) == 0.0009216

    def test_floor_division_boundaries(self):
        for epoch in range(12):
            assert nn.lr_schedule(1.0, epoch, decay=0.5, every=3) == 0.5 ** (epoch // 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.lr_schedule(0.0, 1, 0.96, 4)
        with pytest.raises(ValueError):
            nn.lr_schedule(0.1, -1, 0.96, 4)
        with pytest.raises(ValueError):
            nn.lr_schedule(0.1, 1, 0.96, every=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"decay": -0.5}, r"decay must be in \(0, 1\], got -0.5"),
        ({"decay": 0.0}, r"decay must be in \(0, 1\], got 0.0"),
        ({"decay": 1.5}, r"decay must be in \(0, 1\], got 1.5"),
        ({"decay": np.nan}, r"decay must be in \(0, 1\], got nan"),
        ({"decay": np.inf}, r"decay must be in \(0, 1\], got inf"),
        ({"base_lr": np.inf}, r"base_lr must be finite and > 0, got inf"),
        ({"base_lr": np.nan}, r"base_lr must be finite and > 0, got nan"),
        ({"base_lr": 10**400}, r"base_lr must be finite and > 0, got 10{400}$"),
    ])
    def test_bad_decay_or_base_lr_names_the_parameter(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            nn.lr_schedule(**{"base_lr": 0.001, "epoch": 4, "decay": 0.96, "every": 4, **kwargs})

    def test_decay_of_one_keeps_the_base_rate(self):
        assert nn.lr_schedule(0.001, 40, decay=1.0, every=4) == 0.001
