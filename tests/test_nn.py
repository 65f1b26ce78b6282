"""Network plumbing tests: layout, shapes, determinism, Adam.

Gradient correctness has its own finite-difference suite; these tests
pin everything else: the parameter layout and its views into one
vector, forward-pass semantics in train and eval mode, the exact Adam
update rule against an independent scalar implementation and against
the whole-array formula, on the compiled loop and on the numpy passes,
in one element range and in two on two threads, and the learning-rate
schedule values.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import re
import shutil
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from poselift import compiled, nn
from poselift.checks import fields_from_json
from poselift.data import Dataset
from poselift.pipeline import TrainConfig, train
from poselift.synth import SceneConfig, generate_dataset



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


class TestLayerNorm:
    @pytest.mark.parametrize("rows, width", [
        (1, 8), (1, 1024), (2, 1), (3, 1), (7, 8), (33, 64), (64, 1024), (400, 1024), (400, 51), (5, 129),
    ])
    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e12], ids=["centred", "offset", "large-offset"])
    def test_same_bytes_as_the_earlier_formula(self, rows, width, offset):
        """Output and cache byte for byte, on rows that sit far from zero
        as well as on centred ones; a 1-wide row centres to exactly 0."""
        rng = np.random.default_rng(rows * 1031 + width)
        x = rng.normal(offset, 1.0 + abs(offset) * 1e-6, size=(rows, width)) * rng.uniform(0.5, 2.0, size=(rows, 1))
        g, b = rng.normal(1.0, 0.2, size=width), rng.normal(0.0, 0.2, size=width)
        out, (xhat, inv) = nn._layernorm_forward(x, g, b)
        ref_out, (ref_xhat, ref_inv) = _ref_layernorm_forward(x, g, b)
        for got, want in ((out, ref_out), (xhat, ref_xhat), (inv, ref_inv)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBackwardInterface:
    def test_dy_shape_is_checked(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(14))
        _, cache = nn.forward(params, config, np.zeros((2, 6)))
        with pytest.raises(ValueError):
            nn.backward(params, config, cache, np.zeros((3, 4)), nn.ParamVector(config))

    def test_gradients_cover_every_parameter(self):
        config = _tiny_config()
        params = nn.init_params(config, np.random.default_rng(15))
        y, cache = nn.forward(params, config, np.random.default_rng(16).normal(size=(2, 6)))
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
        m = (1.0 - 0.9) * g
        v = (1.0 - 0.999) * g * g
        p = p - 0.1 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
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


class _OnTheNumpyPasses:
    """Runs every test of the class it is mixed into on the numpy passes."""

    @pytest.fixture(autouse=True)
    def _numpy_passes(self, numpy_passes):
        before = compiled.runs()
        with numpy_passes():
            yield
        assert set(compiled.runs() - before) <= {("adam_update", "the numpy passes (forced by the test)")}


class TestAdamOnTheNumpyPasses(_OnTheNumpyPasses, TestAdam):
    """Every test of :class:`TestAdam`, which runs the compiled loop where
    ``cc`` is found, on the numpy passes."""


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


def _updates(size, steps, seed, worker=None):
    """A digest of the bytes of p, m and v after each of ``steps`` updates,
    with the same gradients and rates on every call, split in two element
    ranges when a ``worker`` is given."""
    rng = np.random.default_rng(seed)
    params = _Flat(rng.normal(size=size))
    state = nn.AdamState(m=np.zeros(size), v=np.zeros(size))
    out = []
    with np.errstate(all="ignore"):
        for t in range(steps):
            nn.adam_step(params, _Flat(_hard_gradient(rng, size)), state, nn.lr_schedule(0.05, t, 0.96, 4), worker)
            out.append(hashlib.sha256(b"".join(a.tobytes() for a in (params.flat, state.m, state.v))).digest())
    return out


def _compiled_then_numpy(numpy_passes, run):
    """``run()`` on the compiled loop, checked to have run it, then on the
    numpy passes."""
    before = compiled.runs()
    fast = run()
    assert set(compiled.runs() - before) == {("adam_update", "the compiled C loop")}
    with numpy_passes():
        return fast, run()


def _trained_bits(config, dataset):
    bundle, logs = train(config, dataset)
    return json.dumps(logs), bundle.pose_params.flat.tobytes(), bundle.depth_params.flat.tobytes()


@pytest.fixture(scope="module")
def criterion6_data():
    """Criterion 6's data set."""
    return generate_dataset(np.random.Generator(np.random.Philox([5, 100])), SceneConfig(), 24, 12)


@pytest.mark.needs_cc
class TestCompiledAdam:
    def test_the_loop_loads(self, monkeypatch):
        monkeypatch.setattr(compiled, "_library", None)
        before = compiled.runs()
        params, grads = _vectors(_tiny_config(), 1, 2)
        nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        assert compiled._library[0] is not None, compiled._library[1]
        assert compiled.runs() - before == {("adam_update", "the compiled C loop"): 1}

    @pytest.mark.parametrize("source, which, why", [
        (compiled._SOURCE, lambda name: None, r"no C compiler \(cc\) on PATH"),
        ("int adam_update(void) { return nope; }", shutil.which, r"cc failed with status 1: \S*loops\.c:1:\d+: error: .*nope.*"),
    ], ids=["no-cc", "cc-fails"])
    def test_a_loop_that_does_not_build_leaves_the_numpy_passes(self, monkeypatch, source, which, why):
        monkeypatch.setattr(compiled, "_library", None)
        monkeypatch.setattr(compiled, "_SOURCE", source)
        monkeypatch.setattr(shutil, "which", which)
        before = compiled.runs()
        params, grads = _vectors(_tiny_config(), 1, 2)
        nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
        (((loop, path), updates),) = (compiled.runs() - before).items()
        assert loop == "adam_update"
        assert re.fullmatch(rf"the numpy passes \({why}\)", path) and updates == 1

    @pytest.mark.parametrize("size, steps", [(1, 400), (7, 400), (16_385, 400), (None, 2)],
                             ids=["1", "7", "16385", "width-1024"])
    def test_same_bytes_as_the_numpy_passes(self, numpy_passes, size, steps):
        """At t = 356, 1 - 0.9**t rounds to 1.0; the width-1024 layout is
        the 4.3M-element pose network of the benchmark."""
        if size is None:
            size = nn.ParamVector(nn.MlpConfig(51, 51, hidden_dim=1024)).flat.size
        compiled, reference = _compiled_then_numpy(numpy_passes, lambda: _updates(size, steps, seed=size))
        assert 1.0 - 0.9**356 == 1.0 and 1.0 - 0.9**355 != 1.0
        for t, (a, b) in enumerate(zip(compiled, reference), start=1):
            assert a == b, f"step {t}"

    @pytest.mark.parametrize("lambda_weight, weak", [(1e-3, "labelled"), (1e-3, "unlabelled"), (0.0, "none")],
                             ids=["weak", "no-labels", "lambda-0"])
    def test_training_gives_the_same_bits(self, numpy_passes, criterion6_data, lambda_weight, weak):
        """Criterion 6's config, with weak data, with its labels stripped,
        and at lambda = 0 without it (as criterion 4 trains its baseline)."""
        samples = {"labelled": criterion6_data.weak, "none": [],
                   "unlabelled": [dataclasses.replace(s, eval_visibility=None) for s in criterion6_data.weak]}[weak]
        dataset = Dataset(criterion6_data.annotated, samples)
        config = TrainConfig(epochs=3, batch_size=8, hidden_dim=64, num_blocks=1, depth_hidden_dim=64,
                             depth_num_blocks=1, lambda_weight=lambda_weight, alpha=2500.0, seed=0)
        compiled, reference = _compiled_then_numpy(numpy_passes, lambda: _trained_bits(config, dataset))
        assert compiled == reference

    @pytest.mark.parametrize("errstate, outcome", [
        ({}, "warn"), ({"over": "raise"}, "raise"), ({"over": "ignore"}, "quiet"),
    ])
    def test_an_overflow_obeys_errstate_on_both_paths(self, numpy_passes, errstate, outcome):
        """(g * (1 - beta2)) * g overflows for g = 1e160.  Raising, the numpy
        passes stop inside the update and the loop after it."""
        def step():
            params, grads = _vectors(_tiny_config(), 1, 2)
            grads.flat[3] = 1e160
            expect = {"raise": pytest.raises(FloatingPointError, match="^overflow encountered in "),
                      "warn": pytest.warns(RuntimeWarning, match="^overflow encountered in "),
                      "quiet": contextlib.nullcontext()}[outcome]
            with np.errstate(**errstate), expect:
                nn.adam_step(params, grads, nn.init_adam(params), lr=0.1)
            return params.flat.tobytes()

        compiled, reference = _compiled_then_numpy(numpy_passes, step)
        assert outcome == "raise" or compiled == reference

    def test_an_overflow_in_both_ranges_is_warned_once(self, worker):
        """The loop's flags from both ranges are reported together."""
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads.flat[[0, -1]] = 1e160
        with warnings.catch_warnings(record=True) as seen, np.errstate(over="warn"):
            warnings.simplefilter("always")
            nn.adam_step(params, grads, nn.init_adam(params), 0.1, worker)
        assert [str(w.message) for w in seen] == ["overflow encountered in adam_step"]


@pytest.fixture
def worker():
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


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
    """:func:`nn.adam_step` with a worker: the lower half of the elements
    there, the upper half in the caller."""

    @pytest.mark.parametrize("size, steps", [(1, 400), (2, 400), (3, 400), (16_385, 400), (None, 2)],
                             ids=["1", "2", "3", "16385", "width-1024"])
    def test_same_bytes_as_one_range(self, worker, size, steps):
        if size is None:
            size = nn.ParamVector(nn.MlpConfig(51, 51, hidden_dim=1024)).flat.size
        split, whole = _updates(size, steps, size, worker), _updates(size, steps, size)
        for t, (a, b) in enumerate(zip(split, whole), start=1):
            assert a == b, f"step {t}"

    def test_the_lower_range_runs_on_the_worker(self, worker, ranges):
        params, grads = _vectors(_tiny_config(), 1, 2)
        n = params.flat.size
        nn.adam_step(params, grads, nn.init_adam(params), 0.1, worker)
        (lo, mid, thread), (upper, end, caller) = sorted(ranges)
        assert (lo, mid, upper, end) == (0, n // 2, n // 2, n)
        assert caller == threading.get_ident() != thread
        ranges.clear()
        nn.adam_step(params, grads, nn.init_adam(params), 0.1)
        assert ranges == [(0, n, threading.get_ident())]

    @pytest.mark.parametrize("errstate, outcome", [({"over": "raise"}, "raise"), ({"over": "warn"}, "warn")])
    def test_an_overflow_in_the_worker_range_alone_is_reported_once(self, worker, errstate, outcome):
        """(g * (1 - beta2)) * g overflows for g = 1e160, at element 0."""
        params, grads = _vectors(_tiny_config(), 1, 2)
        grads.flat[0] = 1e160
        with warnings.catch_warnings(record=True) as seen, np.errstate(**errstate):
            warnings.simplefilter("always")
            expect = pytest.raises(FloatingPointError, match="^overflow encountered in ")
            with expect if outcome == "raise" else contextlib.nullcontext():
                nn.adam_step(params, grads, nn.init_adam(params), 0.1, worker)
        shown = [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]
        assert len(shown) == (outcome == "warn") and all(m.startswith("overflow encountered in ") for m in shown)

    def test_runs_counts_one_call_per_update(self, worker):
        params, grads = _vectors(_tiny_config(), 1, 2)
        state = nn.init_adam(params)
        before = compiled.runs()
        for _ in range(3):
            nn.adam_step(params, grads, state, 0.1, worker)
        ((loop, _), updates), = (compiled.runs() - before).items()
        assert loop == "adam_update" and updates == 3

    @pytest.mark.parametrize("spoil", ["refusal", "non-finite-gradient"])
    def test_a_refusal_raises_before_either_range_runs(self, worker, ranges, spoil):
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
            nn.adam_step(params, grads, state, 0.1, worker)
        assert ranges == [] and state.t == 0
        assert [a.tobytes() for a in (params.flat, state.m, state.v)] == before


class TestAdamInTwoRangesOnTheNumpyPasses(_OnTheNumpyPasses, TestAdamInTwoRanges):
    """Every test of :class:`TestAdamInTwoRanges` on the numpy passes."""


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
