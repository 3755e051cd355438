import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnn import numkernel as nk
from pcnn.comparator import ComparatorConfig, ComparatorModel


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f()
        flat[i] = old - h
        down = f()
        flat[i] = old
        gflat[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    # floor guards true-zero gradients against finite-difference noise
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-4)]))


def check_param_grads(make_loss, params, tol=1e-4):
    with nk.Tape() as tape:
        loss = make_loss()
    for p in params:
        p.grad = None
    nk.backward(tape, loss)
    for p in params:
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        fd = fd_grad(lambda: float(make_loss().data), p.data)
        assert rel_err(ad, fd) < tol


class TestLinear:
    def test_identity(self):
        x = nk.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        y = nk.linear(x, nk.Tensor(np.eye(4)), nk.Tensor(np.zeros(4)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_scalar_arithmetic(self):
        y = nk.linear(nk.Tensor([[2.0]]), nk.Tensor([[3.0]]), nk.Tensor([1.0]))
        assert y.data[0, 0] == 7.0

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(nk.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            nk.linear(nk.Tensor(np.zeros((2, 3))), nk.Tensor(np.zeros((4, 5))), nk.Tensor(np.zeros(5)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = nk.Tensor(rng.normal(size=(3, 4)))
        w = nk.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = nk.Tensor(rng.normal(size=5), requires_grad=True)
        check_param_grads(lambda: nk.sum_all(nk.linear(x, w, b)), [w, b], tol=1e-6)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_input_grad_matches_finite_differences(self, shape):
        rng = np.random.default_rng(20)
        x = nk.Tensor(rng.normal(size=shape), requires_grad=True)
        w = nk.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = nk.Tensor(rng.normal(size=5), requires_grad=True)
        target = nk.Tensor(rng.normal(size=shape[:-1] + (5,)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk.linear(x, w, b), target)), [x, w, b], tol=1e-6
        )

    def test_3d_forward_matches_composed(self):
        rng = np.random.default_rng(21)
        x, w, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        y = nk.linear(nk.Tensor(x), nk.Tensor(w), nk.Tensor(b))
        np.testing.assert_allclose(y.data, x @ w + b, rtol=1e-12, atol=1e-12)


class TestGelu:
    def test_zero(self):
        assert nk.gelu(nk.Tensor(0.0)).data == 0.0

    def test_saturation(self):
        assert abs(nk.gelu(nk.Tensor(-10.0)).data) < 1e-9

    def test_reference_value(self):
        # independent high-precision oracle: x * Phi(x) via math.erf
        x = 1.0
        expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert nk.gelu(nk.Tensor(x)).data == pytest.approx(expected, abs=1e-15)

    def test_grad(self):
        x = nk.Tensor(np.linspace(-2, 2, 7), requires_grad=True)
        check_param_grads(lambda: nk.sum_all(nk.gelu(x)), [x], tol=1e-6)


class TestBatchnorm:
    def test_plus_minus_one(self):
        params = nk.BatchNormParams(2)
        x = nk.Tensor([[-1.0, -1.0], [1.0, 1.0]])
        y = nk.batchnorm(x, params, "train")
        expected = 1.0 / math.sqrt(1.0 + params.eps)
        np.testing.assert_allclose(np.abs(y.data), expected, rtol=1e-12)

    def test_eval_identity(self):
        params = nk.BatchNormParams(3)
        x = nk.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        y = nk.batchnorm(x, params, "eval")
        np.testing.assert_allclose(y.data, x.data / np.sqrt(1 + params.eps), rtol=1e-12)

    def test_constant_batch(self):
        params = nk.BatchNormParams(2)
        x = nk.Tensor(np.full((5, 2), 3.7))
        y = nk.batchnorm(x, params, "train")
        np.testing.assert_array_equal(y.data, np.zeros((5, 2)))

    def test_degenerate_batch(self):
        with pytest.raises(nk.DegenerateBatchError):
            nk.batchnorm(nk.Tensor(np.zeros((1, 2))), nk.BatchNormParams(2), "train")

    def test_running_stats_update(self):
        params = nk.BatchNormParams(1)
        x = nk.Tensor([[0.0], [2.0]])
        nk.batchnorm(x, params, "train")
        np.testing.assert_allclose(params.running_mean, [0.1])
        np.testing.assert_allclose(params.running_var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_grad(self):
        rng = np.random.default_rng(2)
        params = nk.BatchNormParams(3)
        x = nk.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        params.gamma.data = rng.normal(size=3)
        params.beta.data = rng.normal(size=3)
        target = nk.Tensor(rng.normal(size=(5, 3)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk.batchnorm(x, params, "train"), target)),
            [x, params.gamma, params.beta],
            tol=1e-5,
        )

    def _random_params(self, rng, f=3):
        params = nk.BatchNormParams(f)
        params.gamma.data = rng.normal(size=f)
        params.beta.data = rng.normal(size=f)
        params.running_mean = rng.normal(size=f)
        params.running_var = rng.uniform(0.5, 2.0, size=f)
        return params

    def test_eval_grad(self):
        rng = np.random.default_rng(22)
        params = self._random_params(rng)
        x = nk.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        target = nk.Tensor(rng.normal(size=(6, 3)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk.batchnorm(x, params, "eval"), target)),
            [x, params.gamma, params.beta],
            tol=1e-5,
        )

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_unfused_formula(self, mode):
        rng = np.random.default_rng(23)
        params = self._random_params(rng)
        rm, rv = params.running_mean.copy(), params.running_var.copy()
        x = rng.normal(size=(7, 3))
        with nk.Tape():
            y = nk.batchnorm(nk.Tensor(x, requires_grad=True), params, mode)
        if mode == "train":
            mu = x.mean(axis=0)
            var = ((x - mu) ** 2).mean(axis=0)
            np.testing.assert_allclose(params.running_mean, 0.9 * rm + 0.1 * mu, rtol=1e-14)
            np.testing.assert_allclose(params.running_var, 0.9 * rv + 0.1 * var, rtol=1e-14)
        else:
            mu, var = rm, rv
            np.testing.assert_array_equal(params.running_mean, rm)
            np.testing.assert_array_equal(params.running_var, rv)
        expected = (x - mu) / np.sqrt(var + params.eps) * params.gamma.data + params.beta.data
        np.testing.assert_allclose(y.data, expected, rtol=1e-12, atol=1e-12)


class TestMhsa:
    def _params(self, d, seed=0):
        return nk.AttentionParams(d, np.random.default_rng(seed), std=0.3)

    def test_single_token_softmax_over_one_key(self):
        d = 4
        p = self._params(d)
        x = np.random.default_rng(1).normal(size=(2, 1, d))
        out = nk.mhsa(nk.Tensor(x), p, heads=2)
        v = x @ p.wv.data + p.bv.data
        expected = v @ p.wo.data + p.bo.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_rows_sum_to_one(self):
        x = nk.Tensor(np.random.default_rng(2).normal(size=(2, 5, 4)))
        s = nk.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_indivisible_heads(self):
        p = self._params(4)
        with pytest.raises(nk.ConfigError):
            nk.mhsa(nk.Tensor(np.zeros((1, 2, 4))), p, heads=3)

    def test_grad(self):
        d = 4
        p = self._params(d, seed=3)
        x = np.random.default_rng(4).normal(size=(2, 3, d))
        target = np.random.default_rng(5).normal(size=(2, 3, d))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk.mhsa(nk.Tensor(x), p, heads=2), nk.Tensor(target))),
            p.tensors(),
            tol=1e-5,
        )


class TestCrossAttention:
    def _params(self, d, seed=0):
        return nk.AttentionParams(d, np.random.default_rng(seed), std=0.3)

    def test_identical_tokens_ignore_weights(self):
        d = 4
        rng = np.random.default_rng(6)
        y1 = rng.normal(size=(1, 3, d))
        row = rng.normal(size=d)
        y2 = np.broadcast_to(row, (1, 3, d)).copy()
        p1 = self._params(d, seed=1)
        p2 = self._params(d, seed=2)
        # make value/output paths identical; only q/k (attention weights) differ
        p2.wv.data = p1.wv.data.copy()
        p2.bv.data = p1.bv.data.copy()
        p2.wo.data = p1.wo.data.copy()
        p2.bo.data = p1.bo.data.copy()
        z1a, _ = nk.cross_attention(nk.Tensor(y1), nk.Tensor(y2), p1, heads=2)
        z1b, _ = nk.cross_attention(nk.Tensor(y1), nk.Tensor(y2), p2, heads=2)
        np.testing.assert_allclose(z1a.data[:, 0], z1b.data[:, 0], rtol=1e-10)

    def test_swap_symmetry(self):
        d = 4
        rng = np.random.default_rng(7)
        a = nk.Tensor(rng.normal(size=(2, 3, d)))
        b = nk.Tensor(rng.normal(size=(2, 3, d)))
        p = self._params(d, seed=3)
        z1, z2 = nk.cross_attention(a, b, p, heads=2)
        w1, w2 = nk.cross_attention(b, a, p, heads=2)
        np.testing.assert_array_equal(z1.data, w2.data)
        np.testing.assert_array_equal(z2.data, w1.data)

    def test_shape_mismatch(self):
        p = self._params(4)
        with pytest.raises(nk.ShapeError):
            nk.cross_attention(nk.Tensor(np.zeros((1, 2, 4))), nk.Tensor(np.zeros((1, 3, 4))), p, heads=2)

    def test_grad_two_token_toy(self):
        d = 4
        p = self._params(d, seed=4)
        rng = np.random.default_rng(8)
        y1 = np.random.default_rng(9).normal(size=(1, 2, d))
        y2 = np.random.default_rng(10).normal(size=(1, 2, d))
        t1 = rng.normal(size=(1, 2, d))
        t2 = rng.normal(size=(1, 2, d))

        def loss():
            z1, z2 = nk.cross_attention(nk.Tensor(y1), nk.Tensor(y2), p, heads=2)
            return nk.sum_all(nk.add(nk.mul(z1, nk.Tensor(t1)), nk.mul(z2, nk.Tensor(t2))))

        check_param_grads(loss, p.tensors(), tol=1e-5)


class TestAttentionCore:
    @pytest.mark.parametrize("s,t", [(3, 5), (1, 4)])  # 1 x T: cross-attention's CLS query
    def test_grads_match_finite_differences(self, s, t):
        rng = np.random.default_rng(25)
        q = nk.Tensor(rng.normal(size=(2, 2, s, 3)), requires_grad=True)
        k = nk.Tensor(rng.normal(size=(2, 2, t, 3)), requires_grad=True)
        v = nk.Tensor(rng.normal(size=(2, 2, t, 3)), requires_grad=True)
        target = nk.Tensor(rng.normal(size=(2, 2, s, 3)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk._attend(q, k, v, 0.7), target)), [q, k, v], tol=1e-5
        )

    def test_matches_composed_softmax(self):
        rng = np.random.default_rng(26)
        q, k, v = (rng.normal(size=(2, 3, n, 4)) for n in (2, 5, 5))
        out = nk._attend(nk.Tensor(q), nk.Tensor(k), nk.Tensor(v), 0.5)
        scores = q @ np.swapaxes(k, -1, -2) * 0.5
        probs = np.exp(scores) / np.exp(scores).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data, probs @ v, rtol=1e-12, atol=1e-12)


class TestCopyFreeAccumulation:
    def test_add_same_input_twice(self):
        x = nk.Tensor(np.random.default_rng(27).normal(size=(2, 3)), requires_grad=True)
        check_param_grads(lambda: nk.sum_all(nk.mul(nk.add(x, x), nk.add(x, x))), [x])
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.add(x, x))
        x.grad = None
        nk.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_residual_gradient_reaching_two_inputs(self):
        # z = y + x with y = x + gelu(x W): z's upstream gradient is handed to
        # y and x as the same array, and x collects two more terms afterwards
        rng = np.random.default_rng(28)
        x = nk.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = nk.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        target = nk.Tensor(rng.normal(size=(3, 4)))

        def loss():
            y = nk.add(x, nk.gelu(nk.matmul(x, w)))
            return nk.sum_all(nk.mul(nk.add(y, x), target))

        check_param_grads(loss, [x, w], tol=1e-6)


def _default_step(model, rng, batch=4):
    cfg = model.cfg
    g1 = rng.normal(size=(batch, cfg.tokens, cfg.depth))
    g2 = rng.normal(size=(batch, cfg.tokens, cfg.depth))
    y = np.array([1.0, 0.0] * (batch // 2))
    with nk.Tape() as tape:
        loss = nk.bce_with_logits(model.forward_logits(g1, g2, mode="train"), y)
    for _, t in model.parameters():
        t.grad = None
    nk.backward(tape, loss)
    return tape


class TestTrainingStep:
    def test_tape_nodes_per_default_step(self):
        # default comparator at the synthetic default shape (D=64, T=4)
        model = ComparatorModel(ComparatorConfig(depth=64, tokens=4), seed=0)
        tape = _default_step(model, np.random.default_rng(29))
        assert len(tape.nodes) == 83

    def test_identical_steps_give_bitwise_equal_grads(self):
        model = ComparatorModel(ComparatorConfig(depth=16, tokens=3, heads=4), seed=1)
        model.mlp_w[3].data = np.random.default_rng(30).normal(size=model.mlp_w[3].data.shape)
        grads = []
        for _ in range(2):
            _default_step(model, np.random.default_rng(31), batch=6)
            grads.append({name: t.grad.copy() for name, t in model.parameters()})
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)


class TestBce:
    def test_ln2_at_zero(self):
        loss = nk.bce_with_logits(nk.Tensor([0.0]), np.array([1.0]))
        assert loss.data == pytest.approx(math.log(2), rel=1e-12)

    def test_saturation_no_overflow(self):
        loss = nk.bce_with_logits(nk.Tensor([40.0]), np.array([1.0]))
        assert 0 <= loss.data < 1e-15

    def test_balanced_batch(self):
        loss = nk.bce_with_logits(nk.Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
        assert loss.data == pytest.approx(math.log(2), rel=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            nk.bce_with_logits(nk.Tensor([0.0]), np.array([0.5]))

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8), st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, logits, labelbits):
        y = np.array([(labelbits >> i) & 1 for i in range(len(logits))], dtype=float)
        loss = nk.bce_with_logits(nk.Tensor(logits), y)
        assert loss.data >= 0

    def test_grad(self):
        o = nk.Tensor(np.linspace(-3, 3, 6), requires_grad=True)
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        check_param_grads(lambda: nk.bce_with_logits(o, y), [o], tol=1e-6)


class TestBackward:
    def test_unused_input_zero_grad(self):
        x = nk.Tensor(np.ones(3), requires_grad=True)
        unused = nk.Tensor(np.ones(3), requires_grad=True)
        x.zero_grad()
        unused.zero_grad()
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.mul(x, x))
        nk.backward(tape, loss)
        np.testing.assert_array_equal(unused.grad, np.zeros(3))
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_foreign_loss_rejected(self):
        x = nk.Tensor(np.ones(3), requires_grad=True)
        with nk.Tape():
            loss = nk.sum_all(x)
        with nk.Tape() as other:
            nk.sum_all(x)
        with pytest.raises(nk.TapeError):
            nk.backward(other, loss)

    def test_nonscalar_loss_rejected(self):
        x = nk.Tensor(np.ones(3), requires_grad=True)
        with nk.Tape() as tape:
            y = nk.mul(x, x)
        with pytest.raises(nk.TapeError):
            nk.backward(tape, y)

    def test_backward_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        x = nk.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = nk.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def run():
            x.grad = None
            w.grad = None
            with nk.Tape() as tape:
                loss = nk.sum_all(nk.gelu(nk.matmul(x, w)))
            nk.backward(tape, loss)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1[0], g2[0])
        np.testing.assert_array_equal(g1[1], g2[1])

    def test_forward_purity(self):
        rng = np.random.default_rng(12)
        x = nk.Tensor(rng.normal(size=(2, 3)))
        a = nk.gelu(x).data
        b = nk.gelu(x).data
        np.testing.assert_array_equal(a, b)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_random_op_grads(seed):
    rng = np.random.default_rng(seed)
    x = nk.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = nk.Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def loss():
        h = nk.gelu(nk.matmul(x, w))
        return nk.mean_all(nk.mul(h, h))

    check_param_grads(loss, [x, w], tol=1e-4)
