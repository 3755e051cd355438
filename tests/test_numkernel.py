import ctypes
import importlib.util
import inspect
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
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
        q = nk.Tensor(rng.normal(size=(2, s, 6)), requires_grad=True)
        k = nk.Tensor(rng.normal(size=(2, t, 6)), requires_grad=True)
        v = nk.Tensor(rng.normal(size=(2, t, 6)), requires_grad=True)
        target = nk.Tensor(rng.normal(size=(2, s, 6)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk._attend(q, k, v, 2), target)), [q, k, v], tol=1e-5
        )

    def test_matches_composed_softmax(self):
        # S != T: heads split by reshape/transpose, merged back the same way
        rng = np.random.default_rng(26)
        b, h, dh = 2, 3, 4
        q, k, v = (rng.normal(size=(b, n, h * dh)) for n in (2, 5, 5))
        out = nk._attend(nk.Tensor(q), nk.Tensor(k), nk.Tensor(v), h)

        def split(x):
            return x.reshape(b, -1, h, dh).transpose(0, 2, 1, 3)

        scores = split(q) @ np.swapaxes(split(k), -1, -2) / np.sqrt(dh)
        probs = np.exp(scores) / np.exp(scores).sum(axis=-1, keepdims=True)
        want = (probs @ split(v)).transpose(0, 2, 1, 3).reshape(b, 2, h * dh)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)


class TestGather:
    def test_rows_with_repeats(self):
        x = np.random.default_rng(40).normal(size=(4, 2, 3))
        rows = [2, 0, 2, 3]
        np.testing.assert_array_equal(nk.gather(nk.Tensor(x), rows).data, x[rows])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        x = nk.Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        rows = np.array([3, 1, 3, 3, 0])  # row 3 three times, rows 2 and 4 never
        target = nk.Tensor(rng.normal(size=(5, 2, 3)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk.gather(x, rows), target)), [x], tol=1e-6
        )

    def test_repeated_rows_sum_and_unselected_rows_get_zero(self):
        rng = np.random.default_rng(42)
        x = nk.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        rows = np.array([1, 3, 1, 1])
        target = rng.normal(size=(4, 3))
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.mul(nk.gather(x, rows), nk.Tensor(target)))
        nk.backward(tape, loss)
        want = np.zeros((4, 3))
        want[1] = target[0] + target[2] + target[3]
        want[3] = target[1]
        np.testing.assert_allclose(x.grad, want, rtol=1e-15, atol=0)
        assert not x.grad[[0, 2]].any()

    # (source shape, rows): repeated rows, rows never gathered, (n, D),
    # (n, 1, D), (n, T, D), one column, an empty gather and negative rows
    BACKWARD_CASES = [
        ((6, 4), [5, 0, 5, 5, 2]),
        ((5, 1, 8), [3, 3, 1, 0, 3, 4, 1]),
        ((4, 3, 5), [2, 0, 2, 3, 2, 2]),
        ((7, 1), [6, 6, 0]),
        ((5, 2, 3), []),
        ((5, 2, 3), [-1, 4, 0, -5, -1]),
    ]

    @pytest.mark.parametrize("shape,rows", BACKWARD_CASES)
    def test_backward_bitwise_equals_sparse_onehot_product(self, shape, rows):
        rng = np.random.default_rng(43)
        rows = np.array(rows, dtype=np.intp)
        n, m, width = len(rows), shape[0], math.prod(shape[1:])
        g = rng.normal(size=(n, *shape[1:]))
        g[rng.random(g.shape) < 0.3] = -0.0  # a sum's sign shows whether it starts at +0.0
        x = nk.Tensor(rng.normal(size=shape), requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.mul(nk.gather(x, rows), nk.Tensor(g)))
        nk.backward(tape, loss)
        onehot = scipy.sparse.csc_matrix((np.ones(n), rows % m, np.arange(n + 1)), shape=(m, n))
        want = np.asarray(onehot @ g.reshape(n, width)).reshape(shape)
        assert x.grad.shape == shape and x.grad.tobytes() == want.tobytes()
        never = np.setdiff1d(np.arange(m), rows % m)
        assert not np.signbit(x.grad[never]).any() and not x.grad[never].any()


# a tiny `run_seed` at perfbench's warm-up shape after `import pcnn.cli`; then
# scipy's own packages, which must reuse the extension modules numkernel took
IMPORT_GUARD = """
import sys
import pcnn.cli
from pcnn import numkernel
from pcnn.experiment import ExperimentConfig, run_seed
loaded = {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}
assert loaded == {"scipy.special._special_ufuncs", "scipy.sparse._sparsetools"}, loaded
spec = {"classes": 4, "train_per_class": 6, "test_per_class": 4, "depth": 16, "tokens": 2,
        "groups": 2}
cfg = ExperimentConfig(seeds=[1], output_dir=sys.argv[1], synthetic=spec, sampler={"q": 2},
                       train={"epochs": 1, "max_lr": 0.05}, rerank={"k": 3})
before = set(sys.modules)
run_seed(cfg, 1, sys.argv[1])
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
import numpy as np
import scipy.sparse
import scipy.special
assert numkernel.erf is scipy.special.erf
product = scipy.sparse.csc_matrix(([1.0, 2.0], [0, 1], [0, 1, 2]), shape=(2, 2)) @ np.ones(2)
assert product.tolist() == [1.0, 2.0]
"""


class TestScipyExtension:
    def test_imports_only_the_two_extension_modules(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_module_names_the_directory_searched(self):
        where = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                             "special")
        with pytest.raises(ImportError, match="_no_such_module") as err:
            nk._scipy_extension("special", "_no_such_module", "erf")
        assert where in str(err.value)
        assert "scipy.special._no_such_module" not in sys.modules

    def test_missing_attribute_names_the_file(self):
        with pytest.raises(ImportError, match="_special_ufuncs.*has no 'no_such_ufunc'"):
            nk._scipy_extension("special", "_special_ufuncs", "no_such_ufunc")


class TestAttendOneQuery:
    @staticmethod
    def inputs(seed, b=3, t=5, d=8):
        rng = np.random.default_rng(seed)
        return [nk.Tensor(rng.normal(size=(b, n, d)), requires_grad=True) for n in (1, t, t)]

    def test_dispatches_on_query_length(self):
        q, k, v = self.inputs(43)
        np.testing.assert_array_equal(
            nk._attend(q, k, v, 4).data, nk._attend_one(q, k, v, 4).data
        )

    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    def test_matches_batched_body(self, heads):
        q, k, v = self.inputs(44)
        target = np.random.default_rng(45).normal(size=(3, 1, 8))
        results = []
        for body in (nk._attend_one, nk._attend_many):
            with nk.Tape() as tape:
                out = body(q, k, v, heads)
                loss = nk.sum_all(nk.mul(out, nk.Tensor(target)))
            for t in (q, k, v):
                t.grad = None
            nk.backward(tape, loss)
            results.append([out.data] + [t.grad for t in (q, k, v)])
        for one, many in zip(*results):
            np.testing.assert_allclose(one, many, rtol=1e-12, atol=1e-12)

    def test_grads_match_finite_differences(self):
        q, k, v = self.inputs(46)
        target = nk.Tensor(np.random.default_rng(47).normal(size=(3, 1, 8)))
        check_param_grads(
            lambda: nk.sum_all(nk.mul(nk._attend_one(q, k, v, 2), target)), [q, k, v], tol=1e-5
        )


    def test_partner_rows_bitwise_equal_to_gathered_rows(self):
        # reading the rows in place gives the bits of gathering them first, in
        # the output and in every gradient (the scatter-adds keep their order)
        rng = np.random.default_rng(48)
        q, k, v = (nk.Tensor(rng.normal(size=(5, n, 8)), requires_grad=True) for n in (1, 4, 4))
        rows, partners = np.array([4, 0, 4, 2, 1, -1]), np.array([1, 3, 3, 0, 4, 3])
        target = nk.Tensor(rng.normal(size=(6, 1, 8)))
        results = []
        for core in (lambda: nk._attend_one(q, k, v, 2, rows, partners),
                     lambda: nk._attend_one(nk.gather(q, rows), nk.gather(k, partners),
                                            nk.gather(v, partners), 2)):
            for t in (q, k, v):
                t.grad = None
            with nk.Tape() as tape:
                out = core()
                loss = nk.sum_all(nk.mul(out, target))
            nk.backward(tape, loss)
            results.append([out.data] + [t.grad for t in (q, k, v)])
        for one, gathered in zip(*results):
            assert one.tobytes() == gathered.tobytes()

    def test_partner_rows_out_of_range(self):
        q, k, v = self.inputs(49)
        with pytest.raises(IndexError):
            nk._attend_one(q, k, v, 2, [0, 1], [0, 3])


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


def _pair_batch(rng, records, pairs):
    """Grids of `records` distinct records at the default shape (D=64, T=4),
    the two sides of `pairs` pairs among them, and balanced labels."""
    return (rng.normal(size=(records, 4, 64)), np.arange(pairs),
            np.arange(records - pairs, records), np.array([1.0, 0.0] * (pairs // 2)))


def _train_step(model, grids, at1, at2, y):
    """One training step as `comparator.train` takes it, grads cleared before
    the forward; returns the logits and loss, which `train` keeps while the
    next step runs."""
    for _, t in model.parameters():
        t.grad = None
    with nk.Tape() as tape:
        logits = model.pair_logits(model.records(grids), at1, at2, "train")
        loss = nk.bce_with_logits(logits, y)
    nk.backward(tape, loss)
    return logits, loss


class TestTrainingStep:
    def test_tape_nodes_per_default_step(self):
        # default comparator at the synthetic default shape (D=64, T=4); the
        # replay drops every closure and keeps every node. The cross layer's
        # partner rows are read in place: one node, not three gathers and a core
        model = ComparatorModel(ComparatorConfig(depth=64, tokens=4), seed=0)
        tape = _default_step(model, np.random.default_rng(29))
        assert len(tape.nodes) == 27
        assert all(node._backward is None for node in tape.nodes)

    def test_identical_steps_give_bitwise_equal_grads(self):
        model = ComparatorModel(ComparatorConfig(depth=16, tokens=3, heads=4), seed=1)
        model.mlp_w[3].data = np.random.default_rng(30).normal(size=model.mlp_w[3].data.shape)
        grads = []
        for _ in range(2):
            _default_step(model, np.random.default_rng(31), batch=6)
            grads.append({name: t.grad.copy() for name, t in model.parameters()})
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)


    def test_backward_drops_tape_grads_and_keeps_parameter_grads(self):
        def step(model, replay):
            rng = np.random.default_rng(32)
            g1, g2 = rng.normal(size=(2, 6, 3, 16))
            with nk.Tape() as tape:
                loss = nk.bce_with_logits(model.forward_logits(g1, g2, mode="train"),
                                          np.array([1.0, 0.0] * 3))
            for _, t in model.parameters():
                t.grad = None
            replay(tape, loss)
            return tape, {name: t.grad.copy() for name, t in model.parameters()}

        def replay_keeping_grads(tape, loss):
            # reference replay that leaves every tape node's grad in place
            loss.grad = np.ones(())
            for node in reversed(tape.nodes):
                if node.grad is not None and node._backward is not None:
                    node._backward(node.grad)

        model = ComparatorModel(ComparatorConfig(depth=16, tokens=3, heads=4), seed=2)
        model.mlp_w[3].data = np.random.default_rng(33).normal(size=model.mlp_w[3].data.shape)
        tape, got = step(model, nk.backward)
        assert all(node.grad is None for node in tape.nodes)
        ref_tape, want = step(model, replay_keeping_grads)
        assert any(node.grad is not None for node in ref_tape.nodes)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_second_step_peak_matches_first(self):
        # train keeps the last step's logits and loss while the next step's
        # forward runs; they must not keep that step's graph alive
        model = ComparatorModel(ComparatorConfig(depth=64, tokens=4), seed=0)
        batch = _pair_batch(np.random.default_rng(35), records=128, pairs=64)
        peaks, kept = [], None
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                kept = _train_step(model, *batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="glibc malloc only")
    def test_steps_reuse_the_freed_heap(self):
        # a step frees the last step's graph at once; handing that memory
        # back to the kernel would fault 2,000-3,000 pages in again a step
        model = ComparatorModel(ComparatorConfig(depth=64, tokens=4), seed=0)
        batch = _pair_batch(np.random.default_rng(36), records=320, pairs=256)
        faults = []
        for _ in range(6):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _train_step(model, *batch)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sorted(faults[2:])[1] < 300, faults


def _leaf(rng, *shape):
    return nk.Tensor(rng.normal(size=shape), requires_grad=True)


# every op that records a tape node, built on small inputs that all require a
# gradient; batchnorm in both modes, `_attend_one` plain and on index arrays
OP_BUILDERS = {
    "add": lambda r: nk.add(_leaf(r, 2, 3), _leaf(r, 3)),
    "sub": lambda r: nk.sub(_leaf(r, 2, 3), _leaf(r, 1, 3)),
    "mul": lambda r: nk.mul(_leaf(r, 2, 3), _leaf(r, 2, 3)),
    "pow_scalar": lambda r: nk.pow_scalar(_leaf(r, 2, 3), 3.0),
    "matmul": lambda r: nk.matmul(_leaf(r, 2, 3), _leaf(r, 3, 4)),
    "reshape": lambda r: nk.reshape(_leaf(r, 2, 3), (3, 2)),
    "transpose": lambda r: nk.transpose(_leaf(r, 2, 3, 4), (2, 0, 1)),
    "concat": lambda r: nk.concat([_leaf(r, 2, 3), _leaf(r, 2, 1)], axis=1),
    "slice_axis": lambda r: nk.slice_axis(_leaf(r, 2, 3), 1, 0, 2),
    "gather": lambda r: nk.gather(_leaf(r, 4, 3), [3, 0, -1]),
    "broadcast_to": lambda r: nk.broadcast_to(_leaf(r, 1, 3), (2, 3)),
    "mean_axis": lambda r: nk.mean_axis(_leaf(r, 2, 3), 1),
    "sum_all": lambda r: nk.sum_all(_leaf(r, 2, 3)),
    "mean_all": lambda r: nk.mean_all(_leaf(r, 2, 3)),
    "gelu": lambda r: nk.gelu(_leaf(r, 2, 3)),
    "sigmoid": lambda r: nk.sigmoid(_leaf(r, 2, 3)),
    "softmax": lambda r: nk.softmax(_leaf(r, 2, 3)),
    "bce_with_logits": lambda r: nk.bce_with_logits(_leaf(r, 4), np.array([1.0, 0.0, 1.0, 0.0])),
    "linear": lambda r: nk.linear(_leaf(r, 2, 3, 4), _leaf(r, 4, 5), _leaf(r, 5)),
    "batchnorm": lambda r: [nk.batchnorm(_leaf(r, 4, 3), nk.BatchNormParams(3), mode)
                            for mode in ("train", "eval")],
    "_attend_many": lambda r: nk._attend_many(_leaf(r, 2, 3, 4), _leaf(r, 2, 5, 4),
                                              _leaf(r, 2, 5, 4), 2),
    "_attend_one": lambda r: [nk._attend_one(_leaf(r, 2, 1, 4), _leaf(r, 2, 5, 4),
                                             _leaf(r, 2, 5, 4), 2),
                              nk._attend_one(_leaf(r, 3, 1, 4), _leaf(r, 2, 5, 4),
                                             _leaf(r, 2, 5, 4), 2, [2, 0, 2, 1], [1, 1, 0, 0])],
}

# what a backward closure may hold: nodes, arrays, shapes, indices and scalars
_PLAIN = (nk.Node, np.ndarray, np.generic, int, float, str, slice, type(None))


def _closure_values(fn, path):
    """(path, value) of everything fn's closure holds, through the tuples,
    lists and nested functions in it."""
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        stack = [(f"{path}.{name}", cell.cell_contents)]
        while stack:
            where, value = stack.pop()
            if isinstance(value, (tuple, list)):
                stack.extend((f"{where}[{i}]", item) for i, item in enumerate(value))
            elif inspect.isfunction(value):
                yield from _closure_values(value, where)
            else:
                yield where, value


class TestTapeHoldsNodes:
    def test_every_op_is_built(self):
        ops = {name for name, fn in vars(nk).items()
               if inspect.isfunction(fn) and name != "_make" and "_make(" in inspect.getsource(fn)}
        assert ops == set(OP_BUILDERS)

    @pytest.mark.parametrize("op", sorted(OP_BUILDERS))
    def test_no_closure_holds_a_tensor(self, op):
        # a closure that held an input Tensor would keep that input's array
        # alive until the replay, whether or not the backward reads it
        with nk.Tape() as tape:
            OP_BUILDERS[op](np.random.default_rng(50))
        assert tape.nodes and all(isinstance(node, nk.Node) for node in tape.nodes)
        for node in tape.nodes:
            held = list(_closure_values(node._backward, op))
            assert held
            bad = [(where, type(value).__name__) for where, value in held
                   if not isinstance(value, _PLAIN)]
            assert not bad, bad

    def test_unread_outputs_die_and_backward_leaves_the_leaf_grads(self, monkeypatch):
        # default comparator at the default shape (D=64, T=4), 256 pairs: the
        # embedding's concat, the self-attention output projection and the
        # head's first linear are read by no backward, so they die with the
        # forward; after the replay only the leaf grads are left of the step
        model = ComparatorModel(ComparatorConfig(depth=64, tokens=4), seed=0)
        grids, at1, at2, y = _pair_batch(np.random.default_rng(37), records=320, pairs=256)
        _train_step(model, grids, at1, at2, y)  # one-time allocations happen here
        for _, t in model.parameters():
            t.grad = None
        watched, real_concat, real_linear = {}, nk.concat, nk.linear

        def watch(name, out):
            arrays = (out.data, out.data.base)
            watched.setdefault(name, [weakref.ref(a) for a in arrays if a is not None])
            return out

        def concat(tensors, axis):
            return watch("embedding concat", real_concat(tensors, axis))

        def linear(x, w, b):
            out = real_linear(x, w, b)
            if w is model.self_attn[0][0].wo:
                watch("self-attention output projection", out)
            if w is model.mlp_w[0]:
                watch("head's first linear", out)
            return out

        monkeypatch.setattr(nk, "concat", concat)
        monkeypatch.setattr(nk, "linear", linear)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with nk.Tape() as tape:
                loss = nk.bce_with_logits(model.pair_logits(model.records(grids), at1, at2,
                                                            "train"), y)
            assert len(watched) == 3
            alive = [name for name, refs in watched.items() if any(r() is not None for r in refs)]
            assert not alive
            nk.backward(tape, loss)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grads = sum(t.grad.nbytes for _, t in model.parameters())
        assert grads <= after - before <= grads + (64 << 10), (after - before, grads)


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
        x.grad = np.zeros(3)
        unused.grad = np.zeros(3)
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

    def test_tape_replays_once(self):
        x = nk.Tensor(np.ones(3), requires_grad=True)
        with nk.Tape() as tape:
            loss = nk.sum_all(nk.mul(x, x))
        nk.backward(tape, loss)
        with pytest.raises(nk.TapeError, match="already replayed"):
            nk.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

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
