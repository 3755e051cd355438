"""Dense tensor ops with reverse-mode autodiff.

Everything runs in float64. Ops record themselves on the innermost active
Tape; with no tape active they are plain forward computations (used for
inference and finite-difference probing).
"""

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np


def _scipy_extension(subpackage, name, attr):
    """`attr` of scipy's compiled module `scipy.<subpackage>.<name>`.

    The module is loaded from its file, so scipy's package `__init__`s do not
    run: importing `scipy.special` and `scipy.sparse` whole for the two
    functions taken here adds about 17 MB of RSS and 0.2 s to `import
    pcnn.cli` (scipy 1.17, 2-vCPU VM). The module is registered in
    `sys.modules` under its real name, so a later `import scipy.<subpackage>`
    reuses it. A missing file or attribute raises ImportError naming where it
    looked.
    """
    full = f"scipy.{subpackage}.{name}"
    module = sys.modules.get(full)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
        if scipy is None:
            raise ImportError(f"{full}: scipy is not installed")
        where = os.path.join(scipy.submodule_search_locations[0], subpackage)
        paths = [os.path.join(where, name + suffix) for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"{full}: no compiled module {name!r} in {where}")
        spec = importlib.util.spec_from_file_location(full, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    if not hasattr(module, attr):
        raise ImportError(f"{full}: {module.__file__} has no {attr!r}")
    return getattr(module, attr)


# the exact erf GELU uses, and the sparse product gather's backward runs
erf = _scipy_extension("special", "_special_ufuncs", "erf")
_csc_matvecs = _scipy_extension("sparse", "_sparsetools", "csc_matvecs")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Operands do not conform."""


class ConfigError(ValueError):
    """Bad structural configuration (e.g. heads not dividing depth)."""


class TapeError(RuntimeError):
    """Misuse of the tape (backward on a foreign or non-scalar node, or a
    second backward on one tape)."""


class DegenerateBatchError(ValueError):
    """Batch statistics requested on a batch of size 1."""


# active tapes, innermost last
_TAPES = []


class Tape:
    """Ordered record of one forward pass; creation order is topological.
    It replays once: `backward` drops each node's closure as it runs."""

    def __init__(self):
        self.nodes = []
        self.replayed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if _TAPES and out.requires_grad:
        out._backward = backward_fn
        _TAPES[-1].nodes.append(out)
    return out


def _accum(t, g):
    """Add g into t.grad out of place; the first gradient is taken as is.

    A grad may therefore alias another node's grad or a view of it, so no
    code may update a .grad in place.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(tape, loss):
    """Reverse-replay the tape, accumulating grads into requiring tensors.

    Every consumer of a tape node comes after it on the tape, so a node's
    grad is complete when it is reached; it is dropped once propagated, which
    frees it while the replay goes on. So is the node's closure, and with it
    the op's saved arrays and its links to its parents: after the replay the
    tape holds only the nodes' outputs, and no graph outlives it. Leaf grads
    are kept. A tape replays once; a second backward raises TapeError."""
    if tape.replayed:
        raise TapeError("this tape was already replayed")
    if not any(n is loss for n in tape.nodes):
        raise TapeError("loss was not produced under this tape")
    if loss.data.shape != ():
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.replayed = True
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        back, node._backward = node._backward, None
        if node.grad is None:
            continue
        back(node.grad)
        node.grad = None


# ---------------------------------------------------------------- primitives


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), back)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), back)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), back)


def pow_scalar(a, p):
    a = _as_tensor(a)
    out_data = a.data**p

    def back(g):
        _accum(a, g * p * a.data ** (p - 1))

    return _make(out_data, (a,), back)


def matmul(a, b):
    """2D @ 2D, batched with identical leading dims, or ND @ 2D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.data.shape} @ {b.data.shape}")

    def back(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(a.data @ b.data, (a, b), back)


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.data.shape
    out_data = a.data.reshape(shape)

    def back(g):
        _accum(a, g.reshape(old))

    return _make(out_data, (a,), back)


def transpose(a, axes):
    a = _as_tensor(a)
    inv = np.argsort(axes)
    out_data = a.data.transpose(axes)

    def back(g):
        _accum(a, g.transpose(inv))

    return _make(out_data, (a,), back)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, tuple(tensors), back)


def slice_axis(a, axis, start, stop):
    a = _as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out_data = a.data[idx]

    def back(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _make(out_data, (a,), back)


def gather(a, rows):
    """Rows `rows` of `a` along axis 0, repeats allowed; one tape node.

    The backward scatter-adds each output row's gradient into its source row
    as a one-hot sparse matmul, so repeated rows sum and rows never gathered
    get a zero gradient.
    """
    a = _as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    out_data = a.data[rows]  # raises IndexError for a row out of range
    m = a.data.shape[0]
    rows = np.where(rows < 0, rows + m, rows)  # the C loop below takes no negative row

    def back(g):
        n, width = len(rows), math.prod(a.data.shape[1:])
        out = np.zeros((m, width))
        # scipy.sparse's CSC (m, n) @ (n, width) loop: column j of the one-hot
        # matrix holds a single 1 at row rows[j]; out[rows[j]] += 1.0 * g[j]
        _csc_matvecs(m, n, width, np.arange(n + 1), rows, np.ones(n),
                     np.ascontiguousarray(g, dtype=np.float64).reshape(-1), out.reshape(-1))
        _accum(a, out.reshape(a.data.shape))

    return _make(out_data, (a,), back)


def broadcast_to(a, shape):
    a = _as_tensor(a)
    out_data = np.broadcast_to(a.data, shape).copy()

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _make(out_data, (a,), back)


def mean_axis(a, axis, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.shape[axis]

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape) / n)

    return _make(out_data, (a,), back)


def sum_all(a):
    a = _as_tensor(a)
    out_data = np.asarray(a.data.sum())

    def back(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), back)


def mean_all(a):
    a = _as_tensor(a)
    out_data = np.asarray(a.data.mean())
    n = a.data.size

    def back(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _make(out_data, (a,), back)


# ----------------------------------------------------------- nonlinearities


def gelu(x):
    """Exact erf-based GELU: x * Phi(x)."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out_data = x.data * phi

    def back(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accum(x, g * (phi + x.data * pdf))

    return _make(out_data, (x,), back)


def _sigmoid(z):
    """Logistic function of an array; two branches, so no exp overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x):
    x = _as_tensor(x)
    out_data = _sigmoid(x.data)

    def back(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _make(out_data, (x,), back)


def softmax(x):
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, out_data * (g - inner))

    return _make(out_data, (x,), back)


def bce_with_logits(o, y):
    """Mean binary cross-entropy on logits, stable at large |o|."""
    o = _as_tensor(o)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != o.data.shape:
        raise ShapeError(f"bce: logits {o.data.shape} vs labels {y.shape}")
    if y.size and not np.all((y == 0) | (y == 1)):
        raise ValueError("bce labels must be 0 or 1")
    z = o.data
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(loss.mean())
    n = max(z.size, 1)

    def back(g):
        _accum(o, g * (_sigmoid(z) - y) / n)

    return _make(out_data, (o,), back)


# ------------------------------------------------------------------- layers


def linear(x, w, b):
    """y = x @ w + b over the trailing feature axis; one GEMM, one tape node."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: input {x.data.shape} does not match weight {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias {b.data.shape} does not match weight {w.data.shape}")
    x2 = x.data.reshape(-1, w.data.shape[0])
    out2 = x2 @ w.data
    out2 += b.data
    out_data = out2.reshape(x.data.shape[:-1] + b.data.shape)

    def back(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, x2.T @ g2)
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _make(out_data, (x, w, b), back)


class BatchNormParams:
    """Affine batch-norm state for one feature axis of width F."""

    def __init__(self, f, eps=1e-5, momentum=0.1):
        self.gamma = Tensor(np.ones(f), requires_grad=True)
        self.beta = Tensor(np.zeros(f), requires_grad=True)
        self.running_mean = np.zeros(f)
        self.running_var = np.ones(f)
        self.eps = eps
        self.momentum = momentum


def batchnorm(x, params, mode):
    """Normalize (B, F) over the batch axis. Biased variance throughout.

    One tape node per call; train mode back-propagates through the batch
    statistics, eval mode treats the running statistics as constants.
    """
    x = _as_tensor(x)
    gamma, beta = params.gamma, params.beta
    if x.data.ndim != 2 or x.data.shape[1] != gamma.data.shape[0]:
        raise ShapeError(
            f"batchnorm: input {x.data.shape} vs feature width {gamma.data.shape[0]}"
        )
    if mode == "train":
        if x.data.shape[0] < 2:
            raise DegenerateBatchError("batchnorm needs batch size >= 2 in train mode")
        mu = x.data.mean(axis=0)
        xc = x.data - mu
        var = (xc * xc).mean(axis=0)
        inv = (var + params.eps) ** -0.5
        m = params.momentum
        params.running_mean = (1 - m) * params.running_mean + m * mu
        params.running_var = (1 - m) * params.running_var + m * var
    elif mode == "eval":
        inv = 1.0 / np.sqrt(params.running_var + params.eps)
        xc = x.data - params.running_mean
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def back(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0))
        if not x.requires_grad:
            return
        dxhat = g * gamma.data
        if mode == "eval":
            _accum(x, dxhat * inv)
            return
        n = x.data.shape[0]
        _accum(
            x,
            (inv / n)
            * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)),
        )

    return _make(out_data, (x, gamma, beta), back)


class AttentionParams:
    """Q/K/V/output projection weights for one attention layer."""

    def __init__(self, d, rng, std=0.02):
        def w():
            return Tensor(rng.normal(0.0, std, size=(d, d)), requires_grad=True)

        self.wq, self.wk, self.wv, self.wo = w(), w(), w(), w()
        self.bq = Tensor(np.zeros(d), requires_grad=True)
        self.bk = Tensor(np.zeros(d), requires_grad=True)
        self.bv = Tensor(np.zeros(d), requires_grad=True)
        self.bo = Tensor(np.zeros(d), requires_grad=True)

    def tensors(self):
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]


def _attend(q, k, v, heads):
    """softmax(q_h @ k_h^T / sqrt(dh)) @ v_h per head over (B, S|T, D)
    projections; one tape node.

    The backward goes through the softmax Jacobian in closed form, so the
    attention probabilities are the only intermediate kept. A single query
    row (every CLS cross-attention query) takes `_attend_one`, longer
    queries `_attend_many`.
    """
    if q.data.shape[1] == 1:
        return _attend_one(q, k, v, heads)
    return _attend_many(q, k, v, heads)


def _attend_many(q, k, v, heads):
    """`_attend` with heads split and merged on the raw arrays and a batched
    matmul per (batch row, head)."""
    (b, s, d), t = q.data.shape, k.data.shape[1]
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x, n):  # (B, n, D) -> (B, H, n, dh)
        return x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, n):  # (B, H, n, dh) -> (B, n, D)
        return x.transpose(0, 2, 1, 3).reshape(b, n, d)

    qh, kh, vh = split(q.data, s), split(k.data, t), split(v.data, t)
    scores = (qh @ np.swapaxes(kh, -1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out_data = merge(probs @ vh, s)

    def back(g):
        gh = split(g, s)
        if v.requires_grad:
            _accum(v, merge(np.swapaxes(probs, -1, -2) @ gh, t))
        if not (q.requires_grad or k.requires_grad):
            return
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            _accum(q, merge(ds @ kh, s))
        if k.requires_grad:
            _accum(k, merge(np.swapaxes(ds, -1, -2) @ qh, t))

    return _make(out_data, (q, k, v), back)


def _attend_one(q, k, v, heads):
    """`_attend` for one query row: elementwise q * k, then one GEMM with a
    (D, H) head-indicator matrix sums each head's features, instead of one
    (1, dh) @ (dh, T) matmul per (batch row, head)."""
    (b, _, d), t = q.data.shape, k.data.shape[1]
    indicator = np.repeat(np.eye(heads), d // heads, axis=0)  # feature j -> head j // dh
    scale = 1.0 / np.sqrt(d // heads)

    def per_head(x):  # (B, T, D) -> (B, T, H), summed over each head's features
        return (x.reshape(b * t, d) @ indicator).reshape(b, t, heads)

    def per_feature(x):  # (B, T, H) -> (B, T, D), each head's value repeated
        return (x.reshape(b * t, heads) @ indicator.T).reshape(b, t, d)

    scores = per_head(q.data * k.data) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)  # (B, T, H), softmax over keys
    weights = per_feature(probs)
    out_data = (weights * v.data).sum(axis=1, keepdims=True)

    def back(g):
        if v.requires_grad:
            _accum(v, weights * g)
        if not (q.requires_grad or k.requires_grad):
            return
        dp = per_head(g * v.data)
        ds = per_feature(probs * (dp - (dp * probs).sum(axis=1, keepdims=True)) * scale)
        if q.requires_grad:
            _accum(q, (ds * k.data).sum(axis=1, keepdims=True))
        if k.requires_grad:
            _accum(k, ds * q.data)

    return _make(out_data, (q, k, v), back)


def attention(xq, xkv, params, heads):
    """Multi-head scaled-dot-product attention of xq's rows over xkv's rows,
    no residual: q from xq, k and v from xkv, then the output projection."""
    xq, xkv = _as_tensor(xq), _as_tensor(xkv)
    if xq.data.ndim != 3 or xkv.data.ndim != 3:
        raise ShapeError(
            f"attention expects (B, S, D) inputs, got {xq.data.shape} and {xkv.data.shape}"
        )
    d = xq.data.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"feature depth {d} not divisible by {heads} heads")
    q = linear(xq, params.wq, params.bq)
    k = linear(xkv, params.wk, params.bk)
    v = linear(xkv, params.wv, params.bv)
    return attend(q, k, v, params, heads)


def attend(q, k, v, params, heads):
    """Multi-head attention from q, k and v already projected with
    `params`: the attention core, then the output projection."""
    return linear(_attend(q, k, v, heads), params.wo, params.bo)


def mhsa(x, params, heads):
    """Scaled-dot-product multi-head self-attention, no residual."""
    return attention(x, x, params, heads)


def cross_attention(y1, y2, params, heads):
    """CLS-as-query fusion; one shared parameter set serves both directions.

    The CLS row of each output attends over every token of the opposite
    branch; non-CLS rows pass through unchanged.
    """
    y1, y2 = _as_tensor(y1), _as_tensor(y2)
    if y1.data.shape != y2.data.shape:
        raise ShapeError(f"cross_attention: {y1.data.shape} vs {y2.data.shape}")

    def fuse(a, b):
        new_cls = attention(slice_axis(a, 1, 0, 1), b, params, heads)
        return concat([new_cls, slice_axis(a, 1, 1, a.data.shape[1])], axis=1)

    return fuse(y1, y2), fuse(y2, y1)
