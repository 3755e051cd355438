"""Dense tensor ops with reverse-mode autodiff.

Everything runs in float64. Ops record themselves on the innermost active
Tape; with no tape active they are plain forward computations (used for
inference and finite-difference probing).
"""

import numpy as np
import scipy.sparse
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Operands do not conform."""


class ConfigError(ValueError):
    """Bad structural configuration (e.g. heads not dividing depth)."""


class TapeError(RuntimeError):
    """Misuse of the tape (backward on a foreign or non-scalar node)."""


class DegenerateBatchError(ValueError):
    """Batch statistics requested on a batch of size 1."""


# active tapes, innermost last
_TAPES = []


class Tape:
    """Ordered record of one forward pass; creation order is topological."""

    def __init__(self):
        self.nodes = []

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
    frees it while the replay goes on. Leaf grads are kept."""
    if not any(n is loss for n in tape.nodes):
        raise TapeError("loss was not produced under this tape")
    if loss.data.shape != ():
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)
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
    stacked_weight = a.data.ndim > 2 and b.data.ndim == 2
    if not stacked_weight and (a.data.ndim > 2 or b.data.ndim > 2):
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ShapeError(
                f"matmul: batch dims differ, {a.data.shape} @ {b.data.shape}"
            )
    if stacked_weight:
        # one 2-D GEMM instead of a batch of small ones
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[-1:])
    else:
        out_data = a.data @ b.data

    def back(g):
        if stacked_weight:
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)
            return
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(out_data, (a, b), back)


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
    out_data = a.data[rows]

    def back(g):
        n = len(rows)
        # column j of the one-hot matrix holds a single 1 at row rows[j]
        onehot = scipy.sparse.csc_matrix(
            (np.ones(n), rows, np.arange(n + 1)), shape=(a.data.shape[0], n)
        )
        _accum(a, (onehot @ g.reshape(n, -1)).reshape(a.data.shape))

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
