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
    """Ordered record of one forward pass: the nodes of the op outputs a
    gradient flows through, in creation order, which is topological.
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


class Node:
    """What the backward pass keeps of a tensor a gradient flows to: the
    gradient, and for an op output recorded on a tape the closure that hands
    it on to the nodes of the op's inputs."""

    __slots__ = ("grad", "_backward")

    def __init__(self, backward=None):
        self.grad = None
        self._backward = backward


class Tensor:
    """An array and, when a gradient flows to it, its `node`.

    A backward closure holds nodes and the arrays it reads, never a Tensor,
    so an op output that no backward reads is freed as soon as the forward
    code drops it.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def _backward(self):  # op profilers wrap an output's closure through this
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, fn):
        self.node._backward = fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """The output of an op whose inputs have the nodes `parents` (None for an
    input no gradient flows to); under a tape, its node is recorded with
    `backward_fn`."""
    out = Tensor(data)
    if any(p is not None for p in parents):
        out.node = Node(backward_fn if _TAPES else None)
        if _TAPES:
            _TAPES[-1].nodes.append(out.node)
    return out


def _accum(node, g):
    """Add g into node.grad out of place; the first gradient is taken as is.

    A grad may therefore alias another node's grad or a view of it, so no
    code may update a .grad in place.
    """
    if node is None:
        return
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _source_rows(rows, m):
    """`rows` as indices into m source rows, a negative row counted from the
    end as numpy counts it (the scatter below takes none); IndexError for a
    row out of range."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and not -m <= rows.min() <= rows.max() < m:
        raise IndexError(f"rows out of range for {m} source rows")
    return np.where(rows < 0, rows + m, rows)


def _scatter_rows(g, rows, m):
    """Row j of g added into row rows[j] of an (m, ...) array of zeros, so
    repeated rows sum and rows never named stay zero; g as is when rows is
    None.

    This is scipy.sparse's CSC (m, n) @ (n, width) loop on the one-hot
    matrix whose column j holds a single 1 at row rows[j]: out[rows[j]] +=
    1.0 * g[j], in the order of j. It takes no negative row.
    """
    if rows is None:
        return g
    n, width = len(rows), math.prod(g.shape[1:])
    out = np.zeros((m,) + g.shape[1:])
    _csc_matvecs(m, n, width, np.arange(n + 1), rows, np.ones(n),
                 np.ascontiguousarray(g, dtype=np.float64).reshape(-1), out.reshape(-1))
    return out


def backward(tape, loss):
    """Reverse-replay the tape, accumulating grads into requiring tensors.

    Every consumer of a tape node comes after it on the tape, so a node's
    grad is complete when it is reached; it is dropped once propagated, which
    frees it while the replay goes on. So is the node's closure, and with it
    the op's saved arrays and its links to its parents: after the replay the
    tape holds only empty nodes, and no graph outlives it. Leaf grads are
    kept. A tape replays once; a second backward raises TapeError."""
    if tape.replayed:
        raise TapeError("this tape was already replayed")
    if loss.node is None or not any(n is loss.node for n in tape.nodes):
        raise TapeError("loss was not produced under this tape")
    if loss.data.shape != ():
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.replayed = True
    loss.node.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        back, node._backward = node._backward, None
        if node.grad is None:
            continue
        back(node.grad)
        node.grad = None


# ---------------------------------------------------------------- primitives


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    an, bn, ashape, bshape = a.node, b.node, a.data.shape, b.data.shape

    def back(g):
        _accum(an, _unbroadcast(g, ashape))
        _accum(bn, _unbroadcast(g, bshape))

    return _make(a.data + b.data, (an, bn), back)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    an, bn, ashape, bshape = a.node, b.node, a.data.shape, b.data.shape

    def back(g):
        _accum(an, _unbroadcast(g, ashape))
        _accum(bn, _unbroadcast(-g, bshape))

    return _make(a.data - b.data, (an, bn), back)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    an, bn, ad, bd = a.node, b.node, a.data, b.data

    def back(g):
        _accum(an, _unbroadcast(g * bd, ad.shape))
        _accum(bn, _unbroadcast(g * ad, bd.shape))

    return _make(ad * bd, (an, bn), back)


def pow_scalar(a, p):
    a = _as_tensor(a)
    an, ad = a.node, a.data

    def back(g):
        _accum(an, g * p * ad ** (p - 1))

    return _make(ad**p, (an,), back)


def matmul(a, b):
    """2D @ 2D, batched with identical leading dims, or ND @ 2D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.data.shape} @ {b.data.shape}")
    an, bn, ad, bd = a.node, b.node, a.data, b.data

    def back(g):
        if an is not None:
            _accum(an, g @ np.swapaxes(bd, -1, -2))
        if bn is not None:
            _accum(bn, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(ad @ bd, (an, bn), back)


def reshape(a, shape):
    a = _as_tensor(a)
    an, old = a.node, a.data.shape

    def back(g):
        _accum(an, g.reshape(old))

    return _make(a.data.reshape(shape), (an,), back)


def transpose(a, axes):
    a = _as_tensor(a)
    an, inv = a.node, np.argsort(axes)

    def back(g):
        _accum(an, g.transpose(inv))

    return _make(a.data.transpose(axes), (an,), back)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [t.node for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def back(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accum(node, piece)

    return _make(out_data, nodes, back)


def slice_axis(a, axis, start, stop):
    a = _as_tensor(a)
    an, shape = a.node, a.data.shape
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def back(g):
        full = np.zeros(shape)
        full[idx] = g
        _accum(an, full)

    return _make(a.data[idx], (an,), back)


def gather(a, rows):
    """Rows `rows` of `a` along axis 0, repeats allowed; one tape node.

    The backward scatter-adds each output row's gradient into its source row
    (`_scatter_rows`), so repeated rows sum and rows never gathered get a
    zero gradient.
    """
    a = _as_tensor(a)
    an, m = a.node, a.data.shape[0]
    rows = _source_rows(rows, m)
    out_data = a.data[rows]

    def back(g):
        _accum(an, _scatter_rows(g, rows, m))

    return _make(out_data, (an,), back)


def broadcast_to(a, shape):
    a = _as_tensor(a)
    an, old = a.node, a.data.shape

    def back(g):
        _accum(an, _unbroadcast(g, old))

    return _make(np.broadcast_to(a.data, shape).copy(), (an,), back)


def mean_axis(a, axis, keepdims=False):
    a = _as_tensor(a)
    an, shape = a.node, a.data.shape
    n = shape[axis]

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(an, np.broadcast_to(g, shape) / n)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (an,), back)


def sum_all(a):
    a = _as_tensor(a)
    an, shape = a.node, a.data.shape

    def back(g):
        _accum(an, np.broadcast_to(g, shape).copy())

    return _make(np.asarray(a.data.sum()), (an,), back)


def mean_all(a):
    a = _as_tensor(a)
    an, shape, n = a.node, a.data.shape, a.data.size

    def back(g):
        _accum(an, np.broadcast_to(g / n, shape).copy())

    return _make(np.asarray(a.data.mean()), (an,), back)


# ----------------------------------------------------------- nonlinearities


def gelu(x):
    """Exact erf-based GELU: x * Phi(x), with Phi = 0.5 * (1 + erf(x / sqrt 2)).

    Each step writes into the one temporary it starts, in the order the
    formula gives; products and sums are written with their operands
    swapped where that saves a copy, which IEEE arithmetic leaves bitwise
    equal.
    """
    x = _as_tensor(x)
    xn, xd = x.node, x.data
    phi = np.multiply(xd, _INV_SQRT2, out=np.empty_like(xd))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5

    def back(g):
        # g * (phi + x * pdf(x)), pdf(x) = exp(-0.5 * x * x) / sqrt(2 pi)
        d = np.multiply(xd, -0.5, out=np.empty_like(xd))
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= xd
        d += phi
        d *= g
        _accum(xn, d)

    return _make(xd * phi, (xn,), back)


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
    xn, out_data = x.node, _sigmoid(x.data)

    def back(g):
        _accum(xn, g * out_data * (1.0 - out_data))

    return _make(out_data, (xn,), back)


def softmax(x):
    """Softmax over the last axis."""
    x = _as_tensor(x)
    xn = x.node
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(xn, out_data * (g - inner))

    return _make(out_data, (xn,), back)


def bce_with_logits(o, y):
    """Mean binary cross-entropy on logits, stable at large |o|."""
    o = _as_tensor(o)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != o.data.shape:
        raise ShapeError(f"bce: logits {o.data.shape} vs labels {y.shape}")
    if y.size and not np.all((y == 0) | (y == 1)):
        raise ValueError("bce labels must be 0 or 1")
    on, z = o.node, o.data
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = max(z.size, 1)

    def back(g):
        _accum(on, g * (_sigmoid(z) - y) / n)

    return _make(np.asarray(loss.mean()), (on,), back)


# ------------------------------------------------------------------- layers


def linear(x, w, b):
    """y = x @ w + b over the trailing feature axis; one GEMM, one tape node."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: input {x.data.shape} does not match weight {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias {b.data.shape} does not match weight {w.data.shape}")
    xn, wn, bn, xshape, wd = x.node, w.node, b.node, x.data.shape, w.data
    x2 = x.data.reshape(-1, wd.shape[0])
    out2 = x2 @ wd
    out2 += b.data

    def back(g):
        g2 = g.reshape(-1, g.shape[-1])
        if xn is not None:
            _accum(xn, (g2 @ wd.T).reshape(xshape))
        if wn is not None:
            _accum(wn, x2.T @ g2)
        if bn is not None:
            _accum(bn, g2.sum(axis=0))

    return _make(out2.reshape(xshape[:-1] + b.data.shape), (xn, wn, bn), back)


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
    statistics, eval mode treats the running statistics as constants. The
    centred input is normalized in place, and the backward reuses its own
    temporaries the same way, in the order the formulas give.
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
    xc *= inv
    xhat = xc
    out_data = xhat * gamma.data
    out_data += beta.data
    xn, gn, bn, gd, n = x.node, gamma.node, beta.node, gamma.data, x.data.shape[0]

    def back(g):
        if gn is not None:
            _accum(gn, (g * xhat).sum(axis=0))
        if bn is not None:
            _accum(bn, g.sum(axis=0))
        if xn is None:
            return
        dxhat = g * gd
        if mode == "eval":
            dxhat *= inv
            _accum(xn, dxhat)
            return
        # (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        total = dxhat.sum(axis=0)
        term = dxhat * xhat
        np.multiply(xhat, term.sum(axis=0), out=term)
        dxhat *= n
        dxhat -= total
        dxhat -= term
        dxhat *= inv / n
        _accum(xn, dxhat)

    return _make(out_data, (xn, gn, bn), back)


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
    matmul per (batch row, head). The scores become the probabilities in
    place."""
    (b, s, d), t = q.data.shape, k.data.shape[1]
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x, n):  # (B, n, D) -> (B, H, n, dh)
        return x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, n):  # (B, H, n, dh) -> (B, n, D)
        return x.transpose(0, 2, 1, 3).reshape(b, n, d)

    qn, kn, vn = q.node, k.node, v.node
    qh, kh, vh = split(q.data, s), split(k.data, t), split(v.data, t)
    probs = qh @ np.swapaxes(kh, -1, -2)
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def back(g):
        gh = split(g, s)
        if vn is not None:
            _accum(vn, merge(np.swapaxes(probs, -1, -2) @ gh, t))
        if qn is None and kn is None:
            return
        ds = gh @ np.swapaxes(vh, -1, -2)  # probs * (dp - (dp * probs).sum(-1)) * scale
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        if qn is not None:
            _accum(qn, merge(ds @ kh, s))
        if kn is not None:
            _accum(kn, merge(np.swapaxes(ds, -1, -2) @ qh, t))

    return _make(merge(probs @ vh, s), (qn, kn, vn), back)


def _attend_one(q, k, v, heads, rows=None, partners=None):
    """`_attend` for one query row: elementwise q * k, then one GEMM with a
    (D, H) head-indicator matrix sums each head's features, instead of one
    (1, dh) @ (dh, T) matmul per (batch row, head).

    With index arrays, output row i is the query q[rows[i]] over the keys
    k[partners[i]] and values v[partners[i]]. Those rows are read into the
    one (n, T, D) scratch buffer that holds q * k and then the weighted
    values, so no gathered copy of k or v is made, and the backward
    scatter-adds each row's gradient into its source row as `gather`'s
    does. The backward recomputes the per-feature weights from the
    probabilities instead of keeping them.
    """
    qn, kn, vn = q.node, k.node, v.node
    qd, kd, vd = q.data, k.data, v.data
    qm = len(qd)
    if rows is not None:
        rows, partners = _source_rows(rows, qm), _source_rows(partners, len(kd))
        qd = qd[rows]
    (b, _, d), t = qd.shape, kd.shape[1]
    indicator = np.repeat(np.eye(heads), d // heads, axis=0)  # feature j -> head j // dh
    scale = 1.0 / np.sqrt(d // heads)

    def per_head(x):  # (B, T, D) -> (B, T, H), summed over each head's features
        return (x.reshape(b * t, d) @ indicator).reshape(b, t, heads)

    def per_feature(x):  # (B, T, H) -> (B, T, D), each head's value repeated
        return (x.reshape(b * t, heads) @ indicator.T).reshape(b, t, d)

    def paired(src, buf):  # src's rows in the order of the output rows
        return src if partners is None else np.take(src, partners, axis=0, out=buf, mode="clip")

    buf = np.empty((b, t, d))
    np.multiply(paired(kd, buf), qd, out=buf)
    probs = per_head(buf)
    probs *= scale
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)  # (B, T, H), softmax over keys
    np.multiply(paired(vd, buf), per_feature(probs), out=buf)
    out_data = buf.sum(axis=1, keepdims=True)

    def back(g):
        if vn is not None:
            gv = per_feature(probs)
            gv *= g
            _accum(vn, _scatter_rows(gv, partners, len(vd)))
        if qn is None and kn is None:
            return
        buf = np.empty((b, t, d))
        np.multiply(paired(vd, buf), g, out=buf)
        dp = per_head(buf)  # probs * (dp - (dp * probs).sum(1)) * scale, per feature
        dp -= (dp * probs).sum(axis=1, keepdims=True)
        dp *= probs
        dp *= scale
        ds = per_feature(dp)
        if qn is not None:
            np.multiply(paired(kd, buf), ds, out=buf)
            _accum(qn, _scatter_rows(buf.sum(axis=1, keepdims=True), rows, qm))
        if kn is not None:
            ds *= qd
            _accum(kn, _scatter_rows(ds, partners, len(kd)))

    return _make(out_data, (qn, kn, vn), back)


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
    return linear(_attend(q, k, v, heads), params.wo, params.bo)


def attend_rows(q, k, v, rows, partners, params, heads):
    """Multi-head attention of the one-row queries q[rows[i]] over the keys
    k[partners[i]] and values v[partners[i]], all already projected with
    `params`, then the output projection: `attention` on gathered rows,
    without a gathered copy of k or v."""
    return linear(_attend_one(q, k, v, heads, rows, partners), params.wo, params.bo)


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
