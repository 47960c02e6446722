"""Dense tensors with reverse-mode gradients.

Each forward op links its output to its parents and stashes a closure
returning per-parent gradients; ``backward`` walks that implicit graph once
in reverse topological order. Storage is numpy, float32 by default and
float64 for gradient checking (finite differences are meaningless at f32).

Broadcasting is deliberately narrow: elementwise ops accept equal shapes, a
scalar, or a trailing-shape operand broadcast over leading batch dimensions.
Anything else raises ShapeMismatch. ``attention`` is the one fused op: the
whole multi-head softmax attention is a single node with a hand-derived
backward. ``adam_step`` is the one optimizer, shared by pretraining and the
linear probe.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError, ShapeMismatch

DTYPES = {"f32": np.float32, "f64": np.float64}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def resolve_dtype(precision):
    """Map a precision flag ('f32'/'f64' or a numpy dtype) to a numpy dtype."""
    if precision in DTYPES:
        return DTYPES[precision]
    dt = np.dtype(precision)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractViolation(f"unsupported precision {precision!r}")
    return dt.type


class Tensor:
    """N-dimensional float array with an optional gradient accumulation slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, requires_grad=False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(resolve_dtype(dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    # operator sugar; the real work lives in the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)


def _wrap(x, like):
    """Coerce a constant (scalar or array) to a Tensor matching `like`'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Reduce `grad` back down to `shape` after leading-dim broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _check_elementwise(op, a, b):
    """Equal shapes, scalar, or trailing-shape broadcast only."""
    if a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0:
        return
    small, big = (a, b) if a.data.ndim <= b.data.ndim else (b, a)
    if big.shape[big.data.ndim - small.data.ndim:] != small.shape:
        raise ShapeMismatch(op, a.shape, b.shape)


def add(a, b):
    b = _wrap(b, a)
    _check_elementwise("add", a, b)
    out = _make(a.data + b.data, (a, b), None)
    if out.requires_grad:
        out._backward = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def sub(a, b):
    b = _wrap(b, a)
    _check_elementwise("sub", a, b)
    out = _make(a.data - b.data, (a, b), None)
    if out.requires_grad:
        out._backward = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))
    return out


def mul(a, b):
    b = _wrap(b, a)
    _check_elementwise("mul", a, b)
    out = _make(a.data * b.data, (a, b), None)
    if out.requires_grad:
        ad, bd = a.data, b.data
        out._backward = lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape))
    return out


def matmul(a, b):
    b = _wrap(b, a)
    if a.data.ndim < 1 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatch("matmul", a.shape, b.shape) from None
    out = _make(data, (a, b), None)
    if out.requires_grad:
        ad, bd = a.data, b.data

        def bwd(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape)
            return ga, gb

        out._backward = bwd
    return out


def concat(tensors, axis=-1):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make(data, tuple(tensors), None)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        out._backward = lambda g: tuple(np.split(g, splits, axis=axis))
    return out


def slice_(a, key):
    data = a.data[key]
    out = _make(data, (a,), None)
    if out.requires_grad:

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        out._backward = bwd
    return out


def transpose(a, axes=None):
    if axes is None:
        if a.data.ndim < 2:
            raise ShapeMismatch("transpose", a.shape, a.shape)
        axes = list(range(a.data.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    out = _make(np.transpose(a.data, axes), (a,), None)
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        out._backward = lambda g: (np.transpose(g, inverse),)
    return out


def reshape(a, shape):
    shape = tuple(shape)
    out = _make(a.data.reshape(shape), (a,), None)
    if out.requires_grad:
        out._backward = lambda g: (g.reshape(a.shape),)
    return out


def sum_(a, axis=None, keepdims=False):
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), None)
    if out.requires_grad:
        out._backward = lambda g: (_spread(g, a.shape, axis, keepdims),)
    return out


def mean(a, axis=None, keepdims=False):
    out = _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), None)
    if out.requires_grad:
        count = a.data.size if axis is None else np.prod([a.shape[i] for i in _norm_axes(axis, a.data.ndim)])
        out._backward = lambda g: (_spread(g, a.shape, axis, keepdims) / count,)
    return out


def _norm_axes(axis, ndim):
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    if not keepdims:
        g = np.expand_dims(g, _norm_axes(axis, len(shape)))
    return np.broadcast_to(g, shape).copy()


def relu(a):
    out = _make(np.maximum(a.data, 0), (a,), None)
    if out.requires_grad:
        mask = a.data > 0
        out._backward = lambda g: (g * mask,)
    return out


def softmax(a, axis=-1):
    if np.isnan(a.data).any():
        raise NumericError("softmax: NaN in input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, (a,), None)
    if out.requires_grad:
        out._backward = lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),)
    return out


def _reduce_last(ufunc, x):
    """Reduce the (short) last axis with one elementwise ufunc call per slot.

    On attention's key axis this is several times faster than a numpy
    reduction, which pays a per-row setup cost; for np.maximum it is
    bit-identical to ``x.max(axis=-1)``.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out


def _split_heads(x, heads):
    b, t, h = x.shape
    return x.reshape(b, t, heads, h // heads).transpose(0, 2, 1, 3)


def _merged_matmul(a, b):
    """Stacked per-head a @ b, written straight into merged (B, t, heads * d) layout."""
    bsz, heads, t = a.shape[:3]
    d = b.shape[-1]
    out = np.empty((bsz, t, heads, d), dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
    return out.reshape(bsz, t, heads * d)


def attention(q, k, v, mask, heads):
    """Multi-head softmax(QKᵀ/√d_k + mask)·V as a single graph node.

    `q` is (B, tq, H); `k` and `v` are (B, tk, H). The last axis splits into
    `heads` slices of width d_k = H / heads, and the per-head outputs O are
    merged back to (B, tq, H). `mask` is an additive array broadcast over
    heads, (B, 1, tq, tk) in q's dtype, or None. The backward follows the
    fused formulation of FlashAttention (Dao et al. 2022) and keeps only the
    probabilities P, O and head views of the inputs: dV = Pᵀg, dP = gVᵀ,
    dS = P∘(dP − D)·scale with D = Σ dP∘P = Σ g∘O per query row,
    dQ = dS·K, dK = dSᵀ·Q.
    """
    if (q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape or k.shape[0] != q.shape[0]
            or k.shape[2] != q.shape[2] or q.shape[2] % heads):
        raise ShapeMismatch("attention", q.shape, k.shape)
    scale = (q.shape[2] // heads) ** -0.5
    qh, kh, vh = (_split_heads(x.data, heads) for x in (q, k, v))
    p = np.matmul(qh, np.swapaxes(kh, -1, -2))
    p *= scale
    if mask is not None:
        p += mask
    if np.isnan(p).any():
        raise NumericError("attention: NaN in scores")
    p -= _reduce_last(np.maximum, p)[..., None]
    np.exp(p, out=p)
    p /= _reduce_last(np.add, p)[..., None]
    o = _merged_matmul(p, vh)
    out = _make(o, (q, k, v), None)
    if out.requires_grad:

        def bwd(g):
            gh = _split_heads(g, heads)
            ds = np.matmul(gh, np.swapaxes(vh, -1, -2))
            ds -= _reduce_last(np.add, gh * _split_heads(o, heads))[..., None]
            ds *= p
            ds *= scale
            return (_merged_matmul(ds, kh), _merged_matmul(np.swapaxes(ds, -1, -2), qh),
                    _merged_matmul(np.swapaxes(p, -1, -2), gh))

        out._backward = bwd
    return out


def log_softmax(a, axis=-1):
    if np.isnan(a.data).any():
        raise NumericError("log_softmax: NaN in input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    z = shifted - lse
    out = _make(z, (a,), None)
    if out.requires_grad:
        sm = np.exp(z)
        out._backward = lambda g: (g - sm * g.sum(axis=axis, keepdims=True),)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis (population variance), then scale/shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _make(xhat * gamma.data + beta.data, (x, gamma, beta), None)
    if out.requires_grad:
        n = x.shape[-1]

        def bwd(g):
            dxhat = g * gamma.data
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            dgamma = _unbroadcast(g * xhat, gamma.shape)
            dbeta = _unbroadcast(g, beta.shape)
            return dx, dgamma, dbeta

        out._backward = bwd
    return out


def embedding(table, codes):
    """Row lookup into `table` by an integer code array; grads scatter-add."""
    codes = np.asarray(codes)
    out = _make(table.data[codes], (table,), None)
    if out.requires_grad:

        def bwd(g):
            full = np.zeros_like(table.data)
            np.add.at(full, codes.reshape(-1), g.reshape(-1, table.shape[-1]))
            return (full,)

        out._backward = bwd
    return out


def backward(loss):
    """Populate ∂loss/∂leaf on every requires_grad leaf reachable from `loss`.

    Repeated calls accumulate into .grad; fresh per-call gradients are kept
    in a side table so stale values never re-propagate.
    """
    if loss.data.size != 1:
        raise ContractViolation(f"backward expects a scalar loss, got shape {loss.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


def init_moments(params):
    return {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in params.items()}


def adam_step(params, grads, moments, lr, step):
    """One bias-corrected Adam update over every named parameter."""
    if step < 1:
        raise ConfigError(f"adam step must be >= 1, got {step}")
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m, v = moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= (lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(p.data.dtype)
