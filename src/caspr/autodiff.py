"""Dense tensors with reverse-mode gradients.

Each forward op links its output to its parents and stashes a closure
returning per-parent gradients; ``backward`` walks that implicit graph once
in reverse topological order. Storage is numpy at the caller's float
dtype: the model's precision, or float64 for gradient checking (finite
differences are meaningless at f32).
Inside ``no_grad()`` ops build no parent links and no closures.

Four ops are fused into one node each, with hand-derived backwards:
``embedding`` (the model's input layer: constant columns and embedding
table lookups joined into one step matrix, with pad and masked steps
zeroed), ``attention`` (the whole multi-head softmax attention),
``matmul`` (a dense layer: a 2-D weight and an optional bias as one GEMM
over the flattened rows), and ``layer_norm`` of a residual sum with an
optional dropout keep mask (a post-norm sublayer). Losses are numpy
kernels, ``squared_error`` and ``cross_entropy``, that return a value and
its gradient; ``scalar`` makes their sum one node. ``FlatParams`` keeps
named parameters as views into one contiguous array and gathers their
gradients into views of another, so that ``adam_step``, pretraining's one
optimizer, is a single vectorized update.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError, ShapeMismatch

DTYPES = {"f32": np.float32, "f64": np.float64}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_grad_enabled = True


class Tensor:
    """N-dimensional float array with an optional gradient accumulation slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
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


@contextlib.contextmanager
def no_grad():
    """Inference mode: ops made inside build no graph and no backward closures."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def scalar(value, inputs, grads):
    """A scalar node whose gradient with respect to inputs[i] is grads[i], derived by hand."""
    out = _make(np.asarray(value), tuple(inputs), None)
    if out.requires_grad:
        out._backward = lambda g: tuple(g * grad for grad in grads)
    return out


def squared_error(pred, target, w, scale):
    """(Σ w·(pred − target)², the gradient of scale times it w.r.t. pred).

    `w` weights each position; `scale` is a 0-d array of pred's dtype.
    """
    diff = pred - target
    d = (scale * w) * diff
    return (diff * diff * w).sum(), d + d


def cross_entropy(logits, codes, w, scale):
    """(Σ −w·log softmax(logits)[code], the gradient of scale times it w.r.t. logits).

    The softmax runs over the last axis; integer `codes` and weights `w`
    have logits' shape without it. The gradient is softmax·c with c =
    scale·w subtracted at each position's code.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    z = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    pick = (*np.indices(codes.shape), codes)
    c = scale * w
    grad = np.exp(z) * c[..., None]
    grad[pick] -= c
    return -(z[pick] * w).sum(), grad


def _col_sums(x2):
    """Column sums of a 2-D array as one GEMV against a ones vector.

    On (N, 16) rows this is about ten times faster than ``x2.sum(axis=0)``.
    """
    return np.ones(x2.shape[0], dtype=x2.dtype) @ x2


def matmul(a, w, bias=None):
    """Dense layer a @ w + bias as one GEMM over a's rows flattened to (N, k).

    `w` must be 2-D, (k, n), and `bias` (n,) when given, so the weight
    gradient is a single a₂ᵀg₂ rather than a batched product summed over
    the batch.
    """
    if a.data.ndim < 1 or w.data.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeMismatch("matmul", a.shape, w.shape)
    k, n = w.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeMismatch("matmul bias", w.shape, bias.shape)
    a2 = a.data.reshape(-1, k)
    y = a2 @ w.data
    if bias is not None:
        y += bias.data
    out_shape = a.shape[:-1] + (n,)
    parents = (a, w) if bias is None else (a, w, bias)
    out = _make(y.reshape(out_shape), parents, None)
    if out.requires_grad:
        wd = w.data

        def bwd(g):
            g2 = g.reshape(-1, n)
            grads = ((g2 @ wd.T).reshape(a.shape), a2.T @ g2)
            return grads if bias is None else grads + (_col_sums(g2),)

        out._backward = bwd
    return out


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
    heads, (B, 1, tq, tk) in q's dtype. The backward follows the
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
    p += mask
    row_max = _reduce_last(np.maximum, p)  # np.maximum propagates NaN, so a NaN score shows here
    if np.isnan(row_max).any():
        raise NumericError("attention: NaN in scores")
    p -= row_max[..., None]
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


def layer_norm(x, gamma, beta, residual, keep=None, eps=1e-5):
    """Normalize s = x + residual·keep over the last axis, then scale/shift.

    One node for a whole post-norm sublayer: `residual` is the sublayer
    output and `keep` its dropout mask (already scaled by 1/(1-p)) or None.
    Row mean and population variance are GEMVs against a 1/n vector. The
    backward returns dx, dgamma and dbeta as column sums, and dresidual =
    dx·keep.
    """
    n = x.shape[-1]
    if residual.shape != x.shape:
        raise ShapeMismatch("layer_norm residual", x.shape, residual.shape)
    if keep is not None and keep.shape != x.shape:
        raise ShapeMismatch("layer_norm keep", x.shape, keep.shape)
    if keep is None:
        s = x.data + residual.data
    else:
        s = residual.data * keep
        s += x.data
    s2 = s.reshape(-1, n)
    inv_n = np.full(n, 1.0 / n, dtype=s.dtype)
    xc = s2 - (s2 @ inv_n)[:, None]
    inv = 1.0 / np.sqrt((xc * xc) @ inv_n + eps)[:, None]
    xhat = xc
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    out = _make(y.reshape(x.shape), (x, gamma, beta, residual), None)
    if out.requires_grad:

        def bwd(g):
            g2 = g.reshape(-1, n)
            dxhat = g2 * gamma.data
            dx = dxhat - (dxhat @ inv_n)[:, None]
            dx -= xhat * ((dxhat * xhat) @ inv_n)[:, None]
            dx *= inv
            dx = dx.reshape(x.shape)
            return dx, _col_sums(g2 * xhat), _col_sums(g2), dx if keep is None else dx * keep

        out._backward = bwd
    return out


def embedding(consts, tables, codes, keep):
    """Step matrix concat(*consts, tables[i][codes[..., i]] for each i) · keep, as one node.

    `consts` are arrays of shape (n, w, k) that get no gradient, `codes` is
    (n, w, len(tables)) and `keep` the (n, w) bool mask of the steps to
    keep; every other step's row is zero. The backward zeroes the dropped
    rows of g once and scatter-adds each table's column slice of it.
    """
    parts = [*consts, *(table.data[codes[..., i]] for i, table in enumerate(tables))]
    data = np.concatenate(parts, axis=-1)
    if keep.shape != data.shape[:-1]:
        raise ShapeMismatch("embedding keep", data.shape[:-1], keep.shape)
    data *= keep[..., None]
    out = _make(data, tuple(tables), None)
    if out.requires_grad:
        first = sum(c.shape[-1] for c in consts)

        def bwd(g):
            g = g * keep[..., None]
            grads, start = [], first
            for i, table in enumerate(tables):
                stop = start + table.shape[-1]
                full = np.zeros_like(table.data)
                np.add.at(full, codes[..., i].reshape(-1), g[..., start:stop].reshape(-1, table.shape[-1]))
                grads.append(full)
                start = stop
            return grads

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
        g = grads.pop(id(node))
        if node._backward is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad:
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


class FlatParams:
    """Named parameter tensors whose .data are views into one contiguous array.

    `shapes` lists (name, shape) pairs; their order fixes the layout. `flat`
    is a copy of the 1-D array of initial values laid out that way, and
    `grad`, after ``zero_grad``, holds every leaf gradient: backward
    accumulates into per-parameter views of it.
    """

    def __init__(self, shapes, flat):
        self._slots, off = [], 0
        for name, shape in shapes:
            self._slots.append((name, off, off + math.prod(shape), shape))
            off = self._slots[-1][2]
        if np.shape(flat) != (off,):
            raise ShapeMismatch("flat parameters", np.shape(flat), (off,))
        self.flat = np.array(flat)
        self.params = {name: Tensor(view, requires_grad=True) for name, view in self.views(self.flat).items()}
        self.grad = None

    def views(self, flat):
        """Per-name views of any array laid out like `flat`."""
        return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in self._slots}

    def __getitem__(self, name):
        return self.params[name]

    def items(self):
        return self.params.items()

    def zero_grad(self):
        """Bind every leaf's .grad to a view of a fresh zeroed flat gradient."""
        self.grad = np.zeros_like(self.flat)
        for p, g in zip(self.params.values(), self.views(self.grad).values()):
            p.grad = g


def init_moments(flat):
    """Adam's first and second moments for a flat parameter array."""
    return np.zeros_like(flat), np.zeros_like(flat)


def adam_step(params, grads, moments, lr, step):
    """One bias-corrected Adam update, in place, over flat parameter,
    gradient and (m, v) moment arrays."""
    if step < 1:
        raise ConfigError(f"adam step must be >= 1, got {step}")
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    m, v = moments
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    params -= (lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(params.dtype)
