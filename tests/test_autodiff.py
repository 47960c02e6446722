"""Gradient and contract tests for the tensor core.

Analytic gradients are checked against central finite differences at
float64; the FD oracle re-evaluates the forward function and never touches
the backward path.
"""
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caspr import autodiff as ad
from caspr.autodiff import Tensor
from caspr.errors import ContractViolation, NumericError, ShapeMismatch

FD_H = 1e-5


def finite_diff(fn, leaves, h=FD_H):
    """Central differences of fn() w.r.t. every leaf, at the current values."""
    out = []
    for leaf in leaves:
        grad = np.zeros_like(leaf.data)
        for i in range(leaf.data.size):
            orig = leaf.data.flat[i]
            leaf.data.flat[i] = orig + h
            lp = float(fn().data)
            leaf.data.flat[i] = orig - h
            lm = float(fn().data)
            leaf.data.flat[i] = orig
            grad.flat[i] = (lp - lm) / (2 * h)
        out.append(grad)
    return out


def check_grads(fn, leaves, tol=1e-6):
    for leaf in leaves:
        leaf.grad = None
    loss = fn()
    ad.backward(loss)
    numeric = finite_diff(fn, leaves)
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        err = np.abs(analytic - num) / np.maximum(1.0, np.abs(num))
        assert err.max() < tol, f"FD mismatch: {err.max()}"


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def zero(*shape):
    """A constant all-zero tensor, such as the residual of a plain layer norm."""
    return Tensor(np.zeros(shape))


def readout(out, w):
    """Σ out∘w as one scalar node; its gradient with respect to out is w."""
    return ad.scalar((out.data * w).sum(), [out], [w])


class TestForward:
    def test_matmul_shape(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 4)))
        assert ad.matmul(a, b).shape == (2, 4)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        np.testing.assert_allclose(ad.matmul(a, eye).data, a.data)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([[1.0, 1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_softmax_two_point(self):
        out = ad.softmax(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5))
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ad.softmax(Tensor(rng.normal(size=(6, 7)) * 10))
        assert (out.data > 0).all() and (out.data < 1).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_nan_raises(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([[np.nan, 1.0]]))


class TestBackward:
    def test_square_at_three(self):
        """x @ x for a 1x1 x: one node that uses x twice accumulates both gradients."""
        x = Tensor([[3.0]], requires_grad=True)
        ad.backward(ad.matmul(x, x))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_unused_leaf_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        ad.backward(readout(ad.relu(x), np.ones(1)))
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractViolation):
            ad.backward(ad.relu(x))

    @pytest.mark.parametrize("first", [True, False])
    def test_sums_never_write_into_an_op_gradient(self, first):
        """An op's gradient array can be shared (layer_norm hands x and the
        residual one dx), so backward adds into its own sums only: here three
        gradients reach `a`, and the op's array comes first or last."""
        rng = np.random.default_rng(13)
        a = ad.matmul(leaf(rng, 3, 4), leaf(rng, 4, 4))
        held = np.ones((3, 4))
        node = ad._make(a.data.copy(), (a,), None)
        node._backward = lambda g: (held,)
        parts = [node, ad.relu(a), ad.relu(a)]
        ad.backward(ad.scalar(0.0, parts if first else parts[::-1], [np.ones((3, 4))] * 3))
        assert (held == 1.0).all()

    def test_repeated_backward_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        loss = ad.matmul(x, x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[8.0]])

    def test_matmul_grads(self):
        rng = np.random.default_rng(4)
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        check_grads(lambda: readout(ad.matmul(a, b), np.ones((3, 2))), [a, b])

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(5)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        check_grads(lambda: readout(ad.matmul(a, b), np.full((2, 3, 5), 1.0 / 30)), [a, b])

    def test_softmax_grads(self):
        rng = np.random.default_rng(6)
        x = leaf(rng, 3, 5)
        w = rng.normal(size=(3, 5))
        check_grads(lambda: readout(ad.softmax(x), w), [x])

    def test_layer_norm_grads(self):
        rng = np.random.default_rng(8)
        x, g, b = leaf(rng, 2, 3, 8), leaf(rng, 8), leaf(rng, 8)
        w = rng.normal(size=(2, 3, 8))
        check_grads(lambda: readout(ad.layer_norm(x, g, b, zero(2, 3, 8)), w), [x, g, b], tol=1e-5)

    def test_embedding_grads_scatter(self):
        rng = np.random.default_rng(9)
        table = leaf(rng, 5, 3)
        codes = np.array([[[0], [2]], [[2], [4]]])
        keep = np.ones((2, 2), dtype=bool)
        w = rng.normal(size=(2, 2, 3))
        check_grads(lambda: readout(ad.embedding([], [table], codes, keep), w), [table])

    def test_relu_grads_away_from_kink(self):
        """The relu node is both operands of one matmul, so its gradient accumulates."""
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5, requires_grad=True)
        w = rng.normal(size=(4, 4))

        def fn():
            r = ad.relu(x)
            return readout(ad.matmul(r, r), w)

        check_grads(fn, [x])


def loss_node(kernel, pred, target, w, scale):
    value, grad = kernel(pred.data, target, w, scale)
    return ad.scalar(value * scale, [pred], [grad])


class TestLossKernels:
    """Each kernel's gradient is that of scale times its value; zero weights drop a position."""

    def test_squared_error_grads_match_fd(self):
        rng = np.random.default_rng(14)
        pred = leaf(rng, 3, 5)
        target = rng.normal(size=(3, 5))
        w = (rng.random((3, 5)) < 0.6).astype(np.float64)
        w[0] = 0.0
        scale = np.asarray(1.0 / 7)
        check_grads(lambda: loss_node(ad.squared_error, pred, target, w, scale), [pred])
        value, grad = ad.squared_error(pred.data, target, w, scale)
        np.testing.assert_allclose(value, (w * (pred.data - target) ** 2).sum(), rtol=1e-12)
        assert (grad[w == 0] == 0).all()

    def test_cross_entropy_grads(self):
        rng = np.random.default_rng(7)
        logits = leaf(rng, 3, 4, 6)
        codes = rng.integers(0, 6, size=(3, 4))
        w = (rng.random((3, 4)) < 0.6).astype(np.float64)
        w[:, 0] = 0.0
        scale = np.asarray(0.25)
        check_grads(lambda: loss_node(ad.cross_entropy, logits, codes, w, scale), [logits])
        value, grad = ad.cross_entropy(logits.data, codes, w, scale)
        x = logits.data
        log_p = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
        ref = -(w * np.take_along_axis(log_p, codes[..., None], axis=-1)[..., 0]).sum()
        np.testing.assert_allclose(value, ref, rtol=1e-12)
        assert (grad[w == 0] == 0).all()

    def test_scalar_node_scales_each_input_gradient(self):
        a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        ad.backward(ad.scalar(5.0, [a, b], [np.full(2, 2.0), np.arange(3.0)]))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 2.0])


def causal_pad_mask(rng, b, t):
    """Additive (B, t, t) mask: causal, pad keys blocked, pad query rows open."""
    real = np.arange(t)[None, :] >= rng.integers(0, t - 1, size=b)[:, None]
    tri = np.tril(np.ones((t, t), dtype=bool))
    allowed = (real[:, None, :] & tri) | ~real[:, :, None]
    return np.where(allowed, 0.0, -1e9)


def unfused_attention(q, k, v, mask, heads, g):
    """Numpy reference, head by head: O = softmax(QKᵀ/√d_k + mask)·V and, for
    an upstream gradient g, (O, dQ, dK, dV) through the textbook softmax
    backward dS = P∘(dP − Σ dP∘P), not the fused op's D = Σ g∘O."""
    dk = q.shape[-1] // heads
    out, dq, dkey, dv = (np.zeros_like(x) for x in (q, q, k, v))
    for i in range(heads):
        c = slice(i * dk, (i + 1) * dk)
        qi, ki, vi, gi = q[..., c], k[..., c], v[..., c], g[..., c]
        s = qi @ ki.swapaxes(-1, -2) / np.sqrt(dk) + mask
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out[..., c] = p @ vi
        dp = gi @ vi.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) / np.sqrt(dk)
        dq[..., c] = ds @ ki
        dkey[..., c] = ds.swapaxes(-1, -2) @ qi
        dv[..., c] = p.swapaxes(-1, -2) @ gi
    return out, dq, dkey, dv


def strided_attention(q, k, v, mask, heads, g):
    """The fused op's formula on (B, heads, tq, tk) scores and strided head
    views, the transposed Kᵀ and Vᵀ views included, with a (B, 1, tq, tk)
    mask broadcast over heads: (O, dQ, dK, dV) for an upstream gradient g,
    in the fused op's order of operations."""

    def split(x):
        b, t, h = x.shape
        return x.reshape(b, t, heads, h // heads).transpose(0, 2, 1, 3)

    def merged(a, b):
        out = np.empty((a.shape[0], a.shape[2], heads, b.shape[-1]), dtype=np.result_type(a, b))
        np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
        return out.reshape(a.shape[0], a.shape[2], -1)

    def row_sums(x):
        out = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            out += x[..., j]
        return out

    scale = (q.shape[2] // heads) ** -0.5
    qh, kh, vh, gh = (split(x) for x in (q, k, v, g))
    p = np.matmul(qh, np.swapaxes(kh, -1, -2))
    p *= scale
    p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= row_sums(p)[..., None]
    o = merged(p, vh)
    ds = np.matmul(gh, np.swapaxes(vh, -1, -2))
    ds -= row_sums(gh * split(o))[..., None]
    ds *= p
    ds *= scale
    return o, merged(ds, kh), merged(np.swapaxes(ds, -1, -2), qh), merged(np.swapaxes(p, -1, -2), gh)


def pad_mask(rng, b, t):
    """Additive (B, t, t) mask: pad keys blocked, pad query rows open."""
    real = np.arange(t)[None, :] >= rng.integers(0, t - 1, size=b)[:, None]
    return np.where(real[:, None, :] | ~real[:, :, None], 0.0, -1e9)


class TestAttention:
    """The fused op against finite differences and the unfused op chain.

    q comes from one tensor and k, v from a distinct context tensor, the
    cross-attention case; self-attention is the special case k, v from q's
    input.
    """

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_grads_match_fd(self, heads):
        rng = np.random.default_rng(20 + heads)
        q, k, v = leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
        mask = causal_pad_mask(rng, 2, 5)[:, None]
        w = rng.normal(size=(2, 5, 4))
        check_grads(lambda: readout(ad.attention(q, k, v, mask, heads), w), [q, k, v])

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_unfused_chain(self, heads):
        rng = np.random.default_rng(30 + heads)
        mask = causal_pad_mask(rng, 3, 6)
        w = rng.normal(size=(3, 6, 8))
        init = np.random.default_rng(7).normal(size=(3, 3, 6, 8))
        leaves = [Tensor(x, requires_grad=True) for x in init]
        out = ad.attention(*leaves, mask[:, None], heads)
        ad.backward(readout(out, w))
        fused = [out.data] + [x.grad for x in leaves]
        for got, ref in zip(fused, unfused_attention(*init, mask, heads, w)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_nan_scores_raise(self):
        q = Tensor(np.full((1, 2, 2), np.nan))
        k = Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(NumericError):
            ad.attention(q, k, k, np.zeros((1, 1, 2, 2)), heads=1)

    @pytest.mark.parametrize("graph", [True, False])
    def test_one_nan_in_q_raises_through_the_row_max(self, graph):
        """One NaN query entry makes its head's scores in that row NaN, past a mask."""
        rng = np.random.default_rng(3)
        q, k, v = leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
        q.data[1, 3, 2] = np.nan
        with contextlib.nullcontext() if graph else ad.no_grad():
            with pytest.raises(NumericError, match="attention: NaN in scores"):
                ad.attention(q, k, v, causal_pad_mask(rng, 2, 5)[:, None], heads=2)

    def test_shape_mismatch(self):
        q = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ShapeMismatch):
            ad.attention(q, zero(1, 3, 2), zero(1, 3, 2), np.zeros((1, 1, 2, 3)), heads=2)
        with pytest.raises(ShapeMismatch):
            ad.attention(q, q, q, np.zeros((1, 1, 2, 2)), heads=3)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 3, 3, 3), (1, 2, 3, 3), (2, 2, 3, 2), (2, 2, 3, 3, 1)])
    def test_mask_must_be_batch_by_heads_by_queries_by_keys(self, shape):
        """A (B, t, t) mask, whose batch axis would pass for the head axis at
        B = heads, and a mask of the wrong size are both refused."""
        q = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeMismatch, match="attention mask"):
            ad.attention(q, q, q, np.zeros(shape), heads=2)
        for ok in ((2, 1, 3, 3), (2, 2, 3, 3)):
            assert ad.attention(q, q, q, np.zeros(ok), heads=2).shape == q.shape

    @pytest.mark.parametrize("b", [1, 5, 48, 128])
    @pytest.mark.parametrize("make_mask", [pad_mask, causal_pad_mask])
    def test_f32_bytes_equal_the_strided_formula(self, b, make_mask):
        """Output and all three input gradients at the model's shape and
        precision are the bytes of the formula on strided head views, with
        the mask per head or broadcast over heads."""
        rng = np.random.default_rng(b)
        heads, t = 8, 15
        q, k, v, g = (rng.normal(size=(b, t, 16)).astype(np.float32) for _ in range(4))
        mask = make_mask(rng, b, t).astype(np.float32)[:, None]
        ref = strided_attention(q, k, v, mask, heads, g)
        for m in (mask, np.repeat(mask, heads, axis=1)):
            out = ad.attention(*(Tensor(x, requires_grad=True) for x in (q, k, v)), m, heads)
            got = (out.data, *out._backward(g))
            for x, y in zip(got, ref):
                assert x.dtype == np.float32 and x.tobytes() == y.tobytes()


def dropout_keep(rng, shape, p=0.25):
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


class TestFusedLayerNorm:
    """layer_norm(x, g, b, residual, keep) normalizes x + residual·keep in one node."""

    @pytest.mark.parametrize("with_keep", [False, True])
    def test_grads_match_fd(self, with_keep):
        rng = np.random.default_rng(40 + with_keep)
        x, r, g, b = leaf(rng, 2, 3, 8), leaf(rng, 2, 3, 8), leaf(rng, 8), leaf(rng, 8)
        keep = dropout_keep(rng, (2, 3, 8)) if with_keep else None
        w = rng.normal(size=(2, 3, 8))
        check_grads(lambda: readout(ad.layer_norm(x, g, b, residual=r, keep=keep), w),
                    [x, r, g, b], tol=1e-5)

    @pytest.mark.parametrize("with_keep", [False, True])
    def test_matches_unfused_chain(self, with_keep):
        rng = np.random.default_rng(50 + with_keep)
        keep = dropout_keep(rng, (3, 5, 8)) if with_keep else None
        w = rng.normal(size=(3, 5, 8))
        init = [rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 5, 8)),
                rng.normal(size=8), rng.normal(size=8)]

        x, r, g, b = leaves = [Tensor(a, requires_grad=True) for a in init]
        out = ad.layer_norm(x, g, b, residual=r, keep=keep)
        ad.backward(readout(out, w))
        fused = [out.data] + [a.grad for a in leaves]

        # the unfused chain: plain layer_norm on s = x + r·keep, then ds through the add
        kept = init[1] if keep is None else init[1] * keep
        s, g, b = (Tensor(a, requires_grad=True) for a in (init[0] + kept, init[2], init[3]))
        ref = ad.layer_norm(s, g, b, zero(3, 5, 8))
        ad.backward(readout(ref, w))
        dr = s.grad if keep is None else s.grad * keep
        for got, want in zip(fused, [ref.data, s.grad, dr, g.grad, b.grad]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((2, 4)))
        g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
        with pytest.raises(ShapeMismatch):
            ad.layer_norm(x, g, b, residual=zero(2, 3))
        with pytest.raises(ShapeMismatch):
            ad.layer_norm(x, g, b, residual=x, keep=np.ones((4,)))


class TestDense:
    """matmul(a, w, bias) with a 2-D weight is one GEMM over a's flattened rows."""

    def test_grads_match_fd(self):
        rng = np.random.default_rng(60)
        a, w, bias = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        out_w = rng.normal(size=(2, 3, 5))
        check_grads(lambda: readout(ad.matmul(a, w, bias), out_w), [a, w, bias])

    def test_matches_unfused_chain(self):
        """Against a per-entity einsum forward and its gradients."""
        rng = np.random.default_rng(61)
        a, w, bias = init = [rng.normal(size=(3, 4, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)]
        g = rng.normal(size=(3, 4, 5))
        leaves = [Tensor(x, requires_grad=True) for x in init]
        out = ad.matmul(*leaves)
        ad.backward(readout(out, g))
        reference = [np.einsum("btk,kn->btn", a, w) + bias, np.einsum("btn,kn->btk", g, w),
                     np.einsum("btk,btn->kn", a, g), np.einsum("btn->n", g)]
        for got, ref in zip([out.data] + [x.grad for x in leaves], reference):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_bias_shape_checked(self):
        a, w = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, w, Tensor(np.zeros(4)))
        with pytest.raises(ShapeMismatch):  # the weight must be 2-D, with or without a bias
            ad.matmul(a, Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, Tensor(np.zeros((2, 4, 5))))


class TestEmbedding:
    """The input layer: constant columns and table rows joined per step, dropped steps zero."""

    @staticmethod
    def inputs(rng):
        """Two tables, codes with repeats and code 0, and two dropped steps.

        Code 3 of the first table and code 2 of the second appear only at
        dropped steps, so those rows must get no gradient.
        """
        consts = [rng.normal(size=(2, 3, 1)), rng.normal(size=(2, 3, 2))]
        tables = [leaf(rng, 4, 3), leaf(rng, 3, 2)]
        codes = np.array([[[1, 0], [1, 1], [3, 2]],
                          [[0, 1], [2, 2], [2, 0]]])
        keep = np.array([[True, True, False], [True, False, True]])
        return consts, tables, codes, keep

    def test_grads_over_two_tables(self):
        rng = np.random.default_rng(21)
        consts, tables, codes, keep = self.inputs(rng)
        w = rng.normal(size=(2, 3, 8))
        check_grads(lambda: readout(ad.embedding(consts, tables, codes, keep), w), tables)

    def test_value_and_dropped_steps(self):
        rng = np.random.default_rng(22)
        consts, tables, codes, keep = self.inputs(rng)
        out = ad.embedding(consts, tables, codes, keep)
        assert out.requires_grad and out._parents == tuple(tables)
        rows = [tables[i].data[codes[..., i]] for i in range(2)]
        np.testing.assert_array_equal(out.data, np.concatenate(consts + rows, axis=-1) * keep[..., None])
        assert (out.data[~keep] == 0).all()
        ad.backward(readout(out, np.ones((2, 3, 8))))
        assert (tables[0].grad[3] == 0).all() and (tables[1].grad[2] == 0).all()
        np.testing.assert_array_equal(tables[0].grad[1], 2.0)  # code 1 kept twice in column 0
        np.testing.assert_array_equal(tables[1].grad[0], 2.0)  # code 0 kept twice in column 1

    def test_no_tables_builds_no_graph(self):
        consts = [np.ones((2, 3, 1)), np.full((2, 3, 2), -2.0)]
        keep = np.array([[True, False, True], [False, False, True]])
        out = ad.embedding(consts, [], np.zeros((2, 3, 0), dtype=np.int64), keep)
        assert not out.requires_grad and out._backward is None and out._parents == ()
        assert out.shape == (2, 3, 3)
        np.testing.assert_array_equal(out.data[keep], [[1.0, -2.0, -2.0]] * 3)
        assert (out.data[~keep] == 0).all()

    def test_keep_shape_checked(self):
        rng = np.random.default_rng(23)
        consts, tables, codes, keep = self.inputs(rng)
        for bad in (keep[:, :2], keep[None], keep[..., None]):
            with pytest.raises(ShapeMismatch, match="embedding keep"):
                ad.embedding(consts, tables, codes, bad)


class TestNoGrad:
    def test_builds_no_graph_and_restores(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        ones = Tensor(np.ones((3, 3)))
        with ad.no_grad():
            y = ad.relu(ad.matmul(x, ones))
        assert not y.requires_grad and y._backward is None and y._parents == ()
        assert ad.matmul(x, ones).requires_grad

    def test_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError), ad.no_grad():
            raise RuntimeError
        assert ad.relu(x)._backward is not None


class TestFlatParams:
    def test_params_are_views_of_flat(self):
        flat = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        params = ad.FlatParams([("w", (2, 3)), ("b", (1,))], flat)
        assert not np.shares_memory(params.flat, flat)
        np.testing.assert_array_equal(params.flat, flat)
        for p in params.params.values():
            assert p.data.base is params.flat
        np.testing.assert_array_equal(params["w"].data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(params["b"].data, [7.0])
        with pytest.raises(ShapeMismatch):
            ad.FlatParams([("w", (2, 3)), ("b", (1,))], flat[:-1])

    def test_gradients_accumulate_into_flat_grad(self):
        params = ad.FlatParams([("w", (2, 2)), ("b", (2,))], np.ones(6))
        params.zero_grad()
        ad.backward(readout(params["w"], np.full((2, 2), 3.0)))
        np.testing.assert_array_equal(params.grad, [3.0, 3.0, 3.0, 3.0, 0.0, 0.0])
        for name, p in params.items():
            assert p.grad.base is params.grad


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_composite_graph_matches_fd(seed):
    """Property: any composition of core ops agrees with the FD oracle."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4,)), requires_grad=True)

    codes = rng.integers(0, 4, size=2)
    w = rng.normal(size=(2, 4))
    scale = np.asarray(0.5)

    def fn():
        h = ad.matmul(a, b, c)
        s = ad.softmax(ad.layer_norm(h, Tensor(np.ones(4)), zero(4), zero(2, 4)), axis=-1)
        value, grad = ad.cross_entropy(h.data, codes, np.ones(2), scale)
        return ad.scalar(value * scale + (s.data * w).sum(), [h, s], [grad, w])

    check_grads(fn, [a, b, c], tol=2e-5)


def test_forward_determinism():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 8))

    def run():
        x32 = x.astype(np.float32)
        return ad.softmax(ad.matmul(Tensor(x32), Tensor(x32.T))).data

    assert (run() == run()).all()

