from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from oracles import (
    composed_attend_out,
    composed_attention_weights,
    composed_gelu,
    composed_linear,
    composed_project_heads,
    fd_entry,
    rel_err,
    reshape,
    transpose,
)
from sqgen import numerics as nm
from sqgen.numerics import (
    ConfigError,
    InvalidLoss,
    NumericalError,
    Tensor,
)


def param(rng, *shape):
    return Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)


def check_grads_by_fd(build_loss, params, rng, samples=6, tol=1e-6, grads=None):
    """Compare analytic gradients of scalar build_loss() against per-entry
    central differences at sampled positions of every parameter. The
    gradients are grad_map over one build_loss() unless given."""
    if grads is None:
        grads = nm.grad_map(build_loss(), params)

    def loss_value():
        return float(build_loss().item())

    for name, p in params.items():
        flat_size = p.data.size
        g = grads[name].reshape(-1)
        for idx in rng.choice(flat_size, size=min(samples, flat_size), replace=False):
            fd = fd_entry(loss_value, p.data, int(idx))
            assert rel_err(fd, g[idx]) < tol, (name, idx, fd, g[idx])


def test_tensor_repr_names_its_shape_and_grad_flag():
    assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == (
        "Tensor(shape=(2, 3), requires_grad=True)"
    )
    assert repr(Tensor(1.5)) == "Tensor(shape=(), requires_grad=False)"


def test_sigmoid_bytes_match_the_three_exp_expression():
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 750.0, -750.0, np.inf, -np.inf]
    x = np.concatenate([rng.standard_normal(100_000) * 30.0, edges])
    expected = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    assert nm.sigmoid(x).data.tobytes() == expected.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        out = nm.softmax(Tensor([[0.0, 0.0]]), axis=-1)
        assert_allclose(out.data, [[0.5, 0.5]])

    def test_analytic_point(self):
        out = nm.softmax(Tensor([[0.0, np.log(3.0)]]), axis=-1)
        assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 5))
        a = nm.softmax(Tensor(x), axis=-1).data
        b = nm.softmax(Tensor(x + 137.0), axis=-1).data
        assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one_entries_in_unit_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(scale=10.0, size=(4, 7))
            out = nm.softmax(Tensor(x), axis=-1).data
            assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-9)
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            nm.softmax(Tensor([[np.nan, 0.0]]), axis=-1)

    def test_gradient(self):
        rng = np.random.default_rng(42)
        x = param(rng, 3, 5)
        w = rng.normal(size=(3, 5))
        build = lambda: nm.sum_(nm.softmax(x, axis=-1) * Tensor(w))
        check_grads_by_fd(build, {"x": x}, rng)


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = nm.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
        assert_allclose(out.data, np.zeros((1, 4)), atol=1e-5)

    def test_already_normalized_fixed_point(self):
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        out = nm.layer_norm(Tensor([[1.0, -1.0]]), g, b)
        assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 8))
        g = Tensor(rng.normal(size=8))
        b = Tensor(rng.normal(size=8))
        a = nm.layer_norm(Tensor(x), g, b).data
        c = nm.layer_norm(Tensor(x + 11.0), g, b).data
        assert_allclose(a, c, atol=1e-7)

    def test_standardizes_rows(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 16))
        out = nm.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-12)
        assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(42)
        x = param(rng, 3, 6)
        g = param(rng, 6)
        b = param(rng, 6)
        w = rng.normal(size=(3, 6))
        build = lambda: nm.sum_(nm.layer_norm(x, g, b) * Tensor(w))
        check_grads_by_fd(build, {"x": x, "g": g, "b": b}, rng)


class TestAttention:
    def _proj(self, rng, d):
        names = {}
        for part in ("wq", "wk", "wv", "wo"):
            names[part] = param(rng, d, d)
        for part in ("bq", "bk", "bv", "bo"):
            names[part] = param(rng, d)
        return names

    def _run(self, q, k, v, p, n_heads, mask=None):
        heads = lambda x, w, b: nm.project_heads(x, p[w], p[b], n_heads)
        attn = nm.attention_weights(heads(q, "wq", "bq"), heads(k, "wk", "bk"), mask)
        return nm.attend_out(attn, heads(v, "wv", "bv"), p["wo"], p["bo"]), attn

    def test_uniform_attention_when_queries_equal(self):
        rng = np.random.default_rng(42)
        d = 4
        p = self._proj(rng, d)
        q = Tensor(np.zeros((2, d)))
        k = Tensor(rng.normal(size=(3, d)))
        v = Tensor(rng.normal(size=(3, d)))
        p["wq"].data[:] = 0.0  # zero projected queries -> all scores equal
        p["bq"].data[:] = 0.0
        _, attn = self._run(q, k, v, p, n_heads=2)
        assert_allclose(attn.data, np.full((2, 2, 3), 1.0 / 3.0), atol=1e-12)

    def test_masked_keys_get_zero_weight(self):
        rng = np.random.default_rng(42)
        d = 4
        p = self._proj(rng, d)
        x = Tensor(rng.normal(size=(3, d)))
        mask = np.zeros((3, 3))
        mask[:, 2] = -1e9  # hide the last key from everyone
        _, attn = self._run(x, x, x, p, n_heads=2, mask=mask)
        assert_allclose(attn.data[:, :, 2], np.zeros((2, 3)), atol=0.0)

    def test_single_key_weight_is_one(self):
        rng = np.random.default_rng(42)
        d = 4
        p = self._proj(rng, d)
        q = Tensor(rng.normal(size=(1, d)))
        kv = Tensor(rng.normal(size=(1, d)))
        _, attn = self._run(q, kv, kv, p, n_heads=2)
        assert_allclose(attn.data, np.ones((2, 1, 1)), atol=0.0)

    def test_output_shape_matches_query(self):
        rng = np.random.default_rng(42)
        d = 6
        p = self._proj(rng, d)
        q = Tensor(rng.normal(size=(5, d)))
        kv = Tensor(rng.normal(size=(3, d)))
        out, attn = self._run(q, kv, kv, p, n_heads=3)
        assert out.data.shape == (5, d)
        assert attn.data.shape == (3, 5, 3)

    def test_head_split_requires_divisibility(self):
        rng = np.random.default_rng(42)
        d = 6
        p = self._proj(rng, d)
        x = Tensor(rng.normal(size=(2, d)))
        with pytest.raises(ConfigError):
            self._run(x, x, x, p, n_heads=4)

    def test_gradient_through_attention(self):
        rng = np.random.default_rng(42)
        d = 4
        p = self._proj(rng, d)
        q = param(rng, 3, d)
        w = rng.normal(size=(3, d))
        params = {"q": q, **p}

        def build():
            out, _ = self._run(q, q, q, p, n_heads=2, mask=nm.causal_mask(3))
            return nm.sum_(out * Tensor(w))

        check_grads_by_fd(build, params, rng, samples=4)


ATTENTION_CASES = {
    "no_mask": (4, 4, None),
    "causal": (4, 4, nm.causal_mask(4)),
    "past": (2, 5, nm.causal_mask(2, past=3)),
    "tq_ne_tk": (3, 6, None),
}


class TestFusedNodes:
    """attention_weights and linear against the compositions they replace:
    the same bytes forward and in every input's gradient, and gradients that
    agree with finite differences."""

    H, DH = 2, 3

    def _heads(self, rng, t, split):
        """A leaf and a function building (H, t, dh) heads from it: split=True
        makes the leaf rows (t, H, dh) and goes through a transpose, so the
        heads are a transposed view, laid out as project_heads' output is."""
        if split:
            leaf = param(rng, t, self.H, self.DH)
            return leaf, lambda: transpose(leaf, (1, 0, 2))
        leaf = param(rng, self.H, t, self.DH)
        return leaf, lambda: leaf

    def _grads(self, op, inputs, wts):
        out = op()
        nm.sum_(out * Tensor(wts)).backward()
        grads = [x.grad for x in inputs]
        for x in inputs:
            x.grad = None
        return out.data, grads

    @pytest.mark.parametrize("split", [False, True], ids=["leaves", "head_split"])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention_weights_bytes_equal_the_composition(self, case, split):
        tq, tk, mask = ATTENTION_CASES[case]
        rng = np.random.default_rng(7)
        q, qh = self._heads(rng, tq, split)
        k, kh = self._heads(rng, tk, split)
        wts = rng.normal(size=(self.H, tq, tk))
        fused = self._grads(lambda: nm.attention_weights(qh(), kh(), mask), [q, k], wts)
        composed = self._grads(lambda: composed_attention_weights(qh(), kh(), mask), [q, k], wts)
        assert fused[0].tobytes() == composed[0].tobytes()
        for got, want in zip(fused[1], composed[1]):
            assert got.tobytes() == want.tobytes()

    def test_linear_bytes_equal_the_composition(self):
        rng = np.random.default_rng(7)
        x, w, b = param(rng, 5, 4), param(rng, 4, 3), param(rng, 3)
        wts = rng.normal(size=(5, 3))
        fused = self._grads(lambda: nm.linear(x, w, b), [x, w, b], wts)
        composed = self._grads(lambda: composed_linear(x, w, b), [x, w, b], wts)
        assert fused[0].tobytes() == composed[0].tobytes()
        for got, want in zip(fused[1], composed[1]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention_weights_gradient(self, case):
        tq, tk, mask = ATTENTION_CASES[case]
        rng = np.random.default_rng(42)
        q, qh = self._heads(rng, tq, split=True)
        k, kh = self._heads(rng, tk, split=False)
        wts = rng.normal(size=(self.H, tq, tk))
        build = lambda: nm.sum_(nm.attention_weights(qh(), kh(), mask) * Tensor(wts))
        check_grads_by_fd(build, {"q": q, "k": k}, rng, samples=12)

    def test_linear_gradient_with_broadcast_bias(self):
        rng = np.random.default_rng(42)
        x, w, b = param(rng, 5, 4), param(rng, 4, 3), param(rng, 3)
        wts = rng.normal(size=(5, 3))
        build = lambda: nm.sum_(nm.linear(x, w, b) * Tensor(wts))
        check_grads_by_fd(build, {"x": x, "w": w, "b": b}, rng)

    @pytest.mark.parametrize("node", ["attention_weights", "linear"])
    def test_a_gradient_shared_with_another_parent_is_not_written(self, node):
        rng = np.random.default_rng(42)
        if node == "attention_weights":
            inputs = [param(rng, self.H, 3, self.DH), param(rng, self.H, 4, self.DH)]
            op = lambda: nm.attention_weights(*inputs, nm.causal_mask(3, past=1))
        else:
            inputs = [param(rng, 3, 4), param(rng, 4, 4), param(rng, 4)]
            op = lambda: nm.linear(*inputs)
        out = op()
        other = param(rng, *out.shape)
        wts = rng.normal(size=out.shape)
        # add hands one array to both parents, and the leaf keeps it as .grad
        nm.sum_((out + other) * Tensor(wts)).backward()
        assert np.array_equal(other.grad, wts)
        check_grads_by_fd(lambda: nm.sum_((op() + other) * Tensor(wts)),
                          {**{f"x{i}": x for i, x in enumerate(inputs)}, "other": other}, rng)

    def test_nan_score_rejected(self):
        qh = Tensor(np.full((1, 2, 2), np.nan))
        with pytest.raises(NumericalError, match="NaN"):
            nm.attention_weights(qh, Tensor(np.ones((1, 3, 2))))


HEAD_NODES = {
    "project_heads": (nm.project_heads, composed_project_heads),
    "attend_out": (nm.attend_out, composed_attend_out),
}


class TestHeadNodes:
    """project_heads and attend_out against the compositions they replace:
    the same bytes forward and in every input's gradient, whatever the layout
    and signs of the gradient they are handed and whoever else reads it, and
    gradients that agree with finite differences."""

    @staticmethod
    def _case(node, rng, t, heads, dh, tk):
        """The node's leaves and a function applying one of its two forms
        (fused or composed) to them."""
        d = heads * dh
        if node == "project_heads":
            leaves = [param(rng, t, d), param(rng, d, d), param(rng, d)]
            return leaves, lambda op: op(*leaves, heads)
        leaves = [param(rng, heads, t, tk), param(rng, heads, tk, dh), param(rng, d, d),
                  param(rng, d)]
        return leaves, lambda op: op(*leaves)

    @staticmethod
    def _gradient(rng, shape, layout, neg_zero):
        """An output gradient of `shape` laid out as `layout` says, with each
        drawn entry -0.0 at rate neg_zero: C order, the reversed shape's
        strides transposed back, read-only, or one row broadcast."""
        drawn = {"reversed": shape[::-1], "broadcast": shape[-1:]}.get(layout, shape)
        g = rng.standard_normal(drawn)
        g[rng.random(drawn) < neg_zero] = -0.0
        if layout == "reversed":
            return g.transpose()
        if layout == "broadcast":
            return np.broadcast_to(g, shape)
        if layout == "read_only":
            g.setflags(write=False)
        return g

    @staticmethod
    def _backward(out, g, consumers):
        """Backward from a probe that hands g as it is to `consumers` of out:
        out alone, out and another leaf through one add (which hands both the
        same array), or out twice (which sums two gradients into it). Returns
        the other leaf's gradient, or None."""
        other = Tensor(np.zeros(out.shape), requires_grad=True)
        top = {"alone": out, "shared": out + other, "twice": out + out}[consumers]

        def hand(_):
            top.grad = g

        Tensor._make(np.zeros(()), (top,), hand).backward()
        return other.grad

    @settings(max_examples=150, deadline=None)
    @given(
        node=st.sampled_from(sorted(HEAD_NODES)),
        sizes=st.tuples(*[st.integers(1, 4)] * 4),
        layout=st.sampled_from(["c", "reversed", "read_only", "broadcast"]),
        neg_zero=st.sampled_from([0.0, 0.5, 1.0]),
        consumers=st.sampled_from(["alone", "shared", "twice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_the_composition(self, node, sizes, layout, neg_zero, consumers, seed):
        results = []
        for op in HEAD_NODES[node]:
            rng = np.random.default_rng(seed)
            leaves, apply = self._case(node, rng, *sizes)
            out = apply(op)
            g = self._gradient(rng, out.shape, layout, neg_zero)
            kept = g.copy()
            other = self._backward(out, g, consumers)
            assert g.tobytes() == kept.tobytes()  # g not written
            if consumers == "shared":
                assert np.array_equal(other, kept)  # a copy of g when g does not fit
            results.append((out.data, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (composed, composed_grads) = results
        assert fused.strides == composed.strides
        assert fused.tobytes() == composed.tobytes()
        for got, want in zip(fused_grads, composed_grads):
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("node", sorted(HEAD_NODES))
    def test_gradient(self, node):
        rng = np.random.default_rng(42)
        leaves, apply = self._case(node, rng, 3, 2, 2, 4)
        fused = HEAD_NODES[node][0]
        wts = rng.normal(size=apply(fused).shape)
        build = lambda: nm.sum_(apply(fused) * Tensor(wts))
        check_grads_by_fd(build, {f"x{i}": x for i, x in enumerate(leaves)}, rng, samples=8)


class TestBackward:
    def test_quadratic(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = nm.sum_(x * x)
        loss.backward()
        assert_allclose(x.grad, [2.0, -4.0, 6.0])

    def test_unused_parameter_gets_zero(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        grads = nm.grad_map(nm.sum_(x * x), {"x": x, "y": y})
        assert_allclose(grads["y"], [0.0])

    def test_linearity(self):
        rng = np.random.default_rng(42)
        xa = rng.normal(size=4)

        def gradient(a, b):
            x = Tensor(xa.copy(), requires_grad=True)
            loss = nm.sum_(x * x) * a + nm.sum_(nm.gelu(x)) * b
            return nm.grad_map(loss, {"x": x})["x"]

        g = 2.0 * gradient(1.0, 0.0) + 3.0 * gradient(0.0, 1.0)
        assert_allclose(gradient(2.0, 3.0), g, rtol=1e-12)

    @pytest.mark.parametrize("root", [np.nan, np.inf])
    def test_non_finite_root_rejected(self, root):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericalError, match="not finite"):
            nm.sum_(x * Tensor([root])).backward()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(InvalidLoss):
            (x * x).backward()

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # used twice below
        loss = nm.sum_(y + y)
        loss.backward()
        assert_allclose(x.grad, [8.0])

    def test_second_backward_over_a_consumed_graph_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * x
        loss = nm.sum_(y)
        loss.backward()
        assert y.grad is None and loss.grad is None  # interior nodes released
        assert_allclose(x.grad, [2.0, -4.0])  # the leaf keeps its gradient
        with pytest.raises(InvalidLoss, match="consumed"):
            loss.backward()

    def test_backward_reaching_a_consumed_node_raises(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        nm.sum_(y).backward()
        with pytest.raises(InvalidLoss, match="consumed"):
            nm.sum_(y * 2.0).backward()

    def test_detached_scalar_backward_stays_a_no_op(self):
        x = Tensor([1.0], requires_grad=True)
        with nm.no_grad():
            y = nm.sum_(x * x)
        y.backward()
        y.backward()
        assert x.grad is None


GELU_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-8, -1e-8, 1e3, -1e3]


class TestGeluBytes:
    """gelu against the out-of-place expressions it works out in place: the
    same bytes forward and in the input's gradient, with neither x nor the
    gradient it is handed written."""

    def _check(self, x, g):
        x.setflags(write=False)
        g.setflags(write=False)  # so a write into either raises
        leaf = Tensor(x, requires_grad=True)
        out = nm.gelu(leaf)
        out._backward(g)
        want_out, want_grad = composed_gelu(x, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert leaf.grad.tobytes() == want_grad.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        drawn=hnp.arrays(
            np.float64,
            hnp.array_shapes(max_dims=1, max_side=32),
            elements=st.one_of(st.sampled_from(GELU_EDGES), st.floats(-1e3, 1e3)),
        ),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 3.0, 1e3]),
    )
    def test_bytes_equal_the_composition(self, drawn, seed, scale):
        # about 0.3% of standard-normal entries tell a two-multiply cube from
        # x**3, so each example carries a thousand of them
        rng = np.random.default_rng(seed)
        x = np.concatenate([drawn, GELU_EDGES, scale * rng.standard_normal(1000)])
        self._check(x, rng.standard_normal(x.size))

    def test_a_0_d_input(self):
        self._check(np.array(-1.5), np.array(0.25))


class TestGradientAliasing:
    """An op may hand one gradient array to two parents, and a parameter's
    .grad outlives the backward that filled it: no gradient may be written
    through by a node that does not own it."""

    def test_add_shares_its_gradient_with_both_parents(self):
        rng = np.random.default_rng(42)
        a, b = param(rng, 3, 4), param(rng, 3, 4)

        def build():
            s = a + b  # a and b both receive s's gradient first
            return nm.sum_(s * s) + nm.sum_(a * 3.0) + nm.sum_(b * 5.0)

        check_grads_by_fd(build, {"a": a, "b": b}, rng, samples=12)

    def test_one_table_gathered_twice_with_repeated_ids(self):
        rng = np.random.default_rng(42)
        table = param(rng, 6, 3)
        w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        build = lambda: (
            nm.sum_(nm.embedding(table, [1, 4, 1, 1]) * Tensor(w1))
            + nm.sum_(nm.embedding(table, [4, 0, 4]) * Tensor(w2))
        )
        check_grads_by_fd(build, {"table": table}, rng, samples=18)

    def test_one_table_accumulates_over_two_backward_calls(self):
        rng = np.random.default_rng(42)
        table = param(rng, 6, 3)
        w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(4, 3))
        first = lambda: nm.sum_(nm.embedding(table, [2, 5, 2]) * Tensor(w1))
        second = lambda: nm.sum_(nm.embedding(table, [5, 5, 0, 2]) * Tensor(w2))

        first().backward()
        after_first = table.grad
        kept = after_first.copy()
        second().backward()
        assert np.array_equal(after_first, kept)  # the first .grad is not written through
        build = lambda: first() + second()
        check_grads_by_fd(build, {"table": table}, rng, samples=18,
                          grads={"table": table.grad})

    def test_one_weight_accumulates_over_two_backward_calls(self):
        rng = np.random.default_rng(42)
        w, b = param(rng, 4, 5), param(rng, 5)
        x1, x2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        t1, t2 = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
        first = lambda: nm.sum_(nm.linear(Tensor(x1), w, b) * Tensor(t1))
        second = lambda: nm.sum_(nm.linear(Tensor(x2), w, b) * Tensor(t2))

        first().backward()
        after_first = w.grad
        kept = after_first.copy()
        second().backward()
        assert np.array_equal(after_first, kept)  # the first .grad is not written through
        build = lambda: first() + second()
        check_grads_by_fd(build, {"w": w, "b": b}, rng, samples=18,
                          grads={"w": w.grad, "b": b.grad})


class TestOpGradients:
    """Finite-difference checks for each remaining op, alone and composed."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(42)
        x = param(rng, 3, 4)
        w = rng.normal(size=(3, 4))
        build = lambda: nm.sum_(
            (nm.gelu(x) + nm.sigmoid(x) * 0.5 - nm.log(nm.sigmoid(x))) * Tensor(w)
        )
        check_grads_by_fd(build, {"x": x}, rng)

    def test_gelu(self):
        rng = np.random.default_rng(42)
        x = param(rng, 4, 4)
        w = rng.normal(size=(4, 4))
        build = lambda: nm.sum_(nm.gelu(x) * Tensor(w))
        check_grads_by_fd(build, {"x": x}, rng)

    def test_log(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        build = lambda: nm.sum_(nm.log(x))
        check_grads_by_fd(build, {"x": x}, rng)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericalError):
            nm.log(Tensor([0.0]))
        with pytest.raises(NumericalError):
            nm.log(Tensor([-1.0]))

    def test_matmul_and_linear(self):
        rng = np.random.default_rng(42)
        x = param(rng, 3, 4)
        w = param(rng, 4, 5)
        b = param(rng, 5)
        t = rng.normal(size=(3, 5))
        build = lambda: nm.sum_(nm.linear(x, w, b) * Tensor(t))
        check_grads_by_fd(build, {"x": x, "w": w, "b": b}, rng)

    def test_broadcast_mul_unbroadcasts_gradient(self):
        rng = np.random.default_rng(42)
        x = param(rng, 3, 4)
        s = param(rng, 1)  # broadcast scalar-ish
        build = lambda: nm.sum_(x * s)
        check_grads_by_fd(build, {"x": x, "s": s}, rng)

    def test_embedding_and_take_per_row(self):
        rng = np.random.default_rng(42)
        table = param(rng, 7, 4)
        ids = np.array([1, 3, 3, 5])
        w = rng.normal(size=(4, 4))
        build = lambda: nm.sum_(nm.embedding(table, ids) * Tensor(w))
        check_grads_by_fd(build, {"table": table}, rng)

        x = param(rng, 4, 6)
        cols = np.array([0, 5, 2, 2])
        build2 = lambda: nm.sum_(nm.log(nm.sigmoid(nm.take_per_row(x, cols))))
        check_grads_by_fd(build2, {"x": x}, rng)

    def test_scatter_to_vocab(self):
        rng = np.random.default_rng(42)
        weights = Tensor(rng.uniform(0.1, 1.0, (3, 4)), requires_grad=True)
        ids = np.array([2, 5, 5, 1])
        w = rng.normal(size=(3, 8))

        out = nm.scatter_to_vocab(weights, ids, 8)
        # duplicate id 5 accumulates both columns
        assert_allclose(out.data[:, 5], weights.data[:, 1] + weights.data[:, 2])
        assert_allclose(out.data.sum(axis=-1), weights.data.sum(axis=-1))

        build = lambda: nm.sum_(nm.scatter_to_vocab(weights, ids, 8) * Tensor(w))
        check_grads_by_fd(build, {"w": weights}, rng)

    def test_concat_reshape_transpose(self):
        rng = np.random.default_rng(42)
        a = param(rng, 2, 3)
        b = param(rng, 2, 3)
        w = rng.normal(size=(3, 4))

        def build():
            c = nm.concat([a, b], axis=-1)  # (2, 6)
            r = reshape(c, (3, 4))
            t = transpose(r, (0, 1))
            return nm.sum_(t * Tensor(w))

        check_grads_by_fd(build, {"a": a, "b": b}, rng)

    def test_getitem(self):
        rng = np.random.default_rng(42)
        x = param(rng, 5, 4)
        w = rng.normal(size=(2, 4))
        build = lambda: nm.sum_(x[1:3] * Tensor(w))
        check_grads_by_fd(build, {"x": x}, rng)

    def test_mean_and_sum_axes(self):
        rng = np.random.default_rng(42)
        x = param(rng, 4, 5)
        build = lambda: nm.sum_(nm.mean(x, axis=0) * nm.sum_(x, axis=1)[:1])
        check_grads_by_fd(build, {"x": x}, rng)


class TestNoGrad:
    def test_no_graph_inside_context(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with nm.no_grad():
            y = nm.sum_(x * x)
        assert y._parents == ()
        assert y.requires_grad is False
        y.backward()  # detached scalar: nothing flows back
        assert x.grad is None

    def test_recording_resumes_after_context(self):
        x = Tensor([3.0], requires_grad=True)
        with nm.no_grad():
            pass
        nm.sum_(x * x).backward()
        assert_allclose(x.grad, [6.0])


class TestCausalMask:
    def test_strictly_upper_triangle_blocked(self):
        m = nm.causal_mask(4)
        assert m.shape == (4, 4)
        assert np.all(m[np.triu_indices(4, k=1)] == -1e9)
        assert np.all(m[np.tril_indices(4)] == 0.0)
