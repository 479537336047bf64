"""Dense float64 tensors with reverse-mode differentiation.

Just the ops the encoder-decoder transformer and its training run:
elementwise arithmetic, GELU, concat, getitem (which embedding
lookup and per-row gather build on), sums, softmax, layer norm, a scatter
onto the vocabulary, and four fused nodes for projection and multi-head
attention. Arrays are numpy float64 throughout and every reduction has a
fixed order, so runs with the same seed are bit-reproducible.

Each fused node has a hand-written backward and computes exactly the bytes
of the composition it replaces, forward and in every input's gradient (the
compositions, with the single-op nodes only they use, are in
tests/oracles.py): `linear` is `add(matmul(x, w), b)`; `attention_weights`
is `softmax(qh @ khᵀ · (1/√dh) + mask)`; `project_heads` is `linear`, a
reshape and a transpose that split the heads; and `attend_out` is
`attn @ vh`, a transpose and a reshape that merge the heads, and `linear`.
The fused attention node keeps only its softmax output for backward, not
the score arrays before it. Where the composition's inner node would have
copied a gradient into its own layout (`_first_grad`), the fused backward
makes the same copy, so its parents get the same arrays.

Gradients flow through a recorded graph: each op closes over its inputs and
appends local gradients to them when `backward` walks the graph in reverse
topological order, in the style of the classic scalar autodiff tape but
tensor-valued. `backward` consumes the graph as it walks it: once a node has
passed its gradient on, its gradient, closure and parent links are dropped,
so the arrays it held are freed while the walk goes on, and a later backward
that reaches it raises. Leaves (parameters) keep their `.grad`, which sums
over backward calls until the caller clears it.

A backward never writes into the `g` it is handed: one op may hand the same
array to two parents (`add` does), so every closure builds its results in
arrays of its own. `ConfigError` (an inconsistent shape, head count or token
id) is defined here, and `model` raises it too.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np


class ConfigError(ValueError):
    """Shape, head or token-id configuration is inconsistent."""


class NumericalError(ArithmeticError):
    """An op produced or received NaN/Inf where finite values are required."""


class InvalidLoss(ValueError):
    """backward() needs a scalar root."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray, own: bool = False) -> None:
        """Add g to .grad without ever writing into an array the node does not
        own: one op may hand the same g to two parents, and an earlier .grad
        may be held elsewhere. The first g is kept as is when it is writable
        and laid out like a fresh zeros_like(data), so every later op reads
        the same memory order and sums the same bits; any other g is copied
        into that layout. `own` says the caller made g for this node alone,
        so a sum goes into g itself rather than a third array."""
        if self.grad is None:
            self.grad = _first_grad(self.data, g)
        else:
            out = g if own and _fits(self.data, g) else np.empty_like(self.data)
            self.grad = np.add(self.grad, g, out=out)

    def backward(self) -> None:
        """Fill .grad on every leaf reachable from this scalar, consuming the
        graph: interior nodes give up their gradient, closure and parents as
        soon as they have propagated, and a backward that reaches a consumed
        node raises InvalidLoss."""
        if self.data.size != 1:
            raise InvalidLoss(f"backward root must be scalar, got shape {self.shape}")
        if not np.isfinite(self.data).all():
            raise NumericalError("backward root is not finite")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its .grad
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def _consumed(g: np.ndarray) -> None:
    raise InvalidLoss("graph already consumed by backward")


def _fits(data: np.ndarray, g: np.ndarray) -> bool:
    """g is writable and laid out like a fresh zeros_like(data)."""
    return g.flags.writeable and g.strides == data.strides and data.flags.c_contiguous


def _first_grad(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The .grad that `_accumulate` gives a node holding `data` that has none
    yet: g itself when it fits, else 0.0 + g in an array laid out like data
    (the bytes of zeros_like(data) += g, which turn -0.0 into +0.0). A fused
    node calls it for each inner node of the composition it replaces, so its
    parents get the composition's arrays."""
    if _fits(data, g):
        return g
    return np.add(0.0, g, out=np.empty_like(data))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` along the axes numpy broadcast it over."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericalError("log of a non-positive value")
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """tanh-form GELU, smooth everywhere (finite differences stay honest).

    The forward has the bytes of `0.5 * x * (1.0 + tanh(C * (x + A * (x * x * x))))`,
    worked out op for op in arrays of its own. The cube is two multiplies, not
    `x**3`: NumPy's power is slow (a libm `pow` for negative inputs) and its
    bytes depend on the SIMD path NumPy picks on the host, while two IEEE
    multiplies give the same bytes everywhere."""
    a = _as_tensor(a)
    x = a.data
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= _GELU_A
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = np.multiply(0.5, x, out=np.empty_like(x))
    out_data *= 1.0 + t

    def backward(g):
        # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du) with
        # du = C * (1.0 + 3.0 * A * x**2), op for op, in three arrays of its own
        if a.requires_grad:
            du = np.square(x, out=np.empty_like(x))
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C
            dx = np.square(t, out=np.empty_like(t))
            np.subtract(1.0, dx, out=dx)
            slope = np.multiply(0.5, x, out=np.empty_like(x))
            slope *= dx
            slope *= du
            np.add(1.0, t, out=dx)
            dx *= 0.5
            dx += slope
            dx *= g
            a._accumulate(dx, own=True)

    return Tensor._make(out_data, (a,), backward)


# -- shape ops -------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=axis)

    def backward(g):
        start = 0
        for t, size in zip(ts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            if t.requires_grad:
                t._accumulate(g[tuple(sl)])
            start += size

    return Tensor._make(out_data, tuple(ts), backward)


def getitem(a, key) -> Tensor:
    """out = a[key]; the gradient scatters back with np.add.at, so repeated
    indices accumulate. The one gather op: embedding and take_per_row are
    getitem with their index built. The scatter goes into a fresh table,
    which becomes a's .grad when a has none yet and takes the sum with an
    existing .grad otherwise; adding repeated ids one by one into an
    existing .grad would round differently from adding the finished
    table."""
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full, own=True)

    return Tensor._make(a.data[key], (a,), backward)


def sum_(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def backward(g):
        if a.requires_grad:
            gg = g if axis is None else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape))

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis), 1.0 / n)


# -- linear algebra ----------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: the bias is added in place into the fresh
    matmul output, and backward gives x, w and b the arrays that
    `add(matmul(x, w), b)` would."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g @ w.data.swapaxes(-1, -2), x.data.shape))
        _weight_grads(x.data, w, b, g)

    return Tensor._make(out_data, (x, w, b), backward)


def _weight_grads(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Give w and b what `linear(x, w, b)` hands them for its output gradient g."""
    if w.requires_grad:
        w._accumulate(_unbroadcast(x.swapaxes(-1, -2) @ g, w.data.shape), own=True)
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))


def _softmax_into(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stabilized softmax of x along `axis`, written into `out` (which may
    be x itself) or a fresh array; NaN anywhere in x is an error. A NaN
    makes its row's max NaN, so the check reads the maxima only."""
    top = x.max(axis=axis, keepdims=True)
    if np.isnan(top).any():
        raise NumericalError("softmax received NaN")
    out = np.subtract(x, top, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_backward(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at a softmax's input, out * (g - sum(g * out)), in a
    fresh array: g itself is never written."""
    gs = g * out
    dot = gs.sum(axis=axis, keepdims=True)
    np.subtract(g, dot, out=gs)
    gs *= out
    return gs


def softmax(a, axis: int = -1) -> Tensor:
    """Stabilized softmax along `axis`; NaN anywhere in the input is an error."""
    a = _as_tensor(a)
    out_data = _softmax_into(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_softmax_backward(g, out_data, axis))

    return Tensor._make(out_data, (a,), backward)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.
    Row means are `ndarray.mean`'s sum and division without its dispatch."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = np.add.reduce(centered**2, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-12)
    xhat = centered * inv_std
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, x.data.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, x.data.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = np.add.reduce(gx_hat, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gx_hat * xhat, axis=-1, keepdims=True) / n
            x._accumulate(inv_std * (gx_hat - m1 - xhat * m2))

    return Tensor._make(out_data, (x, gain, bias), backward)


# -- lookups and scatters ----------------------------------------------------


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]."""
    return getitem(table, np.asarray(ids, dtype=np.intp))


def take_per_row(x: Tensor, idx) -> Tensor:
    """out[t] = x[t, idx[t]] for a 2-D tensor."""
    x = _as_tensor(x)
    return getitem(x, (np.arange(x.data.shape[0]), np.asarray(idx, dtype=np.intp)))


def scatter_to_vocab(weights: Tensor, ids, width: int) -> Tensor:
    """Spread per-position weights onto a width-sized axis by token id.

    weights (..., L) and ids (L,) produce out (..., width) with
    out[..., ids[i]] += weights[..., i]; duplicate ids accumulate.
    """
    weights = _as_tensor(weights)
    idx = np.asarray(ids, dtype=np.intp)
    out_data = np.zeros(weights.data.shape[:-1] + (width,))
    np.add.at(out_data, (..., idx), weights.data)

    def backward(g):
        if weights.requires_grad:
            weights._accumulate(g[..., idx])

    return Tensor._make(out_data, (weights,), backward)


# -- attention ----------------------------------------------------------------


def attention_weights(qh, kh, mask: np.ndarray | None = None) -> Tensor:
    """softmax(qh @ khᵀ · (1/√dh) + mask) over the last axis as one node, for
    head-split queries (H, Tq, dh) and keys (H, Tk, dh); `mask` is an
    additive constant broadcastable to (Tq, Tk), whose -1e9 entries hide
    keys from queries. The scores are scaled, masked and normalized in place
    in the matmul output, and only the softmax output is kept for backward."""
    qh, kh = _as_tensor(qh), _as_tensor(kh)
    scale = np.asarray(1.0 / np.sqrt(qh.data.shape[-1]))
    out_data = qh.data @ kh.data.transpose(0, 2, 1)
    out_data *= scale
    if mask is not None:
        out_data += mask
    _softmax_into(out_data, -1, out=out_data)

    def backward(g):
        gs = _softmax_backward(g, out_data, -1)
        gs *= scale
        if qh.requires_grad:
            qh._accumulate(gs @ kh.data)
        if kh.requires_grad:
            kh._accumulate((qh.data.swapaxes(-1, -2) @ gs).transpose(0, 2, 1))

    return Tensor._make(out_data, (qh, kh), backward)


def project_heads(x, w, b, n_heads: int) -> Tensor:
    """Project x (T, d) with w, b and split the result into heads,
    (n_heads, T, d // n_heads), as one node with the bytes of
    `transpose(reshape(linear(x, w, b), (T, n_heads, dh)), (1, 0, 2))`,
    forward and in the gradients of x, w and b."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    t, d = x.data.shape
    if d % n_heads != 0:
        raise ConfigError(f"d_model={d} not divisible by n_heads={n_heads}")
    flat = x.data @ w.data
    flat += b.data
    split = flat.reshape(t, n_heads, d // n_heads)

    def backward(g):
        g_flat = _first_grad(flat, _first_grad(split, g.transpose(1, 0, 2)).reshape(t, d))
        if x.requires_grad:
            x._accumulate(g_flat @ w.data.swapaxes(-1, -2))
        _weight_grads(x.data, w, b, g_flat)

    return Tensor._make(split.transpose(1, 0, 2), (x, w, b), backward)


def attend_out(attn, vh, wo, bo) -> Tensor:
    """The attention output attn @ vh of H heads, (H, Tq, Tk) @ (H, Tk, dh),
    merged back to (Tq, H·dh) and projected through wo, bo, as one node with
    the bytes of `linear(reshape(transpose(matmul(attn, vh), (1, 0, 2)),
    (Tq, H·dh)), wo, bo)`, forward and in every input's gradient."""
    attn, vh, wo, bo = _as_tensor(attn), _as_tensor(vh), _as_tensor(wo), _as_tensor(bo)
    heads = attn.data @ vh.data
    rows = heads.transpose(1, 0, 2)
    merged = rows.reshape(rows.shape[0], -1)
    out_data = merged @ wo.data
    out_data += bo.data

    def backward(g):
        if attn.requires_grad or vh.requires_grad:
            g_merged = _first_grad(merged, g @ wo.data.swapaxes(-1, -2))
            g_rows = _first_grad(rows, g_merged.reshape(rows.shape))
            g_heads = _first_grad(heads, g_rows.transpose(1, 0, 2))
            if attn.requires_grad:
                attn._accumulate(g_heads @ vh.data.swapaxes(-1, -2))
            if vh.requires_grad:
                vh._accumulate(attn.data.swapaxes(-1, -2) @ g_heads)
        _weight_grads(merged, wo, bo, g)

    return Tensor._make(out_data, (attn, vh, wo, bo), backward)


def causal_mask(t: int, past: int = 0) -> np.ndarray:
    """(t, past+t) additive mask hiding from each of t new queries the keys
    that come after it, when `past` earlier keys precede them."""
    return np.triu(np.full((t, past + t), -1e9), k=past + 1)


# -- gradient bookkeeping ------------------------------------------------------


def grad_map(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every named parameter (zeros if unused).
    The arrays are the parameters' own .grad, not copies."""
    for p in params.values():
        p.grad = None
    loss.backward()
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
