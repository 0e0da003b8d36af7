"""Dense float64 tensors with reverse-mode autodiff.

Small by design: just the primitives needed to train an encoder with
bottleneck adapters and to expose per-parameter gradients to the pruning
criteria. No broadcasting beyond bias-style adds, no views, no GPU.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 ndarray. ``grad`` is ``None`` until a
    backward pass populates it; it then has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def needs_grad(t: Tensor) -> bool:
    # Leaves without requires_grad (frozen weights, inputs) never need a
    # gradient; interior nodes always do so flow can continue upstream.
    return t.requires_grad or bool(t._parents)


def backward(loss: Tensor, params=()):
    """Populate gradient slots of everything reachable from ``loss``.

    ``params`` not reachable from the loss end up with exact-zero grads.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    # iterative post-order DFS: every node after all of its parents
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    for t in order:
        t.grad = None
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss.grad = np.ones_like(loss.data)
    for t in reversed(order):
        if t._backward_fn is None or t.grad is None:
            continue
        needs = tuple(needs_grad(p) for p in t._parents)
        grads = t._backward_fn(t.grad, needs)
        for parent, g, need in zip(t._parents, grads, needs):
            if g is None or not need:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# array kernels
#
# Each forward returns (output, what its backward reads). The graph
# primitives below wrap them, and so does the fused encoder layer in
# supernet.py, so every formula has one home.
#
# gelu and layer norm run in blocks of rows written into preallocated
# C-order outputs (so that the blocks are views), and the temporaries of a
# block stay in a 2 MB L2 cache. Every step is elementwise or per row, so
# the bits do not depend on the split.

_BLOCK = 1 << 15  # elements of the first array per block


def _row_blocks(*arrays):
    """Matching blocks of rows (along the last axis) of ``arrays``; each
    holds at most _BLOCK elements of the first array, and at least one row."""
    rows = [a.reshape(-1, a.shape[-1]) for a in arrays]
    step = max(1, _BLOCK // arrays[0].shape[-1])
    for lo in range(0, rows[0].shape[0], step):
        yield tuple(r[lo:lo + step] for r in rows)


def relu_fwd(v):
    mask = v > 0
    return np.where(mask, v, 0.0), mask


def relu_bwd(g, mask):
    return g * mask


def gelu_fwd(v):
    # tanh approximation with constant sqrt(2/pi); the backward is exact
    # for this approximation.
    out, t = np.empty(v.shape), np.empty(v.shape)
    for vb, ob, tb in _row_blocks(v, out, t):
        u = vb * vb
        u *= vb
        u *= 0.044715
        u += vb
        u *= _GELU_C
        np.tanh(u, out=tb)
        np.add(1.0, tb, out=ob)
        ob *= vb
        ob *= 0.5
    return out, (v, t)


def gelu_bwd(g, saved):
    # d/dv of 0.5*v*(1+t): 0.5*(1+t) + 0.5*v*(1-t^2)*dinner
    v, t = saved
    dinner = np.empty(v.shape)
    for gb, vb, tb, db in _row_blocks(g, v, t, dinner):
        np.multiply(vb, vb, out=db)
        db *= 3 * 0.044715
        db += 1.0
        db *= _GELU_C
        db *= 1.0 - tb * tb
        db *= vb
        db += 1.0 + tb
        db *= 0.5
        db *= gb
    return dinner


# kind -> (forward, backward)
ACTIVATIONS = {"relu": (relu_fwd, relu_bwd), "gelu": (gelu_fwd, gelu_bwd)}


def softmax_fwd(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_bwd(g, y, axis=-1):
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def layer_norm_fwd(x, gamma, beta, eps=1e-5):
    out, xhat = np.empty(x.shape), np.empty(x.shape)
    inv = np.empty(x.shape[:-1] + (1,))
    for xb, ob, hb, ib in _row_blocks(x, out, xhat, inv):
        mu = xb.mean(axis=-1, keepdims=True)
        xc = np.subtract(xb, mu, out=hb)
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / x.shape[-1]
        np.divide(1.0, np.sqrt(var + eps), out=ib)
        xc *= ib
        np.multiply(xc, gamma, out=ob)
        ob += beta
    return out, (xhat, inv)


def layer_norm_bwd(g, gamma, saved):
    """dL/dx; gamma and beta gradients are the graph primitive's."""
    xhat, inv = saved
    gx = np.empty(xhat.shape)
    for gb, hb, ib, ob in _row_blocks(g, xhat, inv, gx):
        gh = gb * gamma
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * hb).mean(axis=-1, keepdims=True)
        np.subtract(gh, m1, out=ob)
        ob -= hb * m2
        ob *= ib
    return gx


# ---------------------------------------------------------------------------
# primitives


def _unary(x: Tensor, fwd, bwd_kernel) -> Tensor:
    out_data, saved = fwd(x.data)

    def bwd(g, needs):
        return (bwd_kernel(g, saved) if needs[0] else None,)

    return Tensor(out_data, _parents=(x,), _backward_fn=bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Stacked operands must share leading dimensions."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if a.data.ndim > 2 and b.data.ndim > 2:
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError(f"matmul leading dimensions disagree: {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def bwd(g, needs):
        ga = gb = None
        if needs[0]:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if needs[1]:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _backward_fn=bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g, needs):
        ga = _unbroadcast(g, a.data.shape) if needs[0] else None
        gb = _unbroadcast(g, b.data.shape) if needs[1] else None
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _backward_fn=bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g, needs):
        ga = _unbroadcast(g * b.data, a.data.shape) if needs[0] else None
        gb = _unbroadcast(g * a.data, b.data.shape) if needs[1] else None
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _backward_fn=bwd)


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(g, needs):
        return (g * s if needs[0] else None,)

    return Tensor(a.data * s, _parents=(a,), _backward_fn=bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g, needs):
        return (g.reshape(a.data.shape) if needs[0] else None,)

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward_fn=bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g, needs):
        return (g.transpose(inverse) if needs[0] else None,)

    return Tensor(a.data.transpose(axes), _parents=(a,), _backward_fn=bwd)


def relu(x: Tensor) -> Tensor:
    return _unary(x, relu_fwd, relu_bwd)


def gelu(x: Tensor) -> Tensor:
    return _unary(x, gelu_fwd, gelu_bwd)


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity; ``kind`` is one of ``relu`` or ``gelu``."""
    if kind == "relu":
        return relu(x)
    if kind == "gelu":
        return gelu(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = softmax_fwd(x.data, axis)

    def bwd(g, needs):
        return (softmax_bwd(g, y, axis) if needs[0] else None,)

    return Tensor(y, _parents=(x,), _backward_fn=bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    out_data, saved = layer_norm_fwd(x.data, gamma.data, beta.data, eps)
    xhat = saved[0]

    def bwd(g, needs):
        gx = ggamma = gbeta = None
        if needs[1]:
            ggamma = _unbroadcast(g * xhat, gamma.data.shape)
        if needs[2]:
            gbeta = _unbroadcast(g, beta.data.shape)
        if needs[0]:
            gx = layer_norm_bwd(g, gamma.data, saved)
        return gx, ggamma, gbeta

    return Tensor(out_data, _parents=(x, gamma, beta), _backward_fn=bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ValueError("embedding id out of range")
    out_data = table.data[ids]

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out_data, _parents=(table,), _backward_fn=bwd)


def mean(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (np.expand_dims(g, axis).repeat(n, axis=axis) / n,)

    return Tensor(a.data.mean(axis=axis), _parents=(a,), _backward_fn=bwd)


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def bwd(g, needs):
        return (np.full_like(a.data, float(g)) if needs[0] else None,)

    return Tensor(a.data.sum(), _parents=(a,), _backward_fn=bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log likelihood over rows of ``logits``."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.shape}")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError("label index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(n), labels])
    out_data = nll.mean()

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (float(g) / n),)

    return Tensor(out_data, _parents=(logits,), _backward_fn=bwd)


# ---------------------------------------------------------------------------
# optimizer


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed parameter list, reading each ``p.grad``."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        """One update in place; a parameter without a gradient sees zero."""
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if g.shape != p.data.shape:
                raise ValueError("gradient shape does not match parameter")
            m *= _BETA1
            m += (1 - _BETA1) * g
            v *= _BETA2
            v += (1 - _BETA2) * g * g
            mhat = m / (1 - _BETA1**self.t)
            vhat = v / (1 - _BETA2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + _EPS)
