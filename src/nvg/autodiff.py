"""Small reverse-mode tape over numpy arrays.

Covers exactly the ops the two generators need. Reductions are plain numpy
calls in a fixed order, so losses and gradients are bit-reproducible run to
run. `sum` and `mean` reduce the whole tensor; `softmax`, `log_softmax`,
`rmsnorm` and `rope` work on the last axis. A node records its parents and a
backward closure, and requires gradients, only when an input requires
gradients. Model parameters always do, so every forward builds a tape unless
it runs under `no_grad()`, where each op returns a bare `Tensor`. There is no
training flag: a model forward applies dropout exactly when it is given an
rng, which only the trainers do.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["Tensor", "Adam", "no_grad", "concat", "matmul", "rope", "softmax",
           "log_softmax", "rmsnorm", "silu"]

ADAM_BETA1 = 0.9        # Adam's fixed moment decays and denominator floor
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8

_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block: op outputs have no parents and no
    backward closure. The previous mode is restored on exit, also when the
    block raises, so blocks nest."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reverse numpy broadcasting: reduce grad down to the given shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def _grad_buffer(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _operand(x, other) -> Tensor:
    """Wrap x, one operand of an elementwise op. A bare scalar takes the dtype
    of the other operand when that is a Tensor, so float32 graphs are not
    silently promoted to float64."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if arr.ndim == 0 and isinstance(other, Tensor) and arr.dtype != other.data.dtype:
        arr = arr.astype(other.data.dtype)
    return Tensor(arr)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)

    def bw(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)

    def bw(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)

    def bw(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim > 2 and b.data.ndim == 2:
        # one flat gemm beats a strided batch of small ones
        lead = a.data.shape[:-1]
        out_data = (a.data.reshape(-1, a.data.shape[-1]) @ b.data) \
            .reshape(*lead, b.data.shape[-1])
    else:
        out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            if b.data.ndim == 2 and g.ndim > 2:
                # batched activations against a shared weight: one flat gemm
                ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.data.shape)
                a._accum(ga)
            else:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accum(_sum_to_shape(ga, a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2 and a.data.ndim > 2:
                flat_a = a.data.reshape(-1, a.data.shape[-1])
                b._accum(flat_a.T @ g.reshape(-1, g.shape[-1]))
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accum(_sum_to_shape(gb, b.data.shape))

    return _node(out_data, (a, b), bw)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def bw(g):
        a._accum(g.reshape(old))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inverse = np.argsort(axes)

    def bw(g):
        a._accum(g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bw)


def _is_basic_index(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (slice, int)) or p is None or p is Ellipsis for p in parts)


def getitem(a, key) -> Tensor:
    a = _wrap(a)
    basic = _is_basic_index(key)

    def bw(g):
        buf = a._grad_buffer()
        if basic:
            buf[key] += g
        else:
            # integer-array indexing may repeat positions
            np.add.at(buf, key, g)

    return _node(a.data[key], (a,), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def reduce_sum(a) -> Tensor:
    a = _wrap(a)

    def bw(g):
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(), (a,), bw)


def reduce_mean(a) -> Tensor:
    a = _wrap(a)
    count = a.data.size

    def bw(g):
        a._accum(np.broadcast_to(g / count, a.data.shape).copy())

    return _node(a.data.mean(), (a,), bw)


def silu(a) -> Tensor:
    a = _wrap(a)
    # exp(-a) overflows to inf below a = -88 in float32; 1 / inf = 0 is exact
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        a._accum(g * sig * (1.0 + a.data * (1.0 - sig)))

    return _node(a.data * sig, (a,), bw)


def softmax(a) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        a._accum(out_data * (g - inner))

    return _node(out_data, (a,), bw)


def log_softmax(a) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def bw(g):
        a._accum(g - soft * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (a,), bw)


def rmsnorm(a) -> Tensor:
    """x / sqrt(mean(x^2) + 1e-6) over the last axis (no learned gain)."""
    a = _wrap(a)
    d = a.data.shape[-1]
    ms = (a.data * a.data).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + 1e-6)

    def bw(g):
        dot = (g * a.data).sum(axis=-1, keepdims=True)
        a._accum(inv * g - (inv ** 3 / d) * a.data * dot)

    return _node(a.data * inv, (a,), bw)


def rope(a, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved (even, odd) pairs of the last axis by fixed angles.

    cos/sin have the last-axis length halved and broadcast over leading axes.
    The map is orthogonal, so the backward pass rotates by the inverse.
    """
    a = _wrap(a)
    x = a.data
    x_even, x_odd = x[..., 0::2], x[..., 1::2]
    out_data = np.empty_like(x)
    out_data[..., 0::2] = cos * x_even - sin * x_odd
    out_data[..., 1::2] = sin * x_even + cos * x_odd

    def bw(g):
        g_even, g_odd = g[..., 0::2], g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = cos * g_even + sin * g_odd
        gx[..., 1::2] = -sin * g_even + cos * g_odd
        a._accum(gx)

    return _node(out_data, (a,), bw)


class Adam:
    """Standard Adam over a dict of parameter Tensors; deterministic."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            denom = np.sqrt(v / b2c)
            denom += ADAM_EPS
            p.data = p.data - (lr / b1c) * (m / denom)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
