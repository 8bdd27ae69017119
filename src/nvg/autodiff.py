"""Small reverse-mode tape over numpy arrays.

Covers exactly the ops the two generators need. Reductions are plain numpy
calls in a fixed order, so losses and gradients are bit-reproducible run to
run. `sum` and `mean` reduce the whole tensor; `softmax`, `log_softmax`,
`rmsnorm` and `rope` work on the last axis. A `Tensor` is an array and,
exactly when it requires gradients, its tape node. An op's output gets a
node, holding its inputs' nodes and a backward closure, only when an input
has one. Model parameters always do, so every forward builds a tape unless
it runs under `no_grad()`, where each op returns a bare `Tensor`. There is no
training flag: a model forward applies dropout exactly when it is given an
rng, which only the trainers do.

The tape rule: nodes hold no arrays, and a closure captures exactly what its
backward reads. `add`, `reshape`, `transpose`, `getitem`, `concat` and the
two reductions capture shapes; `mul`, `div` and `matmul` capture an operand's
array only when the other operand's gradient reads it; `silu`, `softmax`,
`log_softmax`, `rmsnorm` and `rope` capture the values their gradient
formula reads. So an intermediate no backward reads (a block's raw scores,
its rows' silu output) is freed during the forward, as soon as the model code
drops it. The mode is checked before any node is made: under `no_grad` an op
is its numpy call and one bare `Tensor`, and the tape path and the no-grad
path are the same function. Every op's `.data` is an `np.ndarray`: `_out`
wraps it as given, and the ops whose numpy call can return a scalar (the two
reductions, and arithmetic on two 0-d operands such as a loss's last
scaling) wrap theirs in `np.asarray`. A graph runs in one dtype: `_operand`
gives a bare scalar the other operand's dtype, and `-` wraps its operand, so
`accum` never casts (`tests/test_training.py` checks it on every op output).

`Tensor.backward` consumes the tape, and refuses a tensor with no node (one
computed under `no_grad` or from inputs that need no gradient), whose
gradient would reach nothing. It walks the nodes in reverse topological
order, and once a node's closure has run it drops that node's gradient,
closure and parents, so each saved array is freed as soon as nothing later
reads it. Only leaves (nodes with no closure, such as the parameters') keep
their gradients, read as `Tensor.grad`. A graph therefore runs backward once.

`Adam.step` consumes the gradients as backward consumes the tape: once a
parameter's update is applied its `grad` is None, so no gradient lives
through the next step's forward.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NumericError

__all__ = ["Tensor", "Adam", "no_grad", "concat", "matmul", "rope", "softmax",
           "log_softmax", "rmsnorm", "silu"]

ADAM_BETA1 = 0.9        # Adam's fixed moment decays and denominator floor
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8

_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block: op outputs have no node. The previous
    mode is restored on exit, also when the block raises, so blocks nest."""
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


class _Node:
    """A tensor's place on the tape: its gradient, its parents' nodes (None
    for an operand that needs no gradient) and its backward closure. A node
    holds no forward array, and a leaf's node has no parents and no closure."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward

    def accum(self, g: np.ndarray):
        if self.grad is None:
            # g may be another parent's gradient too, or a read-only view
            self.grad = g.copy()
        else:
            self.grad += g


class Tensor:
    """An array and, exactly when it requires gradients, its tape node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self._node = _Node() if requires_grad else None

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        root = self._node
        if root is None:
            raise ValueError("backward() needs a tensor on the tape: this one was computed "
                             "under no_grad or from inputs that need no gradient")
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue        # a leaf keeps its gradient
            if node.grad is not None:
                node.backward(node.grad)
            # the tape is consumed: drop the node's gradient, closure and
            # parents so each saved array is freed once its last reader ran
            node.grad, node.backward, node.parents = None, None, ()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_operand(other, self), -1.0))

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


def _out(data: np.ndarray, parents: tuple | None = None, backward=None) -> Tensor:
    # an op's output: its ndarray as given (no `Tensor.__init__`, no
    # np.asarray), and a node only when the op passes its parents' nodes
    out = object.__new__(Tensor)
    out.data = data
    out._node = None if parents is None else _Node(parents, backward)
    return out


def add(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)
    data = np.asarray(a.data + b.data)
    if not _grad_enabled or a._node is None and b._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape
    nb, sb = b._node, b.data.shape

    def bw(g):
        if na is not None:
            na.accum(_sum_to_shape(g, sa))
        if nb is not None:
            nb.accum(_sum_to_shape(g, sb))

    return _out(data, (na, nb), bw)


def mul(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)
    data = np.asarray(a.data * b.data)
    if not _grad_enabled or a._node is None and b._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape
    nb, sb = b._node, b.data.shape
    # each operand's array only when the other one's gradient reads it
    da = a.data if nb is not None else None
    db = b.data if na is not None else None

    def bw(g):
        if na is not None:
            na.accum(_sum_to_shape(g * db, sa))
        if nb is not None:
            nb.accum(_sum_to_shape(g * da, sb))

    return _out(data, (na, nb), bw)


def div(a, b) -> Tensor:
    a, b = _operand(a, b), _operand(b, a)
    data = np.asarray(a.data / b.data)
    if not _grad_enabled or a._node is None and b._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape
    nb, sb = b._node, b.data.shape
    da, db = (a.data if nb is not None else None), b.data     # both gradients read b

    def bw(g):
        if na is not None:
            na.accum(_sum_to_shape(g / db, sa))
        if nb is not None:
            nb.accum(_sum_to_shape(-g * da / (db * db), sb))

    return _out(data, (na, nb), bw)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim > 2 and b.data.ndim == 2:
        # one flat gemm beats a strided batch of small ones
        lead = a.data.shape[:-1]
        out_data = (a.data.reshape(-1, a.data.shape[-1]) @ b.data) \
            .reshape(*lead, b.data.shape[-1])
    else:
        out_data = a.data @ b.data
    if not _grad_enabled or a._node is None and b._node is None:
        return _out(out_data)
    na, sa = a._node, a.data.shape
    nb, sb = b._node, b.data.shape
    # each operand's array only when the other one's gradient reads it
    da = a.data if nb is not None else None
    db = b.data if na is not None else None

    def bw(g):
        if na is not None:
            if db.ndim == 2 and g.ndim > 2:
                # batched activations against a shared weight: one flat gemm
                na.accum((g.reshape(-1, g.shape[-1]) @ db.T).reshape(sa))
            else:
                na.accum(_sum_to_shape(g @ np.swapaxes(db, -1, -2), sa))
        if nb is not None:
            if len(sb) == 2 and da.ndim > 2:
                flat_a = da.reshape(-1, da.shape[-1])
                nb.accum(flat_a.T @ g.reshape(-1, g.shape[-1]))
            else:
                nb.accum(_sum_to_shape(np.swapaxes(da, -1, -2) @ g, sb))

    return _out(out_data, (na, nb), bw)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)
    if not _grad_enabled or a._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape

    def bw(g):
        na.accum(g.reshape(sa))

    return _out(data, (na,), bw)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    data = a.data.transpose(axes)
    if not _grad_enabled or a._node is None:
        return _out(data)
    na = a._node

    def bw(g):
        na.accum(g.transpose(np.argsort(axes)))

    return _out(data, (na,), bw)


def _is_basic_index(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (slice, int)) or p is None or p is Ellipsis for p in parts)


def getitem(a, key) -> Tensor:
    a = _wrap(a)
    data = a.data[key]
    if not _grad_enabled or a._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape

    def bw(g):
        if na.grad is None:
            na.grad = np.zeros(sa, g.dtype)
        if _is_basic_index(key):
            na.grad[key] += g
        else:
            # integer-array indexing may repeat positions
            np.add.at(na.grad, key, g)

    return _out(data, (na,), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple([_wrap(t) for t in tensors])
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _grad_enabled or all(t._node is None for t in tensors):
        return _out(data)
    nodes = tuple([t._node for t in tensors])
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for node, piece in zip(nodes, pieces):
            if node is not None:
                node.accum(piece)

    return _out(data, nodes, bw)


def reduce_sum(a) -> Tensor:
    a = _wrap(a)
    data = np.asarray(a.data.sum())
    if not _grad_enabled or a._node is None:
        return _out(data)
    na, sa = a._node, a.data.shape

    def bw(g):
        na.accum(np.broadcast_to(g, sa))

    return _out(data, (na,), bw)


def reduce_mean(a) -> Tensor:
    a = _wrap(a)
    data = np.asarray(a.data.mean())
    if not _grad_enabled or a._node is None:
        return _out(data)
    na, sa, size = a._node, a.data.shape, a.data.size

    def bw(g):
        na.accum(np.broadcast_to(g / size, sa))

    return _out(data, (na,), bw)


def silu(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    # exp(-x) overflows to inf below x = -88 in float32; 1 / inf = 0 is exact
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x))
    data = x * sig
    if not _grad_enabled or a._node is None:
        return _out(data)
    na = a._node

    def bw(g):
        na.accum(g * sig * (1.0 + x * (1.0 - sig)))

    return _out(data, (na,), bw)


def softmax(a) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)
    if not _grad_enabled or a._node is None:
        return _out(out_data)
    na = a._node

    def bw(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        na.accum(out_data * (g - inner))

    return _out(out_data, (na,), bw)


def log_softmax(a) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z
    if not _grad_enabled or a._node is None:
        return _out(out_data)
    na = a._node

    def bw(g):
        na.accum(g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _out(out_data, (na,), bw)


def rmsnorm(a) -> Tensor:
    """x / sqrt(mean(x^2) + 1e-6) over the last axis (no learned gain).
    Raises NumericError, with no numpy warning, when a mean square is not
    finite: a huge but finite row overflows in float32."""
    a = _wrap(a)
    x = a.data
    with np.errstate(over="ignore", invalid="ignore"):
        ms = (x * x).mean(axis=-1, keepdims=True)
    if not np.isfinite(ms).all():
        raise NumericError("rmsnorm mean square is not finite")
    inv = 1.0 / np.sqrt(ms + 1e-6)
    data = x * inv
    if not _grad_enabled or a._node is None:
        return _out(data)
    na = a._node

    def bw(g):
        dot = (g * x).sum(axis=-1, keepdims=True)
        na.accum(inv * g - (inv ** 3 / x.shape[-1]) * x * dot)

    return _out(data, (na,), bw)


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
    if not _grad_enabled or a._node is None:
        return _out(out_data)
    na = a._node

    def bw(g):
        g_even, g_odd = g[..., 0::2], g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = cos * g_even + sin * g_odd
        gx[..., 1::2] = -sin * g_even + cos * g_odd
        na.accum(gx)

    return _out(out_data, (na,), bw)


class Adam:
    """Standard Adam over a dict of parameter Tensors; deterministic. A
    parameter's moments start, as zeros, at its first update with a gradient,
    so a new optimizer holds no array; `step` consumes each gradient it reads."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, lr: float):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g, p.grad = p.grad, None
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            denom = np.sqrt(v / b2c)
            denom += ADAM_EPS
            p.data = p.data - (lr / b1c) * (m / denom)
