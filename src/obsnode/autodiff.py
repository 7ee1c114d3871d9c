"""Dense-tensor reverse-mode automatic differentiation with an Adam optimizer.

Everything is float64. A :class:`Tape` records operations executed while it is
active (``with Tape():``); :meth:`Tape.backward` replays the record once in
reverse and accumulates gradients into ``Tensor.grad``. Binary ops take
operands of one shape; a broadcast goes through an explicit ``expand`` op, so
shape bugs fail loudly.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeMismatch

LEAKY_RELU_SLOPE = 0.01

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations; one backward pass per traversal.

    A tape and the tensors recorded on it are a single-threaded unit.
    """

    def __init__(self):
        self._nodes = []  # (output tensor, backward closure)

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        if loss.data.size != 1:
            raise ShapeMismatch("backward: the loss must be a scalar", loss.shape, ())
        _accum(loss, np.ones_like(loss.data))
        for out, fn in reversed(self._nodes):
            if out.grad is not None:
                fn(out.grad)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _record(out: Tensor, inputs, backward_fn):
    tape = _active_tape()
    if tape is not None and any(x.requires_grad for x in inputs):
        out.requires_grad = True
        tape._nodes.append((out, backward_fn))
    return out


def _check_finite(name, *arrays):
    """NumericError naming `name` unless every array is finite. Ops do not
    call it: the fused nodes, solver, loss and train loop check what they make."""
    for x in arrays:
        if not np.isfinite(x).all():
            raise NumericError(f"{name}: non-finite value")


def _same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(op, a.shape, b.shape)


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------

def add(a, b):
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _record(out, (a, b), bw)


def sub(a, b):
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return _record(out, (a, b), bw)


def hadamard(a, b):
    _same_shape("hadamard", a, b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def scale(a, c: float):
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * c)

    return _record(out, (a,), bw)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record(out, (a, b), bw)


def concat(tensors, axis=-1):
    tensors = tuple(tensors)
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise ShapeMismatch("concat", *[t.shape for t in tensors])
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(t, g[tuple(idx)])

    return _record(out, tensors, bw)


def slice_axis(a, start, stop, axis=-1):
    axis = axis % a.data.ndim
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(a.data[idx])

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            _accum(a, full)

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), bw)


def expand(a, shape):
    """Explicit broadcast to `shape`; the backward pass sums the extra axes."""
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeMismatch("expand", a.shape, shape)
    out = Tensor(np.array(data))

    def bw(g):
        if a.requires_grad:
            extra = g.ndim - a.data.ndim
            red = g.sum(axis=tuple(range(extra))) if extra else g
            axes = tuple(i for i, n in enumerate(a.data.shape) if n == 1 and red.shape[i] != 1)
            if axes:
                red = red.sum(axis=axes, keepdims=True)
            _accum(a, red)

    return _record(out, (a,), bw)


def tsum(a):
    out = Tensor(np.sum(a.data))

    def bw(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), bw)


def tmean(a):
    n = a.data.size
    out = Tensor(np.mean(a.data))

    def bw(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g / n, a.data.shape))

    return _record(out, (a,), bw)


def _sigmoid(x):
    """Logistic function on a plain array; never evaluates exp of a positive
    argument, so it cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _leaky_relu(x):
    return np.maximum(x, LEAKY_RELU_SLOPE * x)


# Activations on plain arrays: name -> (forward(x), vjp(g, x, y)), where y is
# forward(x). The activation ops and the fused model nodes share these, so
# both round their arithmetic identically.
ACTIVATIONS = {
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "leakyrelu": (_leaky_relu,
                  lambda g, x, y: np.where(x >= 0, g, LEAKY_RELU_SLOPE * g)),
}


def _activation(kind, a):
    fwd, vjp = ACTIVATIONS[kind]
    y = fwd(a.data)
    out = Tensor(y)

    def bw(g):
        if a.requires_grad:
            _accum(a, vjp(g, a.data, y))

    return _record(out, (a,), bw)


def tanh(a):
    return _activation("tanh", a)


def sigmoid(a):
    return _activation("sigmoid", a)


def leaky_relu(a):
    return _activation("leakyrelu", a)


def square(a):
    out = Tensor(a.data * a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * 2.0 * a.data)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, x: Tensor) -> float:
    """Max relative error between the tape gradient of the scalar ``f()``
    with respect to x, which f reads and which is perturbed in place, and
    central differences with step 1e-5.

    Relative error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    h = 1e-5
    x.zero_grad()
    prev = x.requires_grad
    x.requires_grad = True
    with Tape() as tape:
        tape.backward(f())
    x.requires_grad = prev
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.zero_grad()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f().data)
        flat[i] = orig - h
        fm = float(f().data)
        flat[i] = orig
        _check_finite("grad_check", fp, fm)
        nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam over a list of Tensors, updating ``data`` in place,
    with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, tensors, lr=1e-3):
        self.tensors = list(tensors)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def zero_grad(self):
        for t in self.tensors:
            t.zero_grad()

    def step(self, max_grad_norm=None):
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in self.tensors]
        for t, g in zip(self.tensors, grads):
            if t.data.shape != g.shape:
                raise ShapeMismatch("Adam.step", t.data.shape, g.shape)
        if max_grad_norm is not None:
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if norm > max_grad_norm:
                grads = [g * (max_grad_norm / norm) for g in grads]
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for t, g, m, v in zip(self.tensors, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            t.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)

