"""Dense-tensor reverse-mode automatic differentiation with an Adam optimizer.

Everything is float64. A :class:`Tape` records operations executed while it is
active (``with Tape():``); :meth:`Tape.backward` replays the record once in
reverse and accumulates gradients into ``Tensor.grad`` of the tensors that
require grad (:func:`_accum` alone decides which). Binary ops take
operands of one shape; a broadcast goes through an explicit ``expand`` op, so
shape bugs fail loudly. Learnable tensors are :class:`Param` views of one
flat buffer (:func:`flat_params`), which :class:`Adam` updates whole.
"""

from __future__ import annotations

import math

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


class Param(Tensor):
    """A Tensor whose data is a fixed view of a flat buffer: assigning data
    writes into the view, so nothing detaches it; another shape raises."""

    __slots__ = ("_view",)

    def __init__(self, view):
        self._view, self.requires_grad, self.grad = view, True, None

    @property
    def data(self):
        return self._view

    @data.setter
    def data(self, value):
        if value is not self._view:  # `p.data -= x` has already written
            if np.shape(value) != self._view.shape:
                raise ShapeMismatch("Param.data", np.shape(value), self._view.shape)
            self._view[...] = value


def views(flat, shapes):
    """Views of the consecutive segments of the 1-D array `flat`, in `shapes`."""
    ends = np.cumsum([math.prod(s) for s in shapes], dtype=int)
    return [flat[e - math.prod(s):e].reshape(s) for s, e in zip(shapes, ends)]


def flat_params(shapes):
    """Zero Params of `shapes` viewing, in order, one new flat buffer."""
    return [Param(v) for v in views(np.zeros(sum(math.prod(s) for s in shapes)), shapes)]


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
    """Add g to t.grad unless t requires no grad: backward passes hand every
    input its gradient, and this is the one place that decides."""
    if not t.requires_grad:
        return
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
    call it: the fused nodes, solver, loss and Adam check what they make."""
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
        _accum(a, g)
        _accum(b, g)

    return _record(out, (a, b), bw)


def sub(a, b):
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, (a, b), bw)


def hadamard(a, b):
    _same_shape("hadamard", a, b)
    out = Tensor(a.data * b.data)

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def scale(a, c: float):
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        _accum(a, g * c)

    return _record(out, (a,), bw)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data)

    def bw(g):
        _accum(a, g @ b.data.T)
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
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw(g):
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
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), bw)


def tmean(a):
    n = a.data.size
    out = Tensor(np.mean(a.data))

    def bw(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape))

    return _record(out, (a,), bw)


def _sigmoid(x, out=None):
    """Logistic function on a plain array; never evaluates exp of a positive
    argument, so it cannot overflow. One division per element, of 1.0 or e
    by 1.0 + e (max(e, x >= 0) is 1.0 where x >= 0, as e <= 1, and e
    elsewhere, NaN included): the IEEE operations of 1 / (1 + e) where
    x >= 0 and of e / (1 + e) elsewhere, so the bits are those of that
    select form."""
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def _leaky_relu(x, out=None):
    y = x * LEAKY_RELU_SLOPE
    return np.maximum(x, y, out=y if out is None else out)


# Activations on plain arrays: name -> (forward(x, out=None), keep(x),
# vjp(g, kept, y)), where y is forward(x), written into `out` if given (x
# itself too), and kept is keep(x), what the VJP reads besides y:
# nothing for tanh and sigmoid, the mask x >= 0 for the leaky ReLU. Its VJP
# rebuilds the derivative as max(mask, LEAKY_RELU_SLOPE): 1.0 where x >= 0
# (-0.0 too), the slope elsewhere (NaN too), and g times it is bitwise the
# select of g or slope g. The mask is kept because y cannot give it back:
# for x in (-50 * 2^-1074, 0) slope x rounds to -0.0, as y is at x = -0.0.
# The activation ops and the fused model nodes share these, so both keep
# the same state and round their arithmetic identically.
ACTIVATIONS = {
    "tanh": (np.tanh, lambda x: None, lambda g, kept, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda x: None, lambda g, kept, y: g * y * (1.0 - y)),
    "leakyrelu": (_leaky_relu, lambda x: x >= 0,
                  lambda g, mask, y: g * np.maximum(mask, LEAKY_RELU_SLOPE)),
}


def _activation(kind, a):
    fwd, keep, vjp = ACTIVATIONS[kind]
    y = fwd(a.data)
    out = Tensor(y)

    def bw(g):
        _accum(a, vjp(g, keep(a.data), y))

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
        _accum(a, g * 2.0 * a.data)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, x: Tensor) -> float:
    """Max relative error between the tape gradient of the scalar ``f()``
    with respect to x, which f reads and which is perturbed in place, and
    central differences with step 1e-5. x's values and flag are restored
    whether or not f raises.

    Relative error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    h = 1e-5
    x.zero_grad()
    prev = x.requires_grad
    x.requires_grad = True
    try:
        with Tape() as tape:
            tape.backward(f())
    finally:
        x.requires_grad = prev
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.zero_grad()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        try:
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
        finally:
            flat[i] = orig
        _check_finite("grad_check", fp, fm)
        nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam, with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8,
    over tensors whose data tile one flat buffer in order (:func:`flat_params`),
    by whole-buffer ufunc calls that give each entry the arithmetic of a
    per-tensor update. Clipping sums one float sum of squares per part of
    `parts` (index groups of the buffer; default: the tensors), in order; an
    entry in no part is frozen, its gradient zeroed."""

    def __init__(self, tensors, lr=1e-3, parts=None):
        self.tensors, self.lr, self.t = list(tensors), lr, 0
        shapes = [t.data.shape for t in self.tensors]
        self.flat = flat = self.tensors[0].data.base
        at = lambda a: a.__array_interface__["data"][0]
        if (flat is None or flat.size != sum(math.prod(s) for s in shapes)
                or any(at(t.data) != at(v) for t, v in zip(self.tensors, views(flat, shapes)))):
            raise ValueError("Adam: the tensors must tile one flat buffer in order")
        # the moments, the gathered gradient and a work array
        self.m, self.v, self.g, self.w = (np.zeros(flat.size) for _ in range(4))
        self._grads = views(self.g, shapes)
        ends = np.cumsum([g.size for g in self._grads])
        self.parts = parts or [slice(e - g.size, e) for g, e in zip(self._grads, ends)]
        frozen = np.ones(flat.size, dtype=bool)
        for p in self.parts:
            frozen[p] = False
        self.frozen = np.flatnonzero(frozen)

    def zero_grad(self):
        for t in self.tensors:
            t.zero_grad()

    def _norm(self, g):
        """The square root of the sum of each part's sum of squares of g."""
        with np.errstate(over="ignore"):
            sq = np.multiply(g, g, out=self.w)
        return np.sqrt(sum(float(np.sum(sq[p])) for p in self.parts))

    def step(self, max_grad_norm=None):
        """Gather the gradients into one flat array, zero where a tensor has
        none and at the frozen entries; unless it is finite, raise NumericError
        before the buffer, m, v or t change; clip it to `max_grad_norm`; update."""
        g = self.g
        for t, gt in zip(self.tensors, self._grads):
            if t.grad is not None and t.grad.shape != gt.shape:
                raise ShapeMismatch("Adam.step", gt.shape, t.grad.shape)
            gt[...] = 0.0 if t.grad is None else t.grad
        self.g[self.frozen] = 0.0
        _check_finite("gradient", g)
        if max_grad_norm is not None:
            norm, unit = self._norm(g), 1.0
            if norm == np.inf:  # g * g overflowed: measure g / max|g| instead
                unit = np.max(np.abs(g))
                norm = self._norm(g / unit)
            if norm > max_grad_norm / unit:
                g *= max_grad_norm / unit / norm
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v, w = self.m, self.v, self.w
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=w)
        v *= b2
        np.multiply(g, g, out=w)
        v += np.multiply(w, 1.0 - b2, out=w)
        np.divide(m, c1, out=w)
        w *= self.lr
        np.divide(v, c2, out=g)  # the gradient is spent: g takes the denominator
        np.sqrt(g, out=g)
        g += 1e-8
        w /= g
        self.flat -= w
