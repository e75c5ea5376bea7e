"""Minimal dense reverse-mode automatic differentiation engine.

Tensors wrap numpy arrays (0-D scalars, 1-D vectors, 2-D matrices); only
``bmm`` also takes a 3-D operand, a constant (B, N, N) ndarray that needs no
gradient.

One recording rule: every primitive returns its output through ``_op``,
with one (input, rule) pair per input, where ``rule(g)`` is that input's
share of the output gradient ``g``.  ``_op`` alone decides which inputs get
a gradient: it keeps the pairs whose input requires one, and the output
requires one if any pair is kept.  Inside an active ``Tape`` it records the
output with its kept pairs.  ``Tape.backward`` replays the records in
reverse, skips outputs that got no gradient because they are off the loss's
path, and accumulates each kept rule's result into its input, in the order
the primitive gave the pairs.

``external`` records an output computed beyond the tape, in another
process say, whose rule hands its gradient to a callback; ``Tape.backward``
given an output and its gradient replays the tape from there.  Together they
let one loss span two processes' tapes.

``affine`` (x @ w + b) is one primitive with one record.  ``ParamStore``
holds parameters of one dtype and keeps Adam's moments as two flat arrays
over all of them.  ``adam_step`` updates each run of adjacent trainable
parameters in place: the moments in their flat slices, one scratch array
for the second-moment terms and the denominator, and the run's
concatenated gradient for the step each parameter subtracts.

Training runs in float32; gradient checking builds float64 tensors and
uses the exact same code path.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


_TAPE_STACK: list["Tape"] = []


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if dtype is None and arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)  # shared: no rule writes .grad in place
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one forward pass."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, out: Tensor, grad=None):
        """Populate gradients of everything reachable from ``out``: a scalar loss,
        whose gradient is 1, or, given ``grad``, any tensor, with ``grad`` as its
        gradient.

        Repeated calls without clearing grads accumulate, per contract.
        """
        if grad is None:
            if out.data.size != 1:
                raise ContractError("backward requires a scalar loss")
            grad = np.ones_like(out.data)
        out._accumulate(grad)
        for out, inputs in reversed(self._records):
            if out.grad is not None:  # off the loss's path: nothing to pass back
                for t, rule in inputs:
                    t._accumulate(rule(out.grad))


def _op(data, *inputs):
    """Wrap ``data`` as a primitive's output; ``inputs`` are its (tensor, rule) pairs,
    of which only those whose tensor requires a gradient are kept and recorded."""
    kept = [pair for pair in inputs if pair[0].requires_grad]
    out = Tensor._wrap(data, bool(kept))
    if kept and _TAPE_STACK:
        _TAPE_STACK[-1]._records.append((out, kept))
    return out


# ---------------------------------------------------------------------------
# primitives

def external(data, backward) -> Tensor:
    """``data``, computed beyond this tape (in another process, say), as an output
    that requires a gradient: when ``Tape.backward`` reaches it, ``backward(g)``
    receives its gradient ``g``.  Its one input stands for whatever made ``data``."""
    def rule(g):
        backward(g)
        return 0.0
    return _op(data, (Tensor._wrap(np.zeros(()), True), rule))


def _check_matmul(a: Tensor, b: Tensor):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a, b)
    return _op(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def bmm(s: np.ndarray, h: Tensor) -> Tensor:
    """Per-graph product: block i of N rows of the (B*N, d) ``h`` maps to s[i] @ block."""
    if s.ndim != 3 or s.shape[1] != s.shape[2] or h.data.ndim != 2 \
            or h.shape[0] != s.shape[0] * s.shape[1]:
        raise ShapeError(f"bmm needs a (B, N, N) stack and (B*N, d) rows: {s.shape} x {h.shape}")
    blocks = (*s.shape[:2], h.shape[1])
    return _op(np.matmul(s, h.data.reshape(blocks)).reshape(h.shape),
               (h, lambda g: np.matmul(s.transpose(0, 2, 1), g.reshape(blocks)).reshape(h.shape)))


def grouped_matmul(h: Tensor, weights) -> Tensor:
    """Column chunk j of the (M, G*c) ``h`` times weights[j] (c, o), side by side: (M, G*o).

    One ``np.matmul`` over the (G, c, o) stack of the weights computes the
    output and ``h``'s gradient; each weight's rule is its own 2-D product
    ``x[j].T @ g[j]`` of its column chunk and its output chunk.
    """
    shapes = {w.shape for w in weights}
    if h.data.ndim != 2 or len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ShapeError(f"grouped_matmul needs 2-D rows and equal 2-D weights: "
                         f"{h.shape} x {sorted(shapes)}")
    (c, o), g_count, m = next(iter(shapes)), len(weights), h.shape[0]
    if h.shape[1] != g_count * c:
        raise ShapeError(f"grouped_matmul: {g_count} groups of {c} columns != {h.shape[1]}")
    w = np.stack([t.data for t in weights])
    x = h.data.reshape(m, g_count, c).transpose(1, 0, 2)  # (G, M, c)

    def groups(g):
        return g.reshape(m, g_count, o).transpose(1, 0, 2)  # (G, M, o)

    def h_rule(g):
        return np.matmul(groups(g), w.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(h.shape)

    out = np.matmul(x, w).transpose(1, 0, 2).reshape(m, g_count * o)
    return _op(out, (h, h_rule),
               *((t, lambda g, j=j: x[j].T @ groups(g)[j]) for j, t in enumerate(weights)))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _op(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _op(a.data * s, (a, lambda g: g * s))


def relu(a: Tensor) -> Tensor:
    # gradient at exactly 0 is defined as 0
    return _op(np.maximum(a.data, 0), (a, lambda g: g * (a.data > 0)))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("sqrt requires strictly positive inputs")
    r = np.sqrt(a.data)
    return _op(r, (a, lambda g: g * 0.5 / r))


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.data == 0):
        raise ValueError("reciprocal of zero")
    r = 1.0 / a.data
    return _op(r, (a, lambda g: -g * r * r))


def tsum(a: Tensor, axis=None) -> Tensor:
    return _op(a.data.sum(axis=axis, keepdims=axis is not None),
               (a, lambda g: np.broadcast_to(g, a.shape)))


def reshape(a: Tensor, shape) -> Tensor:
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def concat(parts, axis=0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    other = 1 - axis
    if any(p.data.ndim != parts[0].data.ndim for p in parts):
        raise ShapeError("concat rank mismatch")
    if parts[0].data.ndim == 2 and any(p.shape[other] != parts[0].shape[other] for p in parts):
        raise ShapeError("concat non-axis dims disagree")
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    keys = [slice(lo, hi) if axis == 0 else (slice(None), slice(lo, hi))
            for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _op(np.concatenate([p.data for p in parts], axis=axis),
               *((p, lambda g, key=key: g[key]) for p, key in zip(parts, keys)))


def split(t: Tensor, counts, axis=0):
    counts = list(counts)
    if sum(counts) != t.shape[axis]:
        raise ShapeError(f"split counts {counts} do not sum to axis extent {t.shape[axis]}")
    offsets = np.cumsum([0] + counts)
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        key = slice(lo, hi) if axis == 0 else (slice(None), slice(lo, hi))

        def rule(g, key=key):
            full = np.zeros_like(t.data)
            full[key] = g
            return full

        outs.append(_op(t.data[key].copy(), (t, rule)))
    return outs


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax on a 2-D tensor, stabilised by max subtraction."""
    if a.data.ndim != 2:
        raise ShapeError("log_softmax expects a 2-D tensor")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sm = np.exp(logp)
    return _op(logp, (a, lambda g: g - sm * g.sum(axis=1, keepdims=True)))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b a 1xK row broadcast over rows of x, as one primitive.

    b's gradient is the column sum of g taken as ``ones(M, 1).T @ g``, the
    product a bias broadcast by a ones column has; ``g.sum(0)`` would round
    differently."""
    if b.data.ndim != 2 or b.shape[0] != 1:
        raise ShapeError(f"bias must be a 1xK row, got {b.shape}")
    _check_matmul(x, w)
    m = x.shape[0]
    if w.shape[1] != b.shape[1]:
        raise ShapeError(f"add shape mismatch: {(m, w.shape[1])} vs {(m, b.shape[1])}")
    return _op(x.data @ w.data + b.data,
               (b, lambda g: np.ones((m, 1), dtype=x.dtype).T @ g),
               (x, lambda g: g @ w.data.T), (w, lambda g: x.data.T @ g))


# ---------------------------------------------------------------------------
# parameters and optimizer

class ParamStore:
    """Named parameter tensors, and Adam's moments as two flat arrays.

    ``_m`` and ``_v`` lay every parameter out end to end in insertion order.
    The first ``adam_step`` allocates them as zeros; a frozen parameter's
    slice keeps its values until the parameter trains again."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self.step_count = 0

    def add(self, name: str, t: Tensor):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        first = next(iter(self._params.values()), t)
        if t.dtype != first.dtype:  # Adam's flat moments and update have one dtype
            raise ContractError(f"parameter {name!r} is {t.dtype}, "
                                f"but this store holds {first.dtype}")
        self._params[name] = t
        if self._m is not None:  # added after a step: its moments start at zero
            zeros = np.zeros(t.data.size, self._m.dtype)
            self._m, self._v = np.concatenate([self._m, zeros]), np.concatenate([self._v, zeros])
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def state_arrays(self):
        """name -> value array, in insertion order (for checkpointing)."""
        return {k: t.data for k, t in self._params.items()}

    def load_arrays(self, arrays):
        for name, arr in arrays.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise ContractError(
                    f"parameter {name!r}: expected shape {t.data.shape}, got {arr.shape}")
            t.data = arr.astype(t.data.dtype)

    def snapshot(self):
        return {k: t.data.copy() for k, t in self._params.items()}


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, lr):
    """One Adam update with bias correction; zeroes gradients afterward.

    Each run of adjacent trainable parameters is updated in place, with the
    roundings of the per-parameter expression in its order, so every element
    gets the bits a per-parameter update would give it.
    """
    store.step_count += 1
    t = store.step_count
    params = list(store.items())
    if store._m is None and params:
        size = sum(p.data.size for _, p in params)
        dtype = params[0][1].dtype  # every parameter's: ParamStore.add refuses a second one
        store._m, store._v = np.zeros(size, dtype), np.zeros(size, dtype)
    runs, lo = [], 0  # [start, stop, tensors] of each run of trainable parameters
    for name, p in params:
        if p.requires_grad:
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            if runs and runs[-1][1] == lo:
                runs[-1][1] += p.data.size
                runs[-1][2].append(p)
            else:
                runs.append([lo, lo + p.data.size, [p]])
        lo += p.data.size
    for lo, hi, tensors in runs:
        m, v = store._m[lo:hi], store._v[lo:hi]  # views: updated in place
        step = np.concatenate([p.grad.ravel() for p in tensors], dtype=m.dtype)
        scratch = (1 - ADAM_BETA1) * step
        m *= ADAM_BETA1
        m += scratch
        np.multiply(step, 1 - ADAM_BETA2, out=scratch)
        scratch *= step
        v *= ADAM_BETA2
        v += scratch
        np.divide(v, 1 - ADAM_BETA2 ** t, out=scratch)  # vhat
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, 1 - ADAM_BETA1 ** t, out=step)  # mhat
        step *= lr
        step /= scratch
        at = 0
        for p in tensors:
            p.data = p.data - step[at:at + p.data.size].reshape(p.data.shape)
            p.grad = None
            at += p.data.size
