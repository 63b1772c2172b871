"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array. Operations executed while a
``GradientTape`` is active append (inputs, output, backward rule) records in
execution order, so replaying the tape in reverse yields exact reverse-mode
gradients. Tensors are immutable after construction; a tape lives for one
training step and is confined to a single thread.

Training runs in float32; gradient checking casts to float64 because central
finite differences are unusable at single precision.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

_FLOAT_KINDS = ("f",)
_DEFAULT_DTYPE = np.float32

# Stack of active tapes; only the innermost records. Thread-confined by design.
_TAPE_STACK: list["GradientTape"] = []


def _as_float_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype.kind in _FLOAT_KINDS:
        return arr
    return arr.astype(_DEFAULT_DTYPE)


class Tensor:
    """Immutable dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = _as_float_array(data, dtype)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"

    # Arithmetic sugar; every dunder routes through the recorded ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(constant(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def constant(value, dtype=None) -> Tensor:
    """Wrap a value as a non-differentiable tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False, dtype=dtype)


class _TapeEntry:
    __slots__ = ("name", "input_ids", "output_id", "backward")

    def __init__(self, name, input_ids, output_id, backward):
        self.name = name
        self.input_ids = input_ids
        self.output_id = output_id
        self.backward = backward


class GradientTape:
    """Ordered record of operations for one reverse-mode pass.

    Entries are appended in execution order, so every entry's inputs precede
    it; replaying in reverse accumulates a gradient for every reachable
    tensor with ``requires_grad`` exactly once.
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        self._ids: dict[int, int] = {}
        self._pinned: list[Tensor] = []
        self._next_id = 0

    def __enter__(self) -> "GradientTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("GradientTape contexts closed out of order")

    def node_of(self, tensor: Tensor) -> int:
        key = id(tensor)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._next_id
            self._next_id += 1
            self._ids[key] = nid
            self._pinned.append(tensor)  # pin so id() stays unique
        return nid

    def record(self, name: str, inputs: Sequence[Tensor], output: Tensor,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> None:
        entry = _TapeEntry(
            name,
            tuple(self.node_of(t) for t in inputs),
            self.node_of(output),
            backward,
        )
        self._entries.append(entry)

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar ``root`` with respect to every reachable node.

        Returns a map from node id to gradient array.
        """
        if root.data.size != 1:
            raise ContractError(
                f"backward root must be scalar, got shape {root.data.shape}")
        root_id = self._ids.get(id(root))
        if root_id is None:
            raise ContractError("backward root is not on this tape")
        grads: dict[int, np.ndarray] = {
            root_id: np.ones_like(root.data)
        }
        for entry in reversed(self._entries):
            g_out = grads.get(entry.output_id)
            if g_out is None:
                continue
            g_inputs = entry.backward(g_out)
            for nid, g in zip(entry.input_ids, g_inputs):
                if g is None:
                    continue
                if nid in grads:
                    grads[nid] = grads[nid] + g
                else:
                    grads[nid] = g
        return grads

    def gradients(self, root: Tensor,
                  params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """Named-parameter gradients; unreachable parameters get zeros."""
        node_grads = self.backward(root)
        out: dict[str, np.ndarray] = {}
        for name, p in params.items():
            nid = self._ids.get(id(p))
            g = node_grads.get(nid) if nid is not None else None
            out[name] = g if g is not None else np.zeros_like(p.data)
        return out

    def grad(self, root: Tensor, tensor: Tensor) -> np.ndarray:
        """Gradient of ``root`` with respect to a single tensor."""
        node_grads = self.backward(root)
        nid = self._ids.get(id(tensor))
        g = node_grads.get(nid) if nid is not None else None
        return g if g is not None else np.zeros_like(tensor.data)


def active_tape() -> GradientTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def apply_op(name: str, out_data: np.ndarray, inputs: Sequence[Tensor],
             backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Build the output tensor of an op and record it on the active tape.

    Exposed so callers (and negative-control tests) can define custom ops
    with their own backward rules.
    """
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, inputs, out, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _coerce(a, b) -> tuple[Tensor, Tensor]:
    if not isinstance(a, Tensor):
        a = constant(a)
    if not isinstance(b, Tensor):
        b = constant(b)
    return a, b


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return apply_op("add", a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return apply_op("sub", a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a, b)

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return apply_op("mul", a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a, b)

    def backward(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    with np.errstate(all="ignore"):
        out_data = a.data / b.data
    return apply_op("div", out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return apply_op("neg", -a.data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return apply_op("exp", out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        return (g / a.data,)

    with np.errstate(all="ignore"):
        out_data = np.log(a.data)
    return apply_op("log", out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out_data,)

    return apply_op("sqrt", out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return apply_op("tanh", out_data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    def backward(g):
        return (g * np.sign(a.data),)

    return apply_op("abs", np.abs(a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        return (g * (a.data > 0),)

    return apply_op("relu", np.maximum(a.data, 0), (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    # tanh approximation, as in the original BERT codebase
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x ** 3)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        dt = (1.0 - t * t) * d_inner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return apply_op("gelu", out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.data.shape

    def backward(g):
        return (g.reshape(old_shape),)

    return apply_op("reshape", a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return apply_op("transpose", a.data.transpose(axes), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return apply_op("concat", np.concatenate([t.data for t in tensors], axis=axis),
                    tensors, backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, in_shape).copy(),)

    return apply_op("sum", a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max reduction; the gradient routes to the first maximal element."""
    idx = np.argmax(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, np.expand_dims(idx, axis), g_exp, axis=axis)
        return (grad,)

    return apply_op("max", out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul requires rank >= 2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return apply_op("matmul", a.data @ b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# Gather / scatter
# ---------------------------------------------------------------------------

def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; output shape indices.shape + (d,)."""
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-d table, got {table.data.shape}")

    def backward(g):
        grad = np.zeros_like(table.data)
        np.add.at(grad, idx.reshape(-1),
                  g.reshape(-1, table.data.shape[1]))
        return (grad,)

    return apply_op("gather_rows", table.data[idx], (table,), backward)


def take_per_row(a: Tensor, col_indices) -> Tensor:
    """out[i] = a[i, col_indices[i]] for a 2-d tensor."""
    idx = np.asarray(col_indices)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, (rows, idx), g)
        return (grad,)

    return apply_op("take_per_row", a.data[rows, idx], (a,), backward)


# ---------------------------------------------------------------------------
# Neural-net kernels (last-axis semantics)
# ---------------------------------------------------------------------------

def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    if a.data.ndim < 1 or a.data.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last axis, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return apply_op("softmax", out_data, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """log(softmax) over the last axis via the log-sum-exp trick."""
    if a.data.ndim < 1 or a.data.shape[-1] == 0:
        raise DimensionError(
            f"log_softmax needs a non-empty last axis, got {a.data.shape}")
    m = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    probs = np.exp(out_data)

    def backward(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return apply_op("log_softmax", out_data, (a,), backward)


LAYER_NORM_EPS = 1e-12


def layer_norm(a: Tensor, scale: Tensor, bias: Tensor,
               eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if a.data.ndim < 1 or a.data.shape[-1] == 0:
        raise DimensionError(
            f"layer_norm needs a non-empty last axis, got {a.data.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * scale.data + bias.data

    def backward(g):
        d_bias = _unbroadcast(g, bias.data.shape)
        d_scale = _unbroadcast(g * x_hat, scale.data.shape)
        gs = g * scale.data
        mean_gs = gs.mean(axis=-1, keepdims=True)
        mean_gs_xhat = (gs * x_hat).mean(axis=-1, keepdims=True)
        d_x = inv_std * (gs - mean_gs - x_hat * mean_gs_xhat)
        return d_x, d_scale, d_bias

    return apply_op("layer_norm", out_data, (a, scale, bias), backward)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def check_gradient(f: Callable[[Tensor], Tensor], x: Tensor,
                   h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued. The input is promoted to float64; at single
    precision the difference quotient is dominated by rounding error.
    """
    base = x.data.astype(np.float64)
    if not np.all(np.isfinite(base)):
        raise NonFiniteError("check_gradient input is not finite")

    probe = Tensor(base.copy(), requires_grad=True)
    with GradientTape() as tape:
        y = f(probe)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise ContractError("check_gradient requires a scalar-valued function")
    analytic = tape.grad(y, probe)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(Tensor(base.copy().reshape(base.shape))).item()
        flat[i] = orig - h
        down = f(Tensor(base.copy().reshape(base.shape))).item()
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NonFiniteError(
                f"non-finite finite-difference evaluation at element {i}")
        num_flat[i] = (up - down) / (2.0 * h)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    rel = np.abs(analytic - numeric) / denom
    if not np.all(np.isfinite(rel)):
        bad = int(np.argmax(~np.isfinite(rel.reshape(-1))))
        raise NonFiniteError(f"non-finite gradient comparison at element {bad}")
    return float(rel.max())
