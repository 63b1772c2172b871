"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array. Operations executed while a
``GradientTape`` is active append (inputs, output, backward rule) records in
execution order, so replaying the tape in reverse yields exact reverse-mode
gradients. Ops never modify a tensor; between steps the optimizer updates
parameters in place (``optim.optimizer_step``). A tape lives for one
training step and is confined to a single thread.

Training runs in float32; gradient checking casts to float64 because central
finite differences are unusable at single precision.

A scalar operand of a binary op (a Python number, a numpy scalar or a 0-d
array) takes the dtype of the op's Tensor operand, so ``t * 0.5``,
``0.5 - t`` and ``np.float64(2) * t`` keep a float32 ``t`` in float32.
Array operands keep numpy's own promotion rules.

Four fused ops stand in for chains of the elementwise and linear-algebra
ops, to cut tape entries and temporaries: ``linear`` (``x @ w + b`` as one
flat GEMM over the leading axes; ``matmul`` with a 2-d right operand
delegates to it), ``ffn`` (``linear``, ``gelu``, ``linear``, saving only
gelu's input and recomputing its tanh and output in backward),
``attention_core`` (multi-head scaled dot-product attention with a constant
mask bias, saving the probabilities and its output for the backward) and
``dropout`` (saving a bool mask). ``dropout`` draws its mask as 16-bit
integers, four to each 64-bit word of the generator's ``random_raw``, and
drops an element whose draw is below ``round(rate * 2**16)``; its realized
rate is that threshold over 2**16, within 2**-17 of ``rate``.

Every gradient sum over rows (the bias gradients of ``linear``, ``ffn`` and
``layer_norm``, ``layer_norm``'s scale gradient, and ``_unbroadcast`` over
leading axes) is one BLAS product with a ones vector, ``_row_sum``.

The backward rules of ``add``, ``sub``, ``mul``, ``div``, ``matmul``,
``linear``, ``ffn`` and ``attention_core`` return ``None`` for an input that
does not require gradients, so constant operands (masks, scales, biases,
frozen weights) cost no gradient work.

A tape keeps only what the backward pass reads. It refers to tensors by
serial number, so it keeps no Tensor alive, and each backward rule holds
only the arrays its formulas read (shapes and flags instead of whole input
tensors, an operand's data only when the other operand needs a gradient).
An op output that no backward rule reads is freed as soon as the forward
pass drops it. During a backward pass an intermediate gradient is dropped
as soon as the op that produced it has consumed it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

_FLOAT_KINDS = ("f",)
_DEFAULT_DTYPE = np.float32

# Stack of active tapes; only the innermost records. Thread-confined by design.
_TAPE_STACK: list["GradientTape"] = []

# Tensor serial numbers: never reused, so a tape can key its entries by them
# without keeping the tensors alive.
_SERIALS = itertools.count()


def all_finite(x: np.ndarray) -> bool:
    """Whether every element of ``x`` is finite; exact, like
    ``np.all(np.isfinite(x))``.

    A contiguous float array is screened with one dot product of its
    elements with themselves: the squares are non-negative, so the sum is
    finite only if every element is. Only a non-finite sum (a bad element,
    or squares that overflow) falls back to the elementwise test.
    ``np.vdot`` is used because, unlike ``np.dot``, it raises no overflow
    warning.
    """
    if x.dtype.kind == "f" and x.size and (x.flags.c_contiguous
                                           or x.flags.f_contiguous):
        flat = x.ravel(order="K")
        if math.isfinite(np.vdot(flat, flat)):
            return True
    return bool(np.all(np.isfinite(x)))


def _as_float_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype.kind in _FLOAT_KINDS:
        return arr
    return arr.astype(_DEFAULT_DTYPE)


class Tensor:
    """Immutable dense float array, optionally tracked for gradients.

    Every Tensor has a serial number no other Tensor of the process shares;
    a copy, deep copy or unpickled Tensor is built by the constructor and so
    gets its own.
    """

    __slots__ = ("data", "requires_grad", "_serial")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = _as_float_array(data, dtype)
        if not all_finite(arr):
            raise NonFiniteError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._serial = next(_SERIALS)

    def __reduce__(self):
        return Tensor, (self.data, self.requires_grad)

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
        return sub(other, self)

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

    Entries and gradients are keyed by tensor serial number, so the tape
    holds no Tensor; what it keeps alive is what the backward rules read.
    The rules stay on the tape after a pass, so a tape can run backward more
    than once.
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []

    def __enter__(self) -> "GradientTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("GradientTape contexts closed out of order")

    def record(self, name: str, inputs: Sequence[Tensor], output: Tensor,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> None:
        self._entries.append(_TapeEntry(
            name, tuple(t._serial for t in inputs), output._serial, backward))

    def _backprop(self, root: Tensor, keep) -> dict[int, np.ndarray]:
        """Gradients of a scalar ``root``, by serial number, of every
        reachable tensor that no op on this tape produced and of the serials
        in ``keep``; any other op output's gradient is dropped once its op
        has consumed it."""
        if root.data.size != 1:
            raise ContractError(
                f"backward root must be scalar, got shape {root.data.shape}")
        root_id = root._serial
        if not any(entry.output_id == root_id or root_id in entry.input_ids
                   for entry in reversed(self._entries)):
            raise ContractError("backward root is not on this tape")
        grads: dict[int, np.ndarray] = {root_id: np.ones_like(root.data)}
        for entry in reversed(self._entries):
            if entry.output_id in keep:
                g_out = grads.get(entry.output_id)
            else:
                g_out = grads.pop(entry.output_id, None)
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
        grads = self._backprop(root, {p._serial for p in params.values()})
        return {name: grads[p._serial] if p._serial in grads
                else np.zeros_like(p.data) for name, p in params.items()}

    def grad(self, root: Tensor, tensor: Tensor) -> np.ndarray:
        """Gradient of ``root`` with respect to a single tensor."""
        g = self._backprop(root, {tensor._serial}).get(tensor._serial)
        return g if g is not None else np.zeros_like(tensor.data)


def active_tape() -> GradientTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def apply_op(name: str, out_data: np.ndarray, inputs: Sequence[Tensor],
             backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Build the output tensor of an op and record it on the active tape.

    Exposed so callers (and negative-control tests) can define custom ops
    with their own backward rules.
    """
    if not all_finite(out_data):
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out._serial = next(_SERIALS)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, inputs, out, backward)
    return out


def _row_sum(g2: np.ndarray) -> np.ndarray:
    """Column sums of a 2-d array, ``g2.sum(axis=0)``, as one BLAS product
    with a ones vector: several times faster than numpy's reduction over
    the leading axis, at float32 [1760, 64] 6 µs against 35 µs."""
    return np.ones(g2.shape[0], g2.dtype) @ g2


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``.

    The leading axes that ``shape`` lacks are summed by ``_row_sum``; axes
    where ``shape`` has size 1 (the keepdims case) by numpy's ``sum``.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        tail = grad.shape[extra:]
        grad = _row_sum(grad.reshape(math.prod(grad.shape[:extra]),
                                     math.prod(tail))).reshape(tail)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _operand(value, other) -> Tensor:
    """Wrap a non-Tensor operand; a scalar takes ``other``'s dtype."""
    if isinstance(other, Tensor) and np.ndim(value) == 0:
        return constant(value, dtype=other.data.dtype)
    return constant(value)


def _coerce(a, b) -> tuple[Tensor, Tensor]:
    if not isinstance(a, Tensor):
        a = _operand(a, b)
    if not isinstance(b, Tensor):
        b = _operand(b, a)
    return a, b


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a, b)
    a_shape = a.data.shape if a.requires_grad else None
    b_shape = b.data.shape if b.requires_grad else None

    def backward(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return apply_op("add", a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a, b)
    a_shape = a.data.shape if a.requires_grad else None
    b_shape = b.data.shape if b.requires_grad else None

    def backward(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(-g, b_shape))

    return apply_op("sub", a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a, b)
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return apply_op("mul", a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a, b)
    a_shape, b_shape, b_data = a.data.shape, b.data.shape, b.data
    a_data = a.data if b.requires_grad else None
    a_grad = a.requires_grad

    def backward(g):
        ga = _unbroadcast(g / b_data, a_shape) if a_grad else None
        gb = (None if a_data is None else
              _unbroadcast(-g * a_data / (b_data * b_data), b_shape))
        return ga, gb

    with np.errstate(all="ignore"):
        out_data = a.data / b.data
    return apply_op("div", out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return apply_op("neg", -a.data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    x = a.data

    def backward(g):
        return (g * np.sign(x),)

    return apply_op("abs", np.abs(a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    x = a.data

    def backward(g):
        return (g * (x > 0),)

    return apply_op("relu", np.maximum(a.data, 0), (a,), backward)


# gelu's tanh approximation, as in the original BERT codebase:
# gelu(x) = 0.5 x (1 + t), t = tanh(inner), inner = C (x + A x^3). The three
# kernels below are its only formula; ``gelu`` and ``ffn`` both call them.
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray, sq: np.ndarray, out=None) -> np.ndarray:
    """t = tanh(inner) from ``x`` and ``sq = x * x``; ``out`` may be ``sq``."""
    t = np.multiply(sq, _GELU_C * _GELU_A, out=out)
    t += _GELU_C
    t *= x  # inner = C * (x + A x^3)
    return np.tanh(t, out=t)


def _gelu_value(x: np.ndarray) -> np.ndarray:
    """gelu(x) in one new array."""
    out = x * x
    _gelu_tanh(x, out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _gelu_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d gelu / dx, 1 + t), recomputed from gelu's input ``x`` alone, so
    gelu(x) is 0.5 * x * (1 + t). Peaks at three arrays of ``x``'s shape."""
    sq = x * x
    t = _gelu_tanh(x, sq)
    one_plus_t = t + 1.0
    one_minus_t = np.subtract(1.0, t, out=t)
    # d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) d_inner
    #             = 0.5 (1 + t) (1 + x (1 - t) d_inner)
    slope = np.multiply(sq, 3.0 * _GELU_C * _GELU_A, out=sq)
    slope += _GELU_C  # d_inner = C * (1 + 3 A x^2)
    slope *= x
    slope *= one_minus_t
    slope += 1.0
    slope *= one_plus_t
    slope *= 0.5
    return slope, one_plus_t


def gelu(a: Tensor) -> Tensor:
    """gelu's tanh approximation; the backward keeps only the input and
    recomputes the rest."""
    x = a.data

    def backward(g):
        gx, _ = _gelu_slope(x)
        gx *= g
        return (gx,)

    return apply_op("gelu", _gelu_value(x), (a,), backward)


# dropout draws one 16-bit integer per element and drops it when the draw
# is below round(rate * 2**16); from 1 - 2**-17 on, a rate rounds to 2**16
_DROP_LEVELS = 1 << 16
_MAX_DROPOUT_RATE = 1.0 - 2.0 ** -17


def dropout_threshold(rate: float, what: str = "dropout rate") -> int:
    """The 16-bit drop threshold ``round(rate * 2**16)`` of a dropout rate.

    The one check of a dropout rate, shared by ``dropout`` and
    ``EncoderConfig``: a rate outside [0, 1 - 2**-17), which includes every
    rate that rounds to a threshold of 2**16 (every element dropped), is a
    ``ContractError`` naming ``what``.
    """
    if not 0.0 <= rate < _MAX_DROPOUT_RATE:
        raise ContractError(f"{what} must be in [0, 1 - 2**-17), got {rate}")
    return round(rate * _DROP_LEVELS)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero each element with probability ``rate`` and
    scale the survivors by the inverse of the keep probability; the backward
    keeps a bool mask.

    The mask comes from 16-bit draws, four to each 64-bit word of
    ``rng.bit_generator.random_raw`` read as little-endian ``'<u2'``, so a
    seed gives the same mask on every platform: an element is dropped when
    its draw is below ``t = round(rate * 2**16)``. The realized rate is thus
    ``t / 2**16``, within 2**-17 of ``rate``, and the survivors are scaled by
    ``2**16 / (2**16 - t)``, rounded once to ``x``'s dtype. A rate that
    rounds to ``t = 2**16`` is refused (``dropout_threshold``).
    """
    threshold = dropout_threshold(rate)
    n = x.data.size
    raw = rng.bit_generator.random_raw(-(-n // 4))
    draws = raw.astype("<u8", copy=False).view("<u2")[:n]
    keep = (draws >= threshold).reshape(x.data.shape)
    scale = x.data.dtype.type(_DROP_LEVELS / (_DROP_LEVELS - threshold))
    out_data = x.data * scale
    out_data *= keep

    def backward(g):
        gx = g * scale
        gx *= keep
        return (gx,)

    return apply_op("dropout", out_data, (x,), backward)


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
    in_shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        grad = np.zeros(in_shape, dtype)
        np.put_along_axis(grad, np.expand_dims(idx, axis), g_exp, axis=axis)
        return (grad,)

    return apply_op("max", out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; a 2-d right operand goes through ``linear``."""
    a, b = _coerce(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul requires rank >= 2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    if b.data.ndim == 2:
        return linear(a, b)
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)
        if a_data is not None:
            gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
        return ga, gb

    return apply_op("matmul", a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for a 2-d ``w`` as one flat GEMM over the leading axes.

    The backward is two flat GEMMs and a column sum, so the weight gradient
    needs no batched product and no reduction over a batch axis.
    """
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear needs [..., k] x [k, n], got {x.data.shape} x {w.data.shape}")
    if b is not None and b.data.shape != (w.data.shape[1],):
        raise DimensionError(
            f"linear bias must have shape ({w.data.shape[1]},), got {b.data.shape}")
    rows = math.prod(x.data.shape[:-1])  # not -1: a width may be 0
    x2 = x.data.reshape(rows, w.data.shape[0])
    out2 = x2 @ w.data
    if b is not None:
        out2 += b.data
    x_shape, n = x.data.shape, w.data.shape[1]
    out_shape = x_shape[:-1] + (n,)
    w_t = w.data.T if x.requires_grad else None
    x2_t = x2.T if w.requires_grad else None
    with_bias = b is not None
    b_grad = with_bias and b.requires_grad

    def backward(g):
        g2 = g.reshape(rows, n)
        gx = None if w_t is None else (g2 @ w_t).reshape(x_shape)
        gw = None if x2_t is None else x2_t @ g2
        if not with_bias:
            return gx, gw
        return gx, gw, (_row_sum(g2) if b_grad else None)

    inputs = (x, w) if b is None else (x, w, b)
    return apply_op("linear", out2.reshape(out_shape), inputs, backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward block ``linear(gelu(linear(x, w1, b1)), w2, b2)`` as
    one op, equal to that composition bit for bit.

    The backward keeps ``x`` flattened, the pre-activation ``x @ w1 + b1``
    and the transposed weights, and recomputes gelu's tanh and output from
    the pre-activation: one ``[..., ff]`` array where the composition kept
    three (selective activation recomputation; Korthikanti et al., 2022,
    arXiv 2205.05198). Outside a tape the pre-activation is freed before the
    second GEMM.
    """
    x_shape = x.data.shape
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or len(x_shape) < 1
            or x_shape[-1] != w1.data.shape[0]
            or w2.data.shape[0] != w1.data.shape[1]
            or b1.data.shape != (w1.data.shape[1],)
            or b2.data.shape != (w2.data.shape[1],)):
        raise DimensionError(
            f"ffn needs [..., d], [d, ff], [ff], [ff, n] and [n], got {x_shape}, "
            f"{w1.data.shape}, {b1.data.shape}, {w2.data.shape} and {b2.data.shape}")
    rows = math.prod(x_shape[:-1])  # not -1: a width may be 0
    n = w2.data.shape[1]
    x2 = x.data.reshape(rows, w1.data.shape[0])
    pre = x2 @ w1.data
    pre += b1.data
    act = _gelu_value(pre)
    first_grad = x.requires_grad or w1.requires_grad or b1.requires_grad
    if active_tape() is None or not (first_grad or w2.requires_grad):
        pre = None  # no rule will read it
    out2 = act @ w2.data
    del act
    out2 += b2.data
    w1_t = w1.data.T if x.requires_grad else None
    x2_t = x2.T if w1.requires_grad else None
    w2_t = w2.data.T if first_grad else None
    b1_grad, w2_grad, b2_grad = b1.requires_grad, w2.requires_grad, b2.requires_grad

    def backward(g):
        g2 = g.reshape(rows, n)
        gx = gw1 = gb1 = gw2 = None
        if pre is not None:
            slope, act = _gelu_slope(pre)
            if w2_grad:
                act *= pre  # 2 gelu(pre): the exact 0.5 goes on the [ff, n] product
                gw2 = act.T @ g2
                gw2 *= 0.5
            del act
            if w2_t is not None:
                slope *= g2 @ w2_t  # now d loss / d pre
                if w1_t is not None:
                    gx = (slope @ w1_t).reshape(x_shape)
                if x2_t is not None:
                    gw1 = x2_t @ slope
                if b1_grad:
                    gb1 = _row_sum(slope)
        return gx, gw1, gb1, gw2, (_row_sum(g2) if b2_grad else None)

    return apply_op("ffn", out2.reshape(x_shape[:-1] + (n,)),
                    (x, w1, b1, w2, b2), backward)


def attention_core(q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray,
                   heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of queries [B, Tq, d] over
    keys and values [B, Tk, d]; the output is [B, Tq, d].

    Splits ``heads`` heads, scores ``q kᵀ / sqrt(d / heads)`` plus the
    constant ``mask_bias`` (broadcast to [B, heads, Tq, Tk], query by key),
    takes the softmax over keys, weights ``v`` and merges the heads back, all
    in one op. The scores are held key-major, [B, heads, key, query], so each
    softmax pass runs along the contiguous query axis: the max is a loop of
    ``np.maximum`` over the key rows (exact, and far faster than a
    ``max(axis=-2)`` with its short inner loop) and the normalizer is one
    BLAS product with a ones row; the rows are then scaled by its
    reciprocal. The scale is folded into ``q`` before the product. Every
    product into a [B, T, d] result (the output forward, the three
    gradients backward) writes straight into it through a head-split view,
    with no merge copy. The backward keeps the probabilities, the op's own
    output and, of the split operands, only those its gradients read. Its
    softmax step takes the sum over keys of dP * P, per query and head, as
    the dot of the output gradient with the output over the head's width
    (rowsum(dP * P) = rowsum(dO * O); Dao et al., 2022, arXiv 2205.14135),
    so no product over the [B, heads, key, query] arrays is summed.
    """
    q_shape, kv_shape = q.data.shape, k.data.shape
    if (len(q_shape) != 3 or len(kv_shape) != 3 or v.data.shape != kv_shape
            or q_shape[0] != kv_shape[0] or q_shape[2] != kv_shape[2]):
        raise DimensionError(
            f"attention_core needs [B, Tq, d] q and equal [B, Tk, d] k and v, "
            f"got {q_shape}, {kv_shape} and {v.data.shape}")
    bsz, tq, d = q_shape
    tk = kv_shape[1]
    if heads < 1 or d % heads:
        raise DimensionError(f"width {d} does not split into {heads} heads")
    dh = d // heads
    scale = q.data.dtype.type(1.0 / np.sqrt(dh))

    def split(m):  # [B, T, d] -> [B, h, T, dh]
        return m.reshape(bsz, m.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def into(shape, a, b):  # a @ b written straight into a new [B, T, d] array
        out = np.empty(shape, np.result_type(a, b))
        np.matmul(a, b, out=split(out))
        return out

    qh, kh, vh = split(q.data * scale), split(k.data), split(v.data)
    probs = kh @ qh.transpose(0, 1, 3, 2)  # [B, h, key, query]
    probs += np.broadcast_to(mask_bias, (bsz, heads, tq, tk)).transpose(0, 1, 3, 2)
    top = probs[:, :, 0].copy()
    for j in range(1, tk):
        np.maximum(top, probs[:, :, j], out=top)
    probs -= top[:, :, None, :]
    del top
    np.exp(probs, out=probs)
    norm = np.ones((1, tk), probs.dtype) @ probs
    np.divide(1.0, norm, out=norm)
    probs *= norm
    out_data = into(q_shape, probs.transpose(0, 1, 3, 2), vh)
    # the backward reads kh for gq, qh for gk, and vh and the output for
    # either
    v_grad = v.requires_grad
    if not q.requires_grad:
        kh = None
    if not k.requires_grad:
        qh = None
    if kh is None and qh is None:
        vh = None
    out_read = None if vh is None else out_data

    def backward(g):
        gh = split(g)
        gv = into(kv_shape, probs, gh) if v_grad else None
        if vh is None:
            return None, None, gv
        gs = vh @ gh.transpose(0, 1, 3, 2)  # d loss / d probs, key-major
        # the row dot sum_k dP P, per query and head, as sum_e g O
        per_head = (bsz, tq, heads, dh)
        row_dot = np.ascontiguousarray(np.einsum(  # a strided one slows the -=
            "bqhe,bqhe->bhq", g.reshape(per_head), out_read.reshape(per_head)))
        gs -= row_dot[:, :, None, :]
        gs *= probs  # now d loss / d (k (q scale)ᵀ)
        gq = None
        if kh is not None:
            gq = into(q_shape, gs.transpose(0, 1, 3, 2), kh)
            gq *= scale
        gk = None if qh is None else into(kv_shape, gs, qh)
        return gq, gk, gv

    return apply_op("attention_core", out_data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# Gather / scatter
# ---------------------------------------------------------------------------

def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; output shape indices.shape + (d,)."""
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-d table, got {table.data.shape}")
    shape, dtype = table.data.shape, table.data.dtype

    def backward(g):
        # Sum the rows of g that share an index: a stable sort groups them in
        # input order, and reduceat adds each group in that fixed order.
        grad = np.zeros(shape, dtype)
        flat = idx.reshape(-1)
        if flat.size:
            flat = flat % shape[0]  # negative indices alias rows
            order = np.argsort(flat, kind="stable")
            ordered = flat[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], ordered[1:] != ordered[:-1])))
            grad[ordered[starts]] = np.add.reduceat(
                g.reshape(-1, shape[1])[order], starts, axis=0)
        return (grad,)

    return apply_op("gather_rows", table.data[idx], (table,), backward)


def take_per_row(a: Tensor, col_indices) -> Tensor:
    """out[i] = a[i, col_indices[i]] for a 2-d tensor."""
    idx = np.asarray(col_indices)
    rows = np.arange(a.data.shape[0])
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        grad = np.zeros(shape, dtype)
        grad[rows, idx] = g  # one element per row, so no index repeats
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
    """log(softmax) over the last axis via the log-sum-exp trick; the
    backward's probabilities are the forward's ``exp(shifted)`` over its
    sum."""
    if a.data.ndim < 1 or a.data.shape[-1] == 0:
        raise DimensionError(
            f"log_softmax needs a non-empty last axis, got {a.data.shape}")
    m = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - m
    probs = np.exp(shifted)
    total = probs.sum(axis=-1, keepdims=True)
    out_data = np.subtract(shifted, np.log(total), out=shifted)
    probs *= 1.0 / total

    def backward(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return apply_op("log_softmax", out_data, (a,), backward)


LAYER_NORM_EPS = 1e-12


def layer_norm(a: Tensor, scale: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine by
    a ``[d]`` scale and bias.

    The rows are flattened to [rows, d], and every row mean is one BLAS
    product: the mean and the variance forward with a constant 1/d vector,
    and backward ``(g * x_hat) @ (scale / d)`` and ``g @ (scale / d)``, the
    first reusing the ``g * x_hat`` the scale gradient sums. The scale and
    bias gradients are row sums (``_row_sum``).
    """
    if a.data.ndim < 1 or a.data.shape[-1] == 0:
        raise DimensionError(
            f"layer_norm needs a non-empty last axis, got {a.data.shape}")
    shape = a.data.shape
    d = shape[-1]
    if scale.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm needs a ({d},) scale and bias, got "
            f"{scale.data.shape} and {bias.data.shape}")
    x = a.data.reshape(-1, d)
    row_mean = np.full(d, 1.0 / d, dtype=x.dtype)
    x_hat2 = x - (x @ row_mean)[:, None]
    sq = x_hat2 * x_hat2
    inv_std = sq @ row_mean
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    inv_std = inv_std[:, None]
    x_hat2 *= inv_std
    out_data = np.multiply(x_hat2.reshape(shape), scale.data, out=sq.reshape(shape))
    out_data += bias.data
    scale_data = scale.data

    def backward(g):
        g2 = g.reshape(-1, d)
        gx = g2 * x_hat2
        d_scale = _row_sum(gx)
        scale_mean = scale_data * row_mean
        mean_gs_xhat = (gx @ scale_mean)[:, None]
        mean_gs = (g2 @ scale_mean)[:, None]
        d_x2 = g2 * scale_data
        np.multiply(x_hat2, mean_gs_xhat, out=gx)
        d_x2 -= gx
        d_x2 -= mean_gs
        d_x2 *= inv_std
        return d_x2.reshape(shape), d_scale, _row_sum(g2)

    return apply_op("layer_norm", out_data, (a, scale, bias), backward)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

# central-difference step of check_gradient
FINITE_DIFFERENCE_STEP = 1e-5


def check_gradient(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued. The input is promoted to float64; at single
    precision the difference quotient is dominated by rounding error.
    """
    base = x.data.astype(np.float64)
    if not all_finite(base):
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
    h = FINITE_DIFFERENCE_STEP
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
    if not all_finite(rel):
        bad = int(np.argmax(~np.isfinite(rel.reshape(-1))))
        raise NonFiniteError(f"non-finite gradient comparison at element {bad}")
    return float(rel.max())
