"""Adam and LAMB parameter updates with a linear warmup/decay schedule.

LAMB takes the bias-corrected Adam direction and rescales each parameter
block's update by the trust ratio ||w|| / ||update||, clamped to [0, 10] and
defined as 1 when either norm is zero.

One step works on flat arrays: the parameters, gradients and both moments
are each one vector with the blocks laid end to end in parameter order, the
per-block norms come from one ``np.add.reduceat`` over the squares, and the
trust ratios are expanded back with ``np.repeat``. Each parameter's data is
a view into the flat weights, which the step updates in place, and
``OptimizerState.m`` and ``.v`` map each parameter name to a view into the
flat moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, all_finite
from .errors import ContractError, NonFiniteError

TRUST_RATIO_CLAMP = 10.0


@dataclass
class OptimizerState:
    """Per-parameter moments plus shared hyperparameters and step counter."""

    kind: str = "lamb"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.0
    warmup_steps: int = 0
    total_steps: int = 0  # 0 means no decay
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # the flat buffers behind ``m``, ``v`` and the parameters' data, built
    # by the first step
    _flat: "_FlatBuffers | None" = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.kind not in ("adam", "lamb"):
            raise ContractError(f"optimizer kind must be adam or lamb, got {self.kind!r}")
        # each comparison is False for NaN
        for name in ("learning_rate", "weight_decay", "warmup_steps",
                     "total_steps", "step"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be >= 0 and finite, "
                                    f"got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ContractError(
                    f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 < self.eps < math.inf:
            raise ContractError(f"eps must be > 0 and finite, got {self.eps}")

    def effective_lr(self, step: int | None = None) -> float:
        """Piecewise-linear rate: ramp from 0 over warmup, then decay to 0."""
        t = self.step if step is None else step
        base = self.learning_rate
        if self.warmup_steps > 0 and t < self.warmup_steps:
            return base * t / self.warmup_steps
        if self.total_steps > self.warmup_steps:
            remaining = max(0, self.total_steps - t)
            return base * remaining / (self.total_steps - self.warmup_steps)
        return base

    def reset_moments(self) -> None:
        """Drop first/second moments (used at stage transitions)."""
        self.m.clear()
        self.v.clear()
        self._flat = None


class _FlatBuffers:
    """The flat arrays of one parameter layout: the moments (``m``/``v``,
    whose per-name views ``OptimizerState.m`` and ``.v`` hand out), the
    weights (whose views are the parameters' data) and the work arrays a
    step reuses."""

    def __init__(self, layout: tuple[tuple[str, tuple[int, ...]], ...], dtype):
        self.layout = layout
        self.sizes = np.array([int(np.prod(shape)) for _, shape in layout],
                              dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        # reduceat reads one element at a repeated or end-of-buffer start, so
        # empty blocks sit out
        self.nonempty = np.flatnonzero(self.sizes)
        total = int(self.sizes.sum())
        self.m, self.v, self.g, self.update, self.work = (
            np.zeros(total, dtype=dtype) for _ in range(5))
        self.m_views = self.split(self.m)
        self.v_views = self.split(self.v)
        # the flat weights whose views are the parameters' data
        self.w: np.ndarray | None = None
        self.w_views: list[np.ndarray] = []

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[o:o + s].reshape(shape) for o, s, (_, shape)
                in zip(self.offsets, self.sizes, self.layout)]

    def weights(self, params: dict[str, Tensor]) -> np.ndarray:
        """The flat weights; when some parameter's data is not its view of
        them, they are copied into a new buffer that every parameter then
        views (same values)."""
        if self.w is None or any(p.data is not view for p, view
                                 in zip(params.values(), self.w_views)):
            self.w = np.concatenate([p.data.reshape(-1) for p in params.values()])
            self.w_views = self.split(self.w)
            for p, view in zip(params.values(), self.w_views):
                p.data = view
        return self.w

    def block_norms(self, flat: np.ndarray) -> np.ndarray:
        np.multiply(flat, flat, out=self.work)
        norms = np.zeros(len(self.sizes), dtype=flat.dtype)
        norms[self.nonempty] = np.sqrt(
            np.add.reduceat(self.work, self.offsets[self.nonempty]))
        return norms

    def serves(self, state: OptimizerState, layout, dtype) -> bool:
        """True while ``state`` still holds exactly these buffers' views."""
        return (layout == self.layout and dtype == self.m.dtype
                and all(state.m.get(name) is mv and state.v.get(name) is vv
                        for (name, _), mv, vv
                        in zip(layout, self.m_views, self.v_views)))


def _flat_buffers(state: OptimizerState, layout, dtype) -> _FlatBuffers:
    """The state's flat buffers; per-name moments the state holds that are
    not views of them (a fresh state, a loaded checkpoint) are copied in."""
    flat = state._flat
    if flat is not None and flat.serves(state, layout, dtype):
        return flat
    flat = _FlatBuffers(layout, dtype)
    for moments, views in ((state.m, flat.m_views), (state.v, flat.v_views)):
        for (name, shape), view in zip(layout, views):
            old = moments.get(name)
            if old is None:
                continue
            if old.shape != shape:
                raise ContractError(
                    f"moment shape {old.shape} does not match parameter "
                    f"{name!r} shape {shape}")
            view[...] = old
        moments.clear()
        moments.update((name, view) for (name, _), view in zip(layout, views))
    state._flat = flat
    return flat


def optimizer_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                   state: OptimizerState) -> tuple[dict[str, Tensor], OptimizerState]:
    """Apply one update in place; parameters keep their tensor identity.

    Each parameter's ``data`` is a view into one flat weight buffer that the
    step updates in place. The whole step aborts before touching any
    parameter or moment if any gradient is non-finite.
    """
    if not params:
        raise ContractError("optimizer_step needs at least one parameter")
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ContractError(f"missing gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {p.data.shape}")
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ContractError(
            f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
    layout = tuple((name, p.data.shape) for name, p in params.items())
    flat = _flat_buffers(state, layout, dtypes.pop())
    g = np.concatenate([grads[name].reshape(-1) for name in params], out=flat.g)
    if not all_finite(g):
        bad = next(name for name in params if not all_finite(grads[name]))
        raise NonFiniteError(f"non-finite gradient for parameter {bad!r}")

    lr = state.effective_lr()
    t = state.step + 1  # bias correction uses the 1-based step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t

    # m_hat / (sqrt(v_hat) + eps), computed in the reused work arrays
    w, m, v, update, work = flat.weights(params), flat.m, flat.v, flat.update, flat.work
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=work)
    v *= state.beta2
    np.multiply(g, g, out=work)
    work *= 1.0 - state.beta2
    v += work
    np.divide(m, bc1, out=update)
    np.divide(v, bc2, out=work)
    np.sqrt(work, out=work)
    work += state.eps
    update /= work
    if state.weight_decay:
        update += np.multiply(w, state.weight_decay, out=work)
    if state.kind == "lamb":
        w_norm = flat.block_norms(w)
        u_norm = flat.block_norms(update)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.minimum(w_norm / u_norm, TRUST_RATIO_CLAMP)
        ratio[(w_norm == 0) | (u_norm == 0)] = 1.0
        update *= np.repeat(ratio, flat.sizes)
    update *= lr
    w -= update
    state.step += 1
    return params, state
