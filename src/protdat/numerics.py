"""Dense-tensor math with reverse-mode differentiation.

Everything the network needs is built from a small set of differentiable
primitives over numpy arrays: broadcast arithmetic, (batched) matmul,
masked softmax, layer normalization, rotary position embedding, embedding
lookup, GELU and next-token cross-entropy.  Each primitive records a
backward closure on the output tensor; ``Tensor.backward()`` walks the
graph in reverse topological order.

Precision is carried by the underlying arrays: float32 for training
speed, float64 for gradient checks.  Attention masks are specified
behaviorally (blocked entries have exactly-zero post-softmax weight) and
realized additively with -inf logits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

ROPE_BASE = 10000.0
LAYER_NORM_EPS = 1e-5


class NumericsError(ValueError):
    """Raised when an operation's preconditions are violated."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (inference / sampling loops)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse mode.

    ``requires_grad`` marks leaf parameters; interior nodes inherit it
    from their parents.  Gradients accumulate into ``.grad`` (None until
    the first contribution; unused parameters therefore read as zero).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[], None] | None = None,
    ):
        self.data = np.asarray(data)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph."""
        if self.data.size != 1:
            raise NumericsError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64 if dtype is None else dtype)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[], None]) -> Tensor:
    """The output of an op: it keeps its parents and ``backward`` only when
    grad mode is on and some parent is tracked.

    ``backward`` is a closure over the op's ``out`` variable; closures bind
    late, so it reads the tensor returned here once it runs.
    """
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# -- elementwise and structural primitives ---------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward():
        g = out.grad
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward():
        g = out.grad
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a @ b`` with numpy broadcasting of batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward():
        g = out.grad
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def backward():
        a._accumulate(out.grad.reshape(a.shape))

    out = _make(a.data.reshape(shape), (a,), backward)
    return out


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)

    def backward():
        a._accumulate(np.swapaxes(out.grad, ax1, ax2))

    out = _make(np.swapaxes(a.data, ax1, ax2), (a,), backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward():
        pieces = np.split(out.grad, np.cumsum(sizes)[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(piece)

    out = _make(out_data, tuple(tensors), backward)
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward():
        g = out.grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2D table; gradient scatter-adds back into the rows."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise NumericsError("embedding table must be 2D")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise NumericsError("embedding ids out of range")
    out_data = table.data[ids]

    def backward():
        g = np.zeros_like(table.data)
        np.add.at(g, ids.reshape(-1), out.grad.reshape(-1, table.shape[1]))
        table._accumulate(g)

    out = _make(out_data, (table,), backward)
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (as in GPT-style stacks)."""
    x = as_tensor(x)
    c = math.sqrt(2.0 / math.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    t = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward():
        dinner = c * (1.0 + 3 * 0.044715 * x.data**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * dinner
        x._accumulate(out.grad * dx)

    out = _make(out_data, (x,), backward)
    return out


# -- normalization, softmax, attention --------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise NumericsError("layer_norm: empty vector")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise NumericsError("layer_norm: gamma/beta must match the last axis")
    if eps <= 0:
        raise NumericsError("layer_norm: eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gamma.data * xhat + beta.data

    def backward():
        g = out.grad
        dxhat = g * gamma.data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(axis=-1, keepdims=True)
        dx = dxhat * inv + dvar * (2.0 / d) * xc + dmu / d
        x._accumulate(dx)
        lead = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=lead))
        beta._accumulate(g.sum(axis=lead))

    out = _make(out_data, (x, gamma, beta), backward)
    return out


def masked_softmax(scores: Tensor, visible: np.ndarray | None) -> Tensor:
    """Softmax over the last axis; blocked entries get exactly-zero weight.

    ``visible`` is a boolean array broadcastable to ``scores.shape`` (True
    means the key may be attended to).  A row with no visible key is a
    degenerate softmax and is rejected.
    """
    scores = as_tensor(scores)
    if visible is None:
        s = scores.data
    else:
        vis = np.broadcast_to(np.asarray(visible, dtype=bool), scores.shape)
        if not vis.any(axis=-1).all():
            raise NumericsError("masked_softmax: a query row has no visible key")
        s = np.where(vis, scores.data, -np.inf)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward():
        g = out.grad
        dot = (p * g).sum(axis=-1, keepdims=True)
        scores._accumulate(p * (g - dot))

    out = _make(p, (scores,), backward)
    return out


def rope_rotate(x: Tensor, positions: np.ndarray, head_dim: int) -> Tensor:
    """Rotary position embedding over the last axis, per head-sized chunk.

    Pairs dimension i with i + head_dim/2 inside each chunk and rotates
    the pair by ``position * base**(-2i/head_dim)``.  Row norms are
    preserved; query/key products depend only on position differences.
    """
    x = as_tensor(x)
    if head_dim % 2 != 0:
        raise NumericsError("rope_rotate: head_dim must be even")
    d = x.shape[-1]
    if d % head_dim != 0:
        raise NumericsError("rope_rotate: last axis must be a multiple of head_dim")
    positions = np.asarray(positions)
    if positions.ndim != 1 or positions.shape[0] != x.shape[-2]:
        raise NumericsError("rope_rotate: positions must be 1D matching the row count")
    if positions.size and positions.min() < 0:
        raise NumericsError("rope_rotate: positions must be nonnegative")
    half = head_dim // 2
    freqs = ROPE_BASE ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)
    ang = positions[:, None].astype(np.float64) * freqs[None, :]
    # (n, 1, half): broadcasts over leading batch axes and the chunk axis
    cos = np.cos(ang).astype(x.dtype)[:, None, :]
    sin = np.sin(ang).astype(x.dtype)[:, None, :]

    def apply(data: np.ndarray, sin_: np.ndarray) -> np.ndarray:
        chunked = data.reshape(data.shape[:-1] + (d // head_dim, head_dim))
        x1 = chunked[..., :half]
        x2 = chunked[..., half:]
        y1 = x1 * cos - x2 * sin_
        y2 = x1 * sin_ + x2 * cos
        return np.concatenate([y1, y2], axis=-1).reshape(data.shape)

    out_data = apply(x.data, sin)

    def backward():
        x._accumulate(apply(out.grad, -sin))

    out = _make(out_data, (x,), backward)
    return out


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., n, d) -> (..., H, n, d/H)."""
    n, d = x.shape[-2], x.shape[-1]
    hd = d // n_heads
    r = reshape(x, x.shape[:-1] + (n_heads, hd))
    return swapaxes(r, -2, -3)


def merge_heads(x: Tensor) -> Tensor:
    """(..., H, n, hd) -> (..., n, H*hd)."""
    s = swapaxes(x, -2, -3)
    return reshape(s, s.shape[:-2] + (s.shape[-2] * s.shape[-1],))


def masked_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    n_heads: int,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled-dot-product attention with visibility masking.

    q: (..., n_q, d), k/v: (..., n_k, d) with d divisible by ``n_heads``;
    mask broadcastable to (..., n_q, n_k).  Returns the re-concatenated
    output (..., n_q, d) and per-head weights (..., H, n_q, n_k) as a
    plain array for tracing.
    """
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d:
        raise NumericsError("masked_attention: q/k/v must share d_model")
    if d % n_heads != 0:
        raise NumericsError("masked_attention: d_model must be divisible by n_heads")
    if k.shape[-2] != v.shape[-2]:
        raise NumericsError("masked_attention: k and v must have equal key counts")
    visible = None
    if mask is not None:
        visible = np.asarray(mask, dtype=bool)
        if visible.shape[-2:] != (q.shape[-2], k.shape[-2]):
            raise NumericsError(
                f"masked_attention: mask shape {visible.shape[-2:]} != "
                f"({q.shape[-2]}, {k.shape[-2]})"
            )
        # insert a head axis so one mask serves all heads
        visible = np.expand_dims(visible, -3)
    qh = split_heads(q, n_heads)
    kh = split_heads(k, n_heads)
    vh = split_heads(v, n_heads)
    scale = 1.0 / math.sqrt(d // n_heads)
    scores = mul(matmul(qh, swapaxes(kh, -1, -2)), scale)
    weights = masked_softmax(scores, visible)
    out = merge_heads(matmul(weights, vh))
    return out, weights.data.copy()


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    y = matmul(x, w)
    if b is not None:
        y = add(y, b)
    return y


# -- losses and standalone kernels ------------------------------------------


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Stable softmax of a vector of logits scaled by 1/temperature."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise NumericsError("softmax_with_temperature: need a non-empty vector")
    if not np.isfinite(logits).all():
        raise NumericsError("softmax_with_temperature: non-finite logits")
    if not (temperature > 0):
        raise NumericsError("softmax_with_temperature: temperature must be > 0")
    z = logits / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def next_token_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int) -> Tensor:
    """Mean -log p(target) over positions whose target is not ``ignore_id``.

    logits: (..., V); targets: integer array matching the leading shape.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise NumericsError("next_token_cross_entropy: targets must match logit rows")
    flat = logits.data.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    keep = tgt != ignore_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise NumericsError("next_token_cross_entropy: all positions ignored")
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    picked = flat[np.arange(flat.shape[0]), np.where(keep, tgt, 0)]
    losses = np.where(keep, lse - picked, 0.0)
    out_data = np.asarray(losses.sum() / n_keep, dtype=logits.dtype)

    def backward():
        g = float(out.grad)
        p = np.exp(flat - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(flat.shape[0]), np.where(keep, tgt, 0)] -= 1.0
        p[~keep] = 0.0
        logits._accumulate((g / n_keep) * p.reshape(logits.shape))

    out = _make(out_data, (logits,), backward)
    return out


def finite_difference_grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int = 8,
    seed: int = 0,
    analytic_grads: dict[str, np.ndarray] | None = None,
    denom_floor: float = 1e-6,
) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` must be a deterministic function of the current parameter
    values.  Coordinates are sampled per parameter (all of them when the
    tensor is small).  Returns the worst relative error
    |analytic - numeric| / max(|analytic| + |numeric|, denom_floor); the
    floor keeps gradients below the difference quotient's own resolution
    from registering as spurious disagreement.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise NumericsError("finite_difference_grad_check: eps outside [1e-6, 1e-4]")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise NumericsError(f"grad check requires float64 parameters ({name} is {p.data.dtype})")
    if analytic_grads is None:
        for p in params.values():
            p.zero_grad()
        loss = loss_fn()
        loss.backward()
        analytic_grads = {name: p.grad_or_zeros().copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        if size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        flat = p.data.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(loss_fn().data)
            flat[idx] = orig - eps
            f_minus = float(loss_fn().data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = float(analytic_grads[name].reshape(-1)[idx])
            denom = max(abs(analytic) + abs(numeric), denom_floor)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst
