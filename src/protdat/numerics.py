"""Dense-tensor math with reverse-mode differentiation.

Everything the network needs is built from a small set of differentiable
primitives over numpy arrays: broadcast arithmetic, (batched) matmul,
masked softmax, layer normalization, rotary position embedding, embedding
lookup, GELU and next-token cross-entropy.

Each primitive records, through ``_make``, a vector-Jacobian product
``backward(g)``: given the gradient ``g`` of the op's output it returns one
gradient per parent, in parent order, or None for a parent that is not
tracked.  A returned gradient may still carry the broadcast axes of the
output; ``Tensor.backward()`` walks the graph in reverse topological order
and is the one place that sums each gradient down to its parent's shape
and accumulates it, out of place, skipping parents that are not tracked.
No gradient array is ever written in place, so one array may reach several
parents (``add`` returns ``g`` twice).  An op output releases its gradient
once it has been propagated, so after ``backward()`` only parameters hold
one.  A closure reads only its inputs and arrays saved from the forward
pass, never the output Tensor, so a graph holds no reference cycle and is
freed as soon as the loss is dropped.

Precision is carried by the underlying arrays: float32 for training speed,
float64 for gradient checks.  Integer powers of float32 arrays are written
as products; numpy's generic ``pow`` is far slower.  Attention masks are
specified behaviorally (blocked entries have exactly-zero post-softmax
weight) and realized additively with -inf logits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

ROPE_BASE = 10000.0
LAYER_NORM_EPS = 1e-5
GRAD_CHECK_DENOM_FLOOR = 1e-6


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
    An op output's ``.grad`` is dropped again once ``backward()`` has
    propagated it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
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
        g = g.astype(self.data.dtype, copy=False)
        self.grad = g if self.grad is None else self.grad + g

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
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if _tracked(parent):
                    parent._accumulate(_unbroadcast(g, parent.shape))
            node.grad = None  # nothing reads it once it has been propagated


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64 if dtype is None else dtype)
    return Tensor(arr)


def _tracked(t: Tensor) -> bool:
    """Whether gradients flow into ``t``: a parameter, or an op output that
    recorded its graph."""
    return t.requires_grad or bool(t._parents)


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Tensor:
    """The output of an op: it keeps its parents and ``backward`` only when
    grad mode is on and some parent is tracked.

    ``backward(g)`` is the op's vector-Jacobian product: it takes the
    gradient of the output and returns one gradient per parent, in parent
    order, each of the parent's shape or of the shape the parent was
    broadcast to; it may return None for a parent that is not tracked.  It
    must not refer to the output Tensor, which would make the graph a
    reference cycle, and must not write to ``g``, which it may pass on as is.
    """
    if _grad_enabled and any(_tracked(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# -- elementwise and structural primitives ---------------------------------


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands; one that is not a Tensor takes the dtype
    of the Tensor operand, so a Python float cannot promote float32 data to
    float64 (NumPy 2 promotes float32 with a 0-d float64 array)."""
    if isinstance(a, Tensor):
        return a, as_tensor(b, a.dtype)
    b = as_tensor(b)
    return as_tensor(a, b.dtype), b


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def backward(g):
        # constants (the attention scale, the text mask) get no gradient
        return (g * b.data if _tracked(a) else None, g * a.data if _tracked(b) else None)

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a @ b`` with numpy broadcasting of batch dims."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        # a constant operand (the precomputed text embedding) gets no gradient
        return (g @ np.swapaxes(b.data, -1, -2) if _tracked(a) else None,
                np.swapaxes(a.data, -1, -2) @ g if _tracked(b) else None)

    return _make(a.data @ b.data, (a, b), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(out_data, tensors, lambda g: np.split(g, bounds, axis=axis))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2D table; gradient scatter-adds back into the rows."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise NumericsError("embedding table must be 2D")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise NumericsError("embedding ids out of range")

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dtable,)

    return _make(table.data[ids], (table,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (as in GPT-style stacks)."""
    x = as_tensor(x)
    c = math.sqrt(2.0 / math.pi)
    inner = c * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(inner)

    def backward(g):
        dinner = c * (1.0 + 3 * 0.044715 * (x.data * x.data))
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * dinner
        return (g * dx,)

    return _make(0.5 * x.data * (1.0 + t), (x,), backward)


# -- normalization, softmax, attention --------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise NumericsError("layer_norm: empty vector")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise NumericsError("layer_norm: gamma/beta must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv

    def backward(g):
        dxhat = g * gamma.data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * (inv * inv * inv)
        dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(axis=-1, keepdims=True)
        dx = dxhat * inv + dvar * (2.0 / d) * xc + dmu / d
        lead = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _make(gamma.data * xhat + beta.data, (x, gamma, beta), backward)


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
    return _make(p, (scores,), lambda g: (p * (g - (p * g).sum(axis=-1, keepdims=True)),))


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

    return _make(apply(x.data, sin), (x,), lambda g: (apply(g, -sin),))


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
    plain array for tracing.  The weights are the softmax output itself,
    which its backward pass reads: callers must not write to them.
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
    return merge_heads(matmul(weights, vh)), weights.data


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


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

    def backward(g):
        p = np.exp(flat - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(flat.shape[0]), np.where(keep, tgt, 0)] -= 1.0
        p[~keep] = 0.0
        return ((float(g) / n_keep) * p.reshape(logits.shape),)

    return _make(out_data, (logits,), backward)


def finite_difference_grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int = 8,
    seed: int = 0,
    analytic_grads: dict[str, np.ndarray] | None = None,
) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` must be a deterministic function of the current parameter
    values.  Coordinates are sampled per parameter (all of them when the
    tensor is small).  Returns the worst relative error
    |analytic - numeric| / max(|analytic| + |numeric|, GRAD_CHECK_DENOM_FLOOR);
    the floor keeps gradients below the difference quotient's own resolution
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
            denom = max(abs(analytic) + abs(numeric), GRAD_CHECK_DENOM_FLOOR)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst
