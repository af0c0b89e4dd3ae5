"""Dense-tensor math with reverse-mode differentiation.

Everything the network needs is built from a small set of differentiable
primitives over numpy arrays: broadcast arithmetic, (batched) matmul,
masked softmax, layer normalization, rotary position embedding, embedding
lookup, GELU and next-token cross-entropy.  A linear layer is one
``matmul`` that adds its bias into the product in place, and attention
records three ops (scaled scores, masked softmax, merged weighted values),
so a one-row decode token, which writes its key and value rows into a
preallocated buffer, runs 16 ops per layer.

Every primitive takes Tensors and returns one.  ``_make`` builds each op
output bare, around the op's own array, and gives it a graph node only
when it records a graph; the constructor ``Tensor(...)``, the one place
that coerces (``np.asarray`` and a float dtype), is for leaves and constants.
No op re-checks a shape or range rule that ``ModelConfig``, the parameter
tree, the encoders or batch assembly own where values enter; attention
checks only that its mask fits its queries and keys.
The graph is kept apart from the data: a node links to its parents' nodes
(a parameter is its own leaf), not to their arrays, so a graph keeps only
the arrays its backward closures read, and an op output's array is freed
as soon as the forward code drops the output unless a closure saved it.

Each primitive records, through ``_make``, a vector-Jacobian product
``backward(g)``: given the gradient ``g`` of the op's output it returns one
gradient per parent, in parent order, tracked or not, except that ``matmul``
returns None for a constant left operand (the precomputed text rows, the only
constant that reaches a recorded op in the model).  A returned gradient
may still carry the broadcast axes of the output; ``Tensor.backward()`` walks
the graph in reverse topological order and is the one place that sums each
gradient down to its parent's shape and accumulates it, out of place, and
that drops the gradients of parents that are not tracked.
No gradient array is ever written in place, so one array may reach several
parents (``add`` returns ``g`` twice).  ``backward()`` releases each node,
its gradient, its closure and its links, once it has propagated, so after
it only parameters hold gradients, and a graph serves one ``backward()``.
A closure reads only its inputs and arrays saved from the forward pass,
never the output Tensor, so a graph holds no reference cycle and is freed
as soon as the loss is dropped.

The elementwise kernels (GELU, layer norm, masked softmax, rotary) write
their full-size intermediates with ``out=`` and in-place ufuncs, and only
into buffers they allocated themselves: a kernel never writes into ``g``,
into an input's ``.data`` (an unmasked softmax's scores are another op's
output) or into an array saved for the backward pass.  Each applies the
same operations to the same operands in the same order as the plain
expression it replaces, so its results equal that expression's bit for bit.
A closure re-forms, rather than keeps, an intermediate that its kept arrays
give back bit for bit through the forward's own calls: layer norm's ``xhat``
from ``xc`` and ``inv``, GELU's tanh term from its input.  The rule crosses
op boundaries too: GELU and layer norm give their output's node a re-form
function built on what their closures keep, and ``matmul`` keeps that node
instead of its left operand's array, re-forming the array only for its
weight gradient.  One re-form serves every consumer of an output (q, k and v
share their layer norm's), and GELU's hands its tanh term to GELU's own
backward, which runs next.  On a mid-config training step (batch of 10
records of 96-128 residues) this cut the bytes a forward pass leaves alive
from 63.6 to 44.9 MB and the step's tracemalloc peak from 71.4 to 55.4 MB
(``scripts/census.py``).  A no-grad pass records no node and re-forms nothing.

Precision is carried by the underlying arrays: float32 for training speed,
float64 for gradient checks.  Integer powers of float32 arrays are written
as products; numpy's generic ``pow`` is far slower.  Attention masks are
specified behaviorally (blocked entries have exactly-zero post-softmax
weight) and realized additively with -inf logits.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

ROPE_BASE = 10000.0
LAYER_NORM_EPS = 1e-5


class NumericsError(ValueError):
    """Raised for a mask of another shape, a misused ``backward()`` or non-finite logits."""


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

    ``requires_grad`` marks leaf parameters; gradients accumulate into their
    ``.grad`` (None until the first contribution; unused parameters therefore
    read as zero).  An op output that records a graph keeps its place in it
    in a ``_Node``; ``_parents`` and ``_backward`` read through to it, and
    assigning ``_backward`` replaces what ``backward()`` calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable[[np.ndarray], Sequence[np.ndarray]] | None:
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward: Callable[[np.ndarray], Sequence[np.ndarray]]) -> None:
        self._node._backward = backward

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph,
        releasing each node, with the arrays its closure saved, once it has
        propagated; a second call through a released graph raises."""
        if self.data.size != 1:
            raise NumericsError("backward() requires a scalar output")
        if self._node is None:  # a leaf, or an output that recorded no graph
            self.grad = np.ones_like(self.data)
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is None:
                raise NumericsError("backward(): the graph was released by an earlier "
                                    "backward(); run the forward pass again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if type(p) is _Node and id(p) not in seen:
                    stack.append((p, False))
        self._node.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            parents, backward, g = node._parents, node._backward, node.grad
            node._parents, node._backward, node.grad = (), None, None
            node._reform = node._reformed = None
            if g is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if type(parent) is _Node or parent.requires_grad:
                    pg = _unbroadcast(pg, parent.shape).astype(parent.dtype, copy=False)
                    # out of place: a gradient array may be shared by several parents
                    parent.grad = pg if parent.grad is None else parent.grad + pg


class _Node:
    """An op output's place in the graph, without its array: links to its
    parents (a parent's ``_Node``, or the parent Tensor itself when that is a
    leaf), its backward closure, its gradient while ``backward()`` runs, its
    shape, its dtype and, for an op that can rebuild its output bit for bit
    from what its closure keeps (gelu, layer_norm), that re-form function.
    ``backward()`` empties it once it has propagated."""

    __slots__ = ("_parents", "_backward", "grad", "shape", "dtype", "_reform", "_reformed")
    requires_grad = False

    def __init__(self, parents: tuple, backward, shape: tuple[int, ...], dtype, reform=None):
        self._parents, self._backward, self.grad = parents, backward, None
        self.shape, self.dtype = shape, dtype
        self._reform, self._reformed = reform, None

    def output(self) -> np.ndarray:
        """The op output's array, re-formed by the first consumer that asks and
        shared with the others; it is dropped when this node propagates, which
        is after every consumer has."""
        if self._reformed is None:
            self._reformed = self._reform()
        return self._reformed


def _tracked(t: Tensor) -> bool:
    """Whether gradients flow into ``t``: a parameter, or an op output that
    recorded a graph (a released one included, so that a new graph built on
    it fails in ``backward()`` rather than leaving gradients out)."""
    return t.requires_grad or t._node is not None


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray]],
    reform: Callable[[], np.ndarray] | None = None,
) -> Tensor:
    """The output of an op: it records a ``_Node`` linking to its parents,
    ``backward`` and ``reform`` only when grad mode is on and some parent is
    tracked.

    ``backward(g)`` is the op's vector-Jacobian product: it takes the
    gradient of the output and returns one gradient per parent, in parent
    order, each of the parent's shape or of the shape the parent was
    broadcast to, for a parent that is not tracked too (``backward()`` drops
    it); only ``matmul`` returns None, for a constant left operand.  It
    must not refer to the output Tensor, which would make the graph a
    reference cycle, and must not write to ``g``, which it may pass on as is.

    The node links to its parents' nodes, not to their arrays, so a graph
    keeps only the arrays its closures read, and an op output's array is
    freed when the forward code drops the output.  A closure therefore
    captures the arrays and shapes it reads, not input Tensors it reads
    nothing of.  ``reform()``, if given, returns a new array equal bit for bit
    to ``data``, built from what ``backward`` keeps, so that a consumer
    (``matmul``) need not keep ``data`` itself.
    """
    # built bare: every op yields a float ndarray, so __init__'s asarray and
    # dtype check would do nothing
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out._node = data, None, False, None
    if _grad_enabled and any(_tracked(p) for p in parents):
        out._node = _Node(tuple(p if p._node is None else p._node for p in parents), backward,
                          data.shape, data.dtype, reform)
    return out


# -- elementwise and structural primitives ---------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Batched matrix product ``a @ b`` with numpy broadcasting of batch dims,
    plus ``bias`` (a linear layer's) added into the fresh product in place.
    For ``db = aᵀ @ g`` it keeps ``a``'s array, or, when ``a``'s node can
    re-form it (a gelu or layer_norm output), the node.  A constant ``a``
    (the precomputed text rows) gets no gradient, which saves a GEMM."""
    out = a.data @ b.data
    if bias is not None:
        out += bias.data
    # decided now, so that the closure holds no input Tensor
    a_node, has_bias = a._node, bias is not None
    b_kept = b.data if a.requires_grad or a_node is not None else None
    a_kept = a.data if a_node is None or a_node._reform is None else a_node

    def backward(g):
        da = None if b_kept is None else g @ np.swapaxes(b_kept, -1, -2)
        db = np.swapaxes(a_kept.output() if type(a_kept) is _Node else a_kept, -1, -2) @ g
        return (da, db, g) if has_bias else (da, db)

    return _make(out, (a, b) if bias is None else (a, b, bias), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        return np.split(g, np.cumsum(sizes)[:-1], axis=axis)

    return _make(out_data, tensors, backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2D table by ids in [0, rows); gradient scatter-adds into the rows."""

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dtable,)

    return _make(table.data[ids], (table,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (as in GPT-style stacks)."""
    c = math.sqrt(2.0 / math.pi)
    xd = x.data
    kept_t = None  # the tanh term a re-form formed, which the backward takes over

    def tanh_term() -> np.ndarray:
        # t = tanh(c * (x + 0.044715 * (x * x * x)))
        t = np.multiply(xd, xd)
        t *= xd
        t *= 0.044715
        np.add(xd, t, out=t)
        t *= c
        return np.tanh(t, out=t)

    def output(t: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.add(t, 1.0, out=out)  # 0.5 * x * (1 + t)
        out *= np.multiply(xd, 0.5)
        return out

    def reform() -> np.ndarray:
        # a matmul's backward asks for this just before this op's backward runs
        nonlocal kept_t
        kept_t = tanh_term()
        return output(kept_t, np.empty_like(kept_t))

    def backward(g):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * (c * (1 + 3 * 0.044715 * (x * x)))
        nonlocal kept_t
        t, kept_t = (tanh_term() if kept_t is None else kept_t), None
        dx = np.multiply(xd, 0.5)
        tmp = np.multiply(t, t)
        np.subtract(1.0, tmp, out=tmp)
        dx *= tmp
        np.multiply(xd, xd, out=tmp)
        tmp *= 3 * 0.044715
        tmp += 1.0
        tmp *= c
        dx *= tmp
        np.add(t, 1.0, out=tmp)
        tmp *= 0.5
        dx += tmp
        dx *= g
        return (dx,)

    t = tanh_term()
    return _make(output(t, t), (x,), backward, reform)


# -- normalization, softmax, attention --------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the non-empty last axis to mean 0, variance 1; scale+shift by its gamma, beta."""
    d = x.shape[-1]
    # sum / d rather than mean: bitwise equal, without numpy's Python-level _mean
    xc = np.subtract(x.data, x.data.sum(axis=-1, keepdims=True) / d)
    sq = np.multiply(xc, xc)
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)

    def reform(out: np.ndarray | None = None) -> np.ndarray:
        # gamma * xhat + beta, all in xhat's buffer
        out = np.multiply(xc, inv, out=out)
        np.multiply(gamma.data, out, out=out)
        out += beta.data
        return out

    def backward(g):
        dxhat = np.multiply(g, gamma.data)
        dx = np.multiply(dxhat, xc)
        dvar = dx.sum(axis=-1, keepdims=True) * (-0.5) * (inv * inv * inv)
        np.multiply(dxhat, inv, out=dx)
        dmu = -dx.sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(axis=-1, keepdims=True)
        # dx = dxhat * inv + dvar * (2 / d) * xc + dmu / d
        np.multiply(dvar * (2.0 / d), xc, out=dxhat)
        dx += dxhat
        dx += dmu / d
        lead = tuple(range(g.ndim - 1))
        xhat = np.multiply(xc, inv, out=dxhat)  # the forward's xhat, bit for bit
        return dx, np.multiply(g, xhat, out=xhat).sum(axis=lead), g.sum(axis=lead)

    return _make(reform(sq), (x, gamma, beta), backward, reform)


def masked_softmax(scores: Tensor, visible: np.ndarray | None) -> Tensor:
    """Softmax over the last axis; blocked entries get exactly-zero weight.

    ``visible`` is a boolean array broadcastable to ``scores.shape`` (True
    means the key may be attended to); every row shows a key, since the encoders
    reject an empty text and ``build_masks`` always shows the slot columns.
    """
    if visible is None:
        p = scores.data - scores.data.max(axis=-1, keepdims=True)
    else:
        p = np.where(np.broadcast_to(visible, scores.shape), scores.data, -np.inf)
        p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        # p * (g - (p * g).sum(-1))
        dx = np.multiply(p, g)
        np.subtract(g, dx.sum(axis=-1, keepdims=True), out=dx)
        dx *= p
        return (dx,)

    return _make(p, (scores,), backward)


@functools.lru_cache(maxsize=16)
def _rope_tables(head_dim: int, n_positions: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rotary (cos, sin) of shape (n_positions, 1, head_dim) in ``dtype``,
    each angle once per chunk half; axis 1 broadcasts over head chunks."""
    freqs = ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
    ang = np.arange(n_positions, dtype=np.float64)[:, None, None] * np.tile(freqs, 2)
    cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def rope_rotate(x: Tensor, start: int, head_dim: int) -> Tensor:
    """Rotary position embedding over the last axis, per head-sized chunk.

    Pairs dimension i with i + head_dim/2 inside each chunk and rotates the
    pair in row r by ``(start + r) * base**(-2i/head_dim)``.  Row norms are
    preserved; query/key products depend only on position differences.
    ``head_dim`` is even and divides the last axis (``ModelConfig``); start >= 0.
    """
    d = x.shape[-1]
    half, end = head_dim // 2, start + x.shape[-2]
    # a power-of-two table length, so that decoding one row at a time reuses few tables
    tables = _rope_tables(head_dim, 1 << int(end).bit_length(), x.dtype)
    cos, sin = (t[start:end] for t in tables)

    def apply(data: np.ndarray, sin_: np.ndarray) -> np.ndarray:
        """(x1, x2) -> (x1 cos - x2 sin, x2 cos + x1 sin) in each chunk."""
        chunked = data.reshape(data.shape[:-1] + (d // head_dim, head_dim))
        swapped = np.empty_like(chunked)
        np.negative(chunked[..., half:], out=swapped[..., :half])
        swapped[..., half:] = chunked[..., :half]
        swapped *= sin_
        out = chunked * cos
        out += swapped
        return out.reshape(data.shape)

    return _make(apply(x.data, sin), (x,), lambda g: (apply(g, -sin),))


def masked_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    n_heads: int,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled-dot-product attention with visibility masking.

    q: (..., n_q, d), k/v: (..., n_k, d), d divisible by ``n_heads``; mask None
    (every key visible) or a boolean array whose last two dims, checked here,
    are (n_q, n_k) and whose leading dims broadcast against q's.  Returns
    the re-concatenated output (..., n_q, d) and per-head weights
    (..., H, n_q, n_k) as a plain array for tracing: the softmax output
    itself, which its backward pass reads, so callers must not write to it.
    It records three ops, the scaled scores, ``masked_softmax`` and the
    merged weighted values, equal bit for bit to one op per step.
    """
    d = q.shape[-1]
    if mask is not None and mask.shape[-2:] != (q.shape[-2], k.shape[-2]):
        raise NumericsError(f"masked_attention: mask shape {mask.shape[-2:]} != "
                            f"({q.shape[-2]}, {k.shape[-2]})")
    # a head axis, so that one mask serves all heads
    visible = None if mask is None else np.expand_dims(mask, -3)

    def heads(x: np.ndarray) -> np.ndarray:  # (..., n, d) -> (..., H, n, d/H), a view
        return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, d // n_heads)), -2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # (..., H, n, d/H) -> (..., n, d)
        return np.swapaxes(x, -2, -3).reshape(x.shape[:-3] + (x.shape[-2], d))

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scale = np.asarray(1.0 / math.sqrt(d // n_heads), dtype=q.dtype)
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= scale

    def scores_backward(g):
        g = g * scale
        return merge(g @ kh), merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ g, -1, -2))

    weights = masked_softmax(_make(scores, (q, k), scores_backward), visible)
    p = weights.data

    def out_backward(g):
        gh = heads(g)
        return gh @ np.swapaxes(vh, -1, -2), merge(np.swapaxes(p, -1, -2) @ gh)

    return _make(merge(p @ vh), (weights, v), out_backward), p


# -- loss --------------------------------------------------------------------


def next_token_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int) -> Tensor:
    """Mean -log p(target) over positions whose target is not ``ignore_id``.

    logits: (..., V); targets: of the leading shape, each row's first not ``ignore_id``.
    """
    flat = logits.data.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    keep = tgt != ignore_id
    n_keep = int(keep.sum())
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
