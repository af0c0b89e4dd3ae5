import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protdat import numerics as nx
from protdat.generation import softmax_with_temperature
from protdat.numerics import (
    ROPE_BASE,
    NumericsError,
    Tensor,
    layer_norm,
    masked_attention,
    next_token_cross_entropy,
    rope_rotate,
)
from protdat.tokenizer import MAX_SEQ_TOKENS

from conftest import (finite_difference_grad_check, grad_or_zeros, scale_weights, tiny_model,
                      total)


# -- softmax with temperature -------------------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax_with_temperature(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])


def test_softmax_analytic():
    p = softmax_with_temperature(np.array([math.log(2), 0.0]), 1.0)
    assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_temperature_vs_high_precision():
    logits = [1.0, 2.0, 3.0]
    temp = 0.5
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(x) / temp) for x in logits]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
    p = softmax_with_temperature(np.array(logits), temp)
    assert np.allclose(p, expected, atol=1e-14)


@given(
    st.lists(st.floats(min_value=-12, max_value=12), min_size=1, max_size=12),
    st.floats(min_value=0.25, max_value=5.0),
)
def test_softmax_sums_to_one(logits, temp):
    p = softmax_with_temperature(np.array(logits), temp)
    assert abs(p.sum() - 1.0) < 1e-6
    assert (p > 0).all() and (p <= 1.0).all()


def test_softmax_rejects_bad_input():
    with pytest.raises(NumericsError):
        softmax_with_temperature(np.array([1.0, np.nan]), 1.0)
    for bad in ([1.0, np.inf], [-np.inf, -np.inf]):
        with pytest.raises(NumericsError, match="NaN, \\+inf or no finite logit"):
            softmax_with_temperature(np.array(bad), 1.0)


@pytest.mark.parametrize("temp", [0.4, 1.0, 1.4])
def test_softmax_gives_a_minus_inf_logit_weight_zero(temp):
    logits = np.array([1.5, -np.inf, 0.2, -np.inf, -3.0])
    p = softmax_with_temperature(logits, temp)
    assert p[1] == 0.0 and p[3] == 0.0
    # bitwise what a large finite stand-in for the blocked logits gives
    assert np.array_equal(p, softmax_with_temperature(np.where(np.isinf(logits), -1e30, logits),
                                                      temp))


# -- layer norm ----------------------------------------------------------------


def _ln(x):
    arr = np.asarray(x, dtype=np.float64)
    d = arr.shape[-1] if arr.ndim else 0
    return layer_norm(Tensor(arr), Tensor(np.ones(d)), Tensor(np.zeros(d))).data


def test_layer_norm_constant_vector_is_zero():
    assert np.allclose(_ln([3.0, 3.0, 3.0, 3.0]), 0.0)


def test_layer_norm_already_normalized():
    assert np.allclose(_ln([1.0, -1.0]), [1.0, -1.0], atol=1e-5)


def test_layer_norm_statistics(rng):
    x = rng.normal(size=(5, 32)) * 3 + 1
    y = _ln(x)
    assert np.abs(y.mean(axis=-1)).max() < 1e-5
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4


def test_layer_norm_rejects_empty():
    # ModelConfig's d_model >= 1 keeps this out; past it, the 0/0 is numpy's invalid value
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _ln([])


# -- rotary embedding ------------------------------------------------------------


def test_rope_position_zero_is_identity(rng):
    x = rng.normal(size=(1, 8))
    out = rope_rotate(Tensor(x), 0, 8).data
    assert np.array_equal(out, x)


def test_rope_preserves_row_norms(rng):
    x = rng.normal(size=(6, 16))
    out = rope_rotate(Tensor(x), 0, 8).data
    assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-6)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=37))
@settings(max_examples=30)
def test_rope_relative_position_property(m, n, shift):
    rng = np.random.default_rng(m * 1000 + n * 7 + shift)
    q = rng.normal(size=(1, 8))
    k = rng.normal(size=(1, 8))

    def rot(v, pos):
        return rope_rotate(Tensor(v), pos, 8).data[0]

    d1 = float(rot(q, m) @ rot(k, n))
    d2 = float(rot(q, m + shift) @ rot(k, n + shift))
    assert abs(d1 - d2) < 1e-8


def test_rope_rejects_odd_head_dim(rng):
    # ModelConfig keeps the head dim even; past it, numpy cannot pair the halves
    with pytest.raises(ValueError):
        rope_rotate(Tensor(rng.normal(size=(2, 6))), 0, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("head_dim", [8, 64])
def test_rope_tables_equal_the_per_call_formula(head_dim, dtype):
    """Rotating [1, .., 1, 0, .., 0] gives [cos, sin]: the cached tables match
    the angles computed from the positions alone, bit for bit, at every
    position a model sees, one row at a time and all at once."""
    half = head_dim // 2
    freqs = ROPE_BASE ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)

    def reference(positions):
        ang = positions[:, None].astype(np.float64) * freqs[None, :]
        return np.concatenate([np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)], axis=-1)

    unit = np.concatenate([np.ones(half), np.zeros(half)]).astype(dtype)
    positions = np.arange(MAX_SEQ_TOKENS + 1)
    out = rope_rotate(Tensor(np.tile(unit, (positions.size, 1))), 0, head_dim).data
    assert np.array_equal(out, reference(positions))
    for p in positions:
        row = rope_rotate(Tensor(unit[None]), int(p), head_dim).data
        assert np.array_equal(row, reference(np.array([p])))


# -- masked attention ------------------------------------------------------------


def _naive_attention(q, k, v, visible, n_heads):
    nq, d = q.shape
    nk = k.shape[0]
    hd = d // n_heads
    out = np.zeros((nq, d))
    weights = np.zeros((n_heads, nq, nk))
    for h in range(n_heads):
        qs, ks, vs = (m[:, h * hd : (h + 1) * hd] for m in (q, k, v))
        for i in range(nq):
            scores = [
                (qs[i] @ ks[j]) / math.sqrt(hd) if visible[i, j] else -math.inf
                for j in range(nk)
            ]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            w = [e / z for e in exps]
            weights[h, i] = w
            out[i, h * hd : (h + 1) * hd] = sum(w[j] * vs[j] for j in range(nk))
    return out, weights


def test_attention_single_key_returns_value(rng):
    q = Tensor(rng.normal(size=(4, 8)))
    k = Tensor(rng.normal(size=(1, 8)))
    v = Tensor(rng.normal(size=(1, 8)))
    out, w = masked_attention(q, k, v, None, 2)
    assert np.allclose(out.data, np.tile(v.data, (4, 1)), atol=1e-12)
    assert np.allclose(w, 1.0)


def test_attention_uniform_scores_give_equal_weights():
    q = Tensor(np.zeros((2, 8)))
    k = Tensor(np.ones((4, 8)))
    v = Tensor(np.arange(32, dtype=np.float64).reshape(4, 8))
    _, w = masked_attention(q, k, v, None, 2)
    assert np.allclose(w, 0.25)


def test_attention_matches_naive_reference(rng):
    q = rng.normal(size=(3, 8))
    k = rng.normal(size=(5, 8))
    v = rng.normal(size=(5, 8))
    visible = rng.random((3, 5)) > 0.4
    visible[:, 0] = True
    out, w = masked_attention(Tensor(q), Tensor(k), Tensor(v), visible, 2)
    ref_out, ref_w = _naive_attention(q, k, v, visible, 2)
    assert np.abs(out.data - ref_out).max() < 1e-10
    assert np.abs(w - ref_w).max() < 1e-10


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_attention_equals_naive_on_random_instances(nq, nk, seed):
    rng = np.random.default_rng(seed)
    d, heads = 8, 2
    q = rng.normal(size=(nq, d))
    k = rng.normal(size=(nk, d))
    v = rng.normal(size=(nk, d))
    visible = rng.random((nq, nk)) > 0.35
    visible[:, rng.integers(nk)] = True
    out, w = masked_attention(Tensor(q), Tensor(k), Tensor(v), visible, heads)
    ref_out, ref_w = _naive_attention(q, k, v, visible, heads)
    assert np.abs(out.data - ref_out).max() < 1e-10
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)
    assert (w[:, ~visible] == 0).all()


# The encoders and build_masks give every query row a key; past them, the
# row's softmax is -inf - -inf, numpy's invalid value.
def test_attention_rejects_fully_blocked_row(rng):
    q = Tensor(rng.normal(size=(2, 8)))
    kv = Tensor(rng.normal(size=(3, 8)))
    visible = np.ones((2, 3), dtype=bool)
    visible[1] = False
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        masked_attention(q, kv, kv, visible, 2)


def test_masked_softmax_rejects_a_head_broadcast_mask_with_a_row_that_sees_no_key(rng):
    scores = Tensor(rng.normal(size=(2, 3, 4, 5)))
    visible = np.ones((2, 1, 4, 5), dtype=bool)  # one mask row for all 3 heads
    nx.masked_softmax(scores, visible)
    visible[1, 0, 2] = False
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        nx.masked_softmax(scores, visible)


def test_attention_rejects_bad_shapes(rng):
    q = Tensor(rng.normal(size=(2, 8)))
    k = Tensor(rng.normal(size=(3, 8)))
    with pytest.raises(NumericsError):
        masked_attention(q, k, k, np.ones((2, 4), dtype=bool), 2)
    with pytest.raises(ValueError):  # d % n_heads: ModelConfig's rule, numpy's reshape error
        masked_attention(q, k, k, None, 3)


# -- GELU -----------------------------------------------------------------------


def _gelu_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-approximation GELU and its derivative, in closed form."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)


def test_gelu_float32_matches_float64_closed_form(rng):
    x = np.concatenate([np.linspace(-4.0, 4.0, 401), np.clip(rng.normal(scale=1.5, size=2000), -4, 4)])
    x = x.astype(np.float32)
    out = nx.gelu(Tensor(x, requires_grad=True))
    (dx,) = out._backward(np.ones_like(x))
    assert out.dtype == np.float32 and dx.dtype == np.float32
    want_out, want_dx = _gelu_reference(x.astype(np.float64))
    # atol: a few float32 ulps of the O(1) terms that cancel where tanh nears -1
    np.testing.assert_allclose(out.data, want_out, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(dx, want_dx, rtol=1e-6, atol=1e-6)


def test_gelu_grad_check():
    x = Tensor(np.linspace(-3.0, 3.0, 13), requires_grad=True)
    err = finite_difference_grad_check(lambda: total(nx.gelu(x)), {"x": x}, eps=1e-5, max_coords_per_param=13)
    assert err < 1e-6


# -- buffered kernels equal the plain formulas bit for bit --------------------
# Each reference below is the kernel as written before it reused buffers: the
# same operations on the same operands, each into a fresh array.


def _gelu_formula(x, g):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    dinner = c * (1.0 + 3 * 0.044715 * (x * x))
    dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return 0.5 * x * (1.0 + t), (g * dx,)


def _layer_norm_formula(x, gamma, beta, g):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nx.LAYER_NORM_EPS)
    xhat = xc * inv
    dxhat = g * gamma
    dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * (inv * inv * inv)
    dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(axis=-1, keepdims=True)
    dx = dxhat * inv + dvar * (2.0 / d) * xc + dmu / d
    lead = tuple(range(g.ndim - 1))
    return gamma * xhat + beta, (dx, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def _softmax_formula(s, visible, g):
    if visible is not None:
        s = np.where(np.broadcast_to(visible, s.shape), s, -np.inf)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, (p * (g - (p * g).sum(axis=-1, keepdims=True)),)


def _rope_formula(x, start, head_dim, g):
    d, half, end = x.shape[-1], head_dim // 2, start + x.shape[-2]
    cos, sin = (t[start:end] for t in nx._rope_tables(head_dim, 1 << end.bit_length(), x.dtype))

    def apply(data, sin_):
        chunked = data.reshape(data.shape[:-1] + (d // head_dim, head_dim))
        swapped = np.concatenate([-chunked[..., half:], chunked[..., :half]], axis=-1)
        return (chunked * cos + swapped * sin_).reshape(data.shape)

    return apply(x, sin), (apply(g, -sin),)


def _visible(shape, rng):
    """A random key mask over the last axis in which every query row sees key 0."""
    visible = rng.random(shape) < 0.6
    visible[..., 0] = True
    return visible


# name -> (kernel, reference); each takes the input arrays of ``_kernel_inputs``
BUFFERED_KERNELS = {
    "gelu": (lambda x: nx.gelu(x), _gelu_formula),
    "layer_norm": (lambda x, gamma, beta: layer_norm(x, gamma, beta), _layer_norm_formula),
    "masked_softmax-unmasked": (lambda s: nx.masked_softmax(s, None),
                                lambda s, g: _softmax_formula(s, None, g)),
    "masked_softmax-masked": (lambda s, vis: nx.masked_softmax(s, vis), _softmax_formula),
    "rope_rotate": (lambda x: rope_rotate(x, 5, 8), lambda x, g: _rope_formula(x, 5, 8, g)),
}


def _kernel_inputs(name, shape, dtype, rng):
    """The kernel's arguments: float arrays are Tensor inputs, a bool array is a mask."""
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    if name == "layer_norm":
        d = shape[-1]
        return [x, (1.0 + rng.normal(size=d)).astype(dtype), rng.normal(size=d).astype(dtype)]
    if name == "masked_softmax-masked":
        return [x, _visible(shape, rng)]
    return [x]


def _forward(name, arrays):
    kernel, _ = BUFFERED_KERNELS[name]
    return kernel(*[Tensor(a, requires_grad=True) if a.dtype.kind == "f" else a for a in arrays])


@pytest.mark.parametrize("shape", [(4, 8), (2, 5, 24), (3, 2, 7, 40)], ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("name", sorted(BUFFERED_KERNELS))
def test_buffered_kernel_equals_plain_formula_bitwise(name, dtype, shape, rng):
    arrays = _kernel_inputs(name, shape, dtype, rng)
    g = rng.normal(size=shape).astype(dtype)
    out = _forward(name, arrays)
    grads = out._backward(g)
    want_out, want_grads = BUFFERED_KERNELS[name][1](*arrays, g)
    assert len(grads) == len(want_grads)
    for got, want in zip([out.data, *grads], [want_out, *want_grads]):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(BUFFERED_KERNELS))
def test_buffered_kernel_writes_no_input_gradient_or_saved_array(name, rng):
    """Read-only inputs, ``g`` and output (the softmax backward reads its
    output) make a write into them raise; a second backward pass checks that
    the first left the arrays saved from the forward pass as they were."""
    arrays = _kernel_inputs(name, (2, 3, 16), np.float32, rng)
    g = rng.normal(size=(2, 3, 16)).astype(np.float32)
    for a in [*arrays, g]:
        a.flags.writeable = False
    out = _forward(name, arrays)
    out.data.flags.writeable = False
    out._backward(g)
    grads = out._backward(g)
    _, want_grads = BUFFERED_KERNELS[name][1](*arrays, g)
    for got, want in zip(grads, want_grads):
        assert got.tobytes() == want.tobytes()


def _odd_offset_view(a):
    """A copy of ``a`` that is a view one element into a larger array."""
    view = np.concatenate([np.zeros(1, dtype=a.dtype), a.ravel()])[1:].reshape(a.shape)
    assert not view.flags.owndata
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("name", ["gelu", "layer_norm"])
def test_re_forming_kernel_equals_plain_formula_bitwise_on_views_in_each_backward(name, dtype,
                                                                                  rng):
    """GELU's backward re-forms the tanh term and layer norm's re-forms xhat
    from the arrays their closures keep; with inputs and ``g`` that are views at
    an odd element offset, two backward passes both give the formula's bits."""
    shape = (3, 5, 24)
    arrays = [_odd_offset_view(a) for a in _kernel_inputs(name, shape, dtype, rng)]
    g = _odd_offset_view(rng.normal(size=shape).astype(dtype))
    out = _forward(name, arrays)
    want_out, want_grads = BUFFERED_KERNELS[name][1](*arrays, g)
    _assert_bitwise([out.data], [want_out], dtype)
    for _ in range(2):
        _assert_bitwise(out._backward(g), want_grads, dtype)


def _held_arrays(backward) -> list[np.ndarray]:
    """The distinct arrays a backward closure holds: in its cells, in the
    cells of the closures it calls and in the Tensors it reads."""
    held, stack = {}, [backward]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            held[id(obj)] = obj
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(held.values())


def test_gelu_and_layer_norm_backward_hold_no_array_they_re_form(rng):
    x = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
    gamma, beta = (Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
                   for _ in range(2))
    held = _held_arrays(nx.gelu(x)._backward)
    assert len(held) == 1 and held[0] is x.data  # not the tanh term
    held = _held_arrays(layer_norm(x, gamma, beta)._backward)  # xc, inv and gamma; not xhat
    assert sorted(a.shape for a in held) == [(2, 3, 1), (2, 3, 8), (8,)]
    assert any(a is gamma.data for a in held)
    xc = next(a for a in held if a.shape == x.shape)
    assert xc.tobytes() == np.subtract(x.data, x.data.sum(axis=-1, keepdims=True) / 8).tobytes()


# -- fused primitives against their compositions ----------------------------------


def _output_and_grads(op, arrays, g):
    """``op``'s output and each input's gradient after a full backward pass of
    sum(op(*inputs) * g), so that the bias gradient is summed down as well."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*inputs)
    total(nx.mul(out, Tensor(g))).backward()
    return [out.data, *(t.grad for t in inputs)]


def _assert_bitwise(got, want, dtype):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(5,), (2, 5), (3, 2, 5)], ids=lambda s: f"{len(s) + 1}d")
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
def test_biased_matmul_equals_add_of_matmul_bitwise(dtype, lead, rng):
    arrays = [rng.normal(size=lead + (8,)).astype(dtype), rng.normal(size=(8, 6)).astype(dtype),
              rng.normal(size=6).astype(dtype)]
    g = rng.normal(size=lead + (6,)).astype(dtype)
    fused = _output_and_grads(nx.matmul, arrays, g)
    composed = _output_and_grads(lambda x, w, b: nx.add(nx.matmul(x, w), b), arrays, g)
    _assert_bitwise(fused, composed, dtype)


def _one_op_per_step_attention(q, k, v, mask, n_heads):
    """The composition ``masked_attention`` fuses, one recorded op per step:
    three head splits, the key transpose, scores, scale, softmax, weighted
    values and the head merge."""
    def view_op(x, forward, inverse):
        return nx._make(forward(x.data), (x,), lambda g: (inverse(g),))

    def split(x):
        shape, hd = x.shape, x.shape[-1] // n_heads
        return view_op(x, lambda a: np.swapaxes(a.reshape(shape[:-1] + (n_heads, hd)), -2, -3),
                       lambda g: np.swapaxes(g, -2, -3).reshape(shape))

    def merge(x):
        shape = np.swapaxes(x.data, -2, -3).shape
        return view_op(x, lambda a: np.swapaxes(a, -2, -3).reshape(shape[:-2] + (-1,)),
                       lambda g: np.swapaxes(g.reshape(shape), -2, -3))

    def transpose(x):
        return view_op(x, lambda a: np.swapaxes(a, -1, -2), lambda g: np.swapaxes(g, -1, -2))

    visible = None if mask is None else np.expand_dims(mask, -3)
    scale = Tensor(np.asarray(1.0 / math.sqrt(q.shape[-1] // n_heads), dtype=q.dtype))
    scores = nx.mul(nx.matmul(split(q), transpose(split(k))), scale)
    weights = nx.masked_softmax(scores, visible)
    return merge(nx.matmul(weights, split(v))), weights.data


# (q leading dims, k/v leading dims, mask leading dims)
ATTENTION_LAYOUTS = {
    "2d": ((), (), ()),
    "3d": ((3,), (3,), (3,)),
    "3d-kv-broadcast": ((3,), (), ()),
    "4d": ((3, 2), (3, 2), ()),
    "4d-kv-broadcast-inner": ((3, 2), (3, 1), (2,)),
    "4d-kv-broadcast-outer": ((3, 2), (2,), (3, 2)),
}
# which of q, k, v are parameters; the others are constants
ATTENTION_TRACKING = {"qkv": (True, True, True), "q": (True, False, False),
                      "kv": (False, True, True), "qv": (True, False, True)}


def _attention_results(attend, arrays, tracked, mask, g):
    """Output, weights and every tracked input's gradient after a full
    backward pass of sum(output * g)."""
    inputs = [Tensor(a.copy(), requires_grad=t) for a, t in zip(arrays, tracked)]
    out, weights = attend(*inputs, mask, 2)
    total(nx.mul(out, Tensor(g))).backward()
    assert all(t.grad is None for t in inputs if not t.requires_grad)
    return [out.data, weights, *(t.grad for t in inputs if t.requires_grad)]


@pytest.mark.parametrize("tracking", sorted(ATTENTION_TRACKING))
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("layout", sorted(ATTENTION_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
def test_attention_equals_one_op_per_step_composition_bitwise(dtype, layout, masked, tracking,
                                                              rng):
    q_lead, kv_lead, mask_lead = ATTENTION_LAYOUTS[layout]
    n_q, n_k, d = 5, 6, 12  # head size 6: the scale is not a power of two
    arrays = [rng.normal(size=lead + (n, d)).astype(dtype)
              for lead, n in ((q_lead, n_q), (kv_lead, n_k), (kv_lead, n_k))]
    mask = None
    if masked:
        mask = rng.random(mask_lead + (n_q, n_k)) > 0.4
        mask[..., 0] = True
    g = rng.normal(size=np.broadcast_shapes(q_lead, kv_lead) + (n_q, d)).astype(dtype)
    tracked = ATTENTION_TRACKING[tracking]
    _assert_bitwise(_attention_results(masked_attention, arrays, tracked, mask, g),
                    _attention_results(_one_op_per_step_attention, arrays, tracked, mask, g),
                    dtype)


def test_grad_check_through_a_biased_matmul(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)

    def loss_fn():
        return total(nx.gelu(nx.matmul(x, w, b)))

    assert finite_difference_grad_check(loss_fn, {"x": x, "w": w, "b": b}, eps=1e-5) < 1e-6


def test_no_grad_op_output_is_a_bare_tensor_of_the_op_array(rng):
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    w, b = Tensor(np.ones((4, 3), dtype=np.float32)), Tensor(np.ones(3, dtype=np.float32))
    with nx.no_grad():
        for out in (nx.gelu(x), nx.matmul(x, w, b), masked_attention(x, x, x, None, 2)[0]):
            assert out.grad is None and out.requires_grad is False
            assert out._parents == () and out._backward is None
            assert type(out.data) is np.ndarray and out.dtype == np.float32
        data = np.ones(3, dtype=np.float32)
        assert nx._make(data, (x,), lambda g: (g,)).data is data


# -- cross entropy ------------------------------------------------------------


def test_cross_entropy_perfect_prediction_approaches_zero():
    logits = np.full((1, 3, 5), -1e4)
    targets = np.array([[1, 2, 3]])
    for i, t in enumerate(targets[0]):
        logits[0, i, t] = 1e4
    loss = next_token_cross_entropy(Tensor(logits), targets, ignore_id=0)
    assert float(loss.data) < 1e-8


def test_cross_entropy_uniform_is_log_vocab():
    v = 29
    loss = next_token_cross_entropy(Tensor(np.zeros((2, 4, v))), np.ones((2, 4), dtype=int), 0)
    assert abs(float(loss.data) - math.log(v)) < 1e-12


def test_cross_entropy_two_position_hand_computed():
    logits = np.array([[0.3, -1.2, 2.0], [1.5, 0.0, -0.5]])
    targets = np.array([2, 0])
    expected = 0.0
    for row, t in zip(logits, targets):
        z = row - row.max()
        expected += -(z[t] - math.log(np.exp(z).sum()))
    expected /= 2
    loss = next_token_cross_entropy(Tensor(logits), targets, ignore_id=-1)
    assert abs(float(loss.data) - expected) < 1e-12


def test_cross_entropy_ignores_padding():
    logits = np.random.default_rng(0).normal(size=(2, 3, 7))
    full = next_token_cross_entropy(Tensor(logits[:, :2]), np.array([[1, 2], [3, 4]]), 0)
    padded = next_token_cross_entropy(Tensor(logits), np.array([[1, 2, 0], [3, 4, 0]]), 0)
    assert float(full.data) == pytest.approx(float(padded.data), abs=1e-15)
    t = Tensor(logits, requires_grad=True)
    loss = next_token_cross_entropy(t, np.array([[1, 2, 0], [3, 4, 0]]), 0)
    loss.backward()
    assert (t.grad[:, 2, :] == 0).all()


def test_cross_entropy_rejects_all_ignored():
    # Batch.targets() gives every row a target; past it, the mean is numpy's 0/0
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        next_token_cross_entropy(Tensor(np.zeros((1, 2, 5))), np.zeros((1, 2), dtype=int), 0)


# -- gradient checking ----------------------------------------------------------


def test_grad_check_quadratic_is_exact():
    theta = Tensor(np.array([0.5, -1.5, 2.0, 3.0]), requires_grad=True)

    def loss_fn():
        return nx.mul(total(nx.mul(theta, theta)), Tensor(0.5))

    err = finite_difference_grad_check(loss_fn, {"theta": theta}, eps=1e-5)
    assert err < 1e-8


def test_grad_check_single_layer_model():
    params, _, batch = tiny_model(records=None)
    scale_weights(params, 12.0)

    def loss_fn():
        from protdat.model import model_forward

        logits, _ = model_forward(batch, params)
        return next_token_cross_entropy(logits, batch.targets(), ignore_id=batch.pad_id)

    sub = dict(list(dict(params.named_parameters()).items())[:20])
    err = finite_difference_grad_check(loss_fn, sub, eps=1e-5, max_coords_per_param=3, seed=2)
    assert err < 1e-4


def test_grad_check_detects_corrupted_gradient():
    theta = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

    def corrupted_square(x):
        def backward(g):
            dx = 2.0 * x.data * g
            dx[1] *= 2.0  # wrong in one entry
            return (dx,)

        return nx._make(x.data * x.data, (x,), backward)

    def loss_fn():
        return nx.mul(total(corrupted_square(theta)), Tensor(0.5))

    err = finite_difference_grad_check(loss_fn, {"theta": theta}, eps=1e-5)
    assert err > 1e-2


def test_grad_check_rejects_bad_eps():
    theta = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(NumericsError):
        finite_difference_grad_check(lambda: total(theta), {"t": theta}, eps=1e-3)


# -- engine odds and ends ---------------------------------------------------------


def test_backward_requires_scalar(rng):
    t = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with pytest.raises(NumericsError):
        nx.mul(t, Tensor(2.0)).backward()


def test_backward_on_a_leaf_sets_a_unit_gradient():
    leaf = Tensor(np.array(3.0), requires_grad=True)
    leaf.backward()
    assert leaf.grad == 1.0 and leaf.grad.shape == ()


def test_unused_parameter_reads_zero_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    loss = total(nx.mul(used, used))
    loss.backward()
    assert unused.grad is None
    assert np.array_equal(grad_or_zeros(unused), np.zeros(3))


def test_gradient_array_shared_by_two_parents_is_never_written_through():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    # the outer add hands one array to p and to the inner add, which hands it on to p and q
    total(nx.add(nx.add(p, q), p)).backward()
    assert np.array_equal(p.grad, np.full(3, 2.0))
    assert np.array_equal(q.grad, np.ones(3))
    p.zero_grad()
    q.zero_grad()
    total(nx.add(p, q)).backward()
    assert np.shares_memory(p.grad, q.grad)  # the case under test: one array, two parameters
    total(nx.add(p, q)).backward()  # a second contribution to both
    assert np.array_equal(p.grad, np.full(3, 2.0))
    assert np.array_equal(q.grad, np.full(3, 2.0))


def test_no_grad_skips_graph(rng):
    t = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with nx.no_grad():
        out = total(nx.mul(t, t))
    assert out._parents == ()


def test_embedding_rejects_out_of_range():
    # the vocabulary and the word encoder make ids below the table's rows; past them, numpy raises
    with pytest.raises(IndexError):
        nx.embedding(Tensor(np.zeros((4, 2))), np.array([0, 4]))


# Every primitive, applied to a (2, 4) input ``x``; ``const`` makes its other
# inputs, which are constants.
PRIMITIVES = {
    "add": lambda x, const: nx.add(x, const(1.0)),
    "mul": lambda x, const: nx.mul(x, const(2.0)),
    "matmul": lambda x, const: nx.matmul(x, const(np.ones((4, 3)))),
    "matmul-bias": lambda x, const: nx.matmul(x, const(np.ones((4, 3))), const(np.ones(3))),
    "concat": lambda x, const: nx.concat([x, const(np.ones((1, 4)))], axis=0),
    "embedding": lambda x, const: nx.embedding(x, np.array([1, 0, 1])),
    "gelu": lambda x, const: nx.gelu(x),
    "layer_norm": lambda x, const: layer_norm(x, const(np.ones(4)), const(np.zeros(4))),
    "masked_softmax": lambda x, const: nx.masked_softmax(x, None),
    "masked_attention": lambda x, const: masked_attention(
        x, const(np.linspace(-1.0, 1.0, 12).reshape(3, 4)),
        const(np.linspace(1.0, -1.0, 12).reshape(3, 4)), None, 2)[0],
    "rope_rotate": lambda x, const: rope_rotate(x, 0, 4),
    "next_token_cross_entropy": lambda x, const: next_token_cross_entropy(x, np.array([1, 3]), 0),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_op_output_records_graph_only_for_tracked_inputs_in_grad_mode(name, rng):
    constants = []

    def const(value):
        constants.append(Tensor(np.asarray(value, dtype=np.float64)))
        return constants[-1]

    op = PRIMITIVES[name]
    data = rng.normal(size=(2, 4))
    x = Tensor(data, requires_grad=True)
    out = op(x, const)
    assert out._parents and out._backward is not None
    total(out).backward()  # the recorded closure reaches this very output's grad
    assert x.grad is not None and x.grad.shape == (2, 4)
    assert all(c.grad is None for c in constants)  # untracked inputs get no gradient
    with nx.no_grad():
        out = op(Tensor(data, requires_grad=True), const)
    assert out._parents == () and out._backward is None
    out = op(Tensor(data), const)
    assert out._parents == () and out._backward is None


def test_mul_computes_no_gradient_for_a_constant(rng):
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    out = PRIMITIVES["mul"](x, lambda value: Tensor(np.asarray(value, dtype=np.float64)))
    dx, dconst = out._backward(np.ones((2, 4)))
    assert dconst is None
    assert np.array_equal(dx, np.full((2, 4), 2.0))


def test_attention_computes_no_gradient_for_constant_keys_and_values(rng):
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    out = PRIMITIVES["masked_attention"](x, lambda value: Tensor(np.asarray(value)))
    weights, _ = out._parents
    (scores,) = weights._parents
    assert len(scores._parents) == 2 and scores._parents[0] is x
    dweights, dv = out._backward(np.ones((2, 4)))
    assert dv is None and dweights.shape == (2, 2, 3)
    dq, dk = scores._backward(np.ones((2, 2, 3)))
    assert dk is None and dq.shape == (2, 4)


def test_matmul_computes_no_gradient_for_a_constant(rng):
    def const(value):
        return Tensor(np.asarray(value, dtype=np.float64))

    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = nx.matmul(const(np.ones((2, 4))), w)
    dconst, dw = out._backward(np.ones((2, 3)))
    assert dconst is None
    assert np.array_equal(dw, np.full((4, 3), 2.0))
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    dx, dconst = PRIMITIVES["matmul"](x, const)._backward(np.ones((2, 3)))
    assert dconst is None
    assert np.array_equal(dx, np.full((2, 4), 3.0))


def test_backward_keeps_gradients_only_on_parameters():
    from protdat.model import model_forward

    params, _, batch = tiny_model()
    logits, _ = model_forward(batch, params)
    loss = next_token_cross_entropy(logits, batch.targets(), ignore_id=batch.pad_id)
    # collected before backward(), which releases every link it walks
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    interior = [n for n in nodes if n._parents]
    loss.backward()
    assert interior and all(n.grad is None for n in interior)
    assert all(n._parents == () and n._backward is None for n in interior)
    reached = {id(n) for n in nodes if n.requires_grad}
    with_grad = {id(p) for _, p in params.named_parameters() if p.grad is not None}
    assert with_grad == reached


# Whether a primitive's backward reads its input's array: GELU's re-forms its
# tanh term from it rather than keep the term.  Each of the others keeps what
# it reads from its own forward pass; layer norm keeps xc and inv, and re-forms
# xhat from them.  A matmul reads its left operand only for the gradient of its
# right one, here a constant.  The graph must keep the input's array alive for
# a backward that reads it, and for no other.
BACKWARD_READS_INPUT = {"add": False, "concat": False, "layer_norm": False,
                        "masked_softmax": False, "rope_rotate": False, "gelu": True,
                        "matmul": False, "matmul-bias": False}


@pytest.mark.parametrize("name", sorted(BACKWARD_READS_INPUT))
def test_graph_keeps_an_op_outputs_array_only_for_a_backward_that_reads_it(name, rng):
    def const(value):
        return Tensor(np.asarray(value, dtype=np.float64))

    data = rng.normal(size=(2, 4))
    grads = []
    for drop in (False, True):
        x = Tensor(data, requires_grad=True)
        y = nx.add(x, const(0.5))  # an op output held by this frame alone
        out = PRIMITIVES[name](y, const)
        if drop:
            array = weakref.ref(y.data)
            del y
            assert (array() is not None) == BACKWARD_READS_INPUT[name]
            assert out._parents and out._backward is not None  # out's graph lives
        total(out).backward()
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def _gelu_or_layer_norm(name, x, dtype=np.float64):
    if name == "gelu":
        return nx.gelu(x), ()
    d = x.shape[-1]
    # views at an odd offset, as x may be
    gamma = Tensor(np.linspace(0.5, 1.5, d + 1).astype(dtype)[1:], requires_grad=True)
    beta = Tensor(np.linspace(-0.2, 0.3, d + 1).astype(dtype)[1:], requires_grad=True)
    return layer_norm(x, gamma, beta), (gamma, beta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["gelu", "layer_norm"])
def test_a_reformed_gelu_or_layer_norm_output_equals_the_forwards_bitwise(name, dtype, rng):
    base = (3.0 * rng.normal(size=3 * 5 * 37 + 1)).astype(dtype)
    x = Tensor(base[1:].reshape(3, 5, 37), requires_grad=True)  # a view at an odd offset
    y, _ = _gelu_or_layer_norm(name, x, dtype)
    reformed = y._node.output()
    assert reformed is not y.data and reformed.dtype == dtype
    assert reformed.tobytes() == y.data.tobytes()
    assert y._node.output() is reformed  # one re-form serves every consumer


@pytest.mark.parametrize("name", ["gelu", "layer_norm"])
def test_graph_keeps_no_gelu_or_layer_norm_output_for_the_matmuls_that_read_it(
        name, rng, monkeypatch):
    data, w_data = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    tanh, tanh_calls = np.tanh, []
    monkeypatch.setattr(np, "tanh", lambda *a, **k: tanh_calls.append(1) or tanh(*a, **k))
    grads = []
    for keep in (True, False):
        x = Tensor(data, requires_grad=True)
        w, b = Tensor(w_data, requires_grad=True), Tensor(np.ones(5), requires_grad=True)
        y, norm = _gelu_or_layer_norm(name, x)
        reform, reforms = y._node._reform, []
        # keep: the matmuls keep y's array, as they keep any other op's output
        y._node._reform = None if keep else (lambda: reforms.append(1) or reform())
        out = nx.add(nx.matmul(y, w, b), nx.matmul(y, w))  # two consumers, as q/k/v share one
        array = weakref.ref(y.data)
        del y
        assert (array() is not None) == keep
        tanh_calls.clear()
        total(out).backward()
        assert len(reforms) == (0 if keep else 1)
        # GELU's backward takes the tanh term its re-form formed, or forms it itself
        assert len(tanh_calls) == (name == "gelu")
        grads.append([p.grad.tobytes() for p in (x, w, b, *norm)])
    assert grads[0] == grads[1]


def test_matmul_records_a_closure_that_holds_no_input_tensor(rng):
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    for a in (x, nx.add(x, x), nx.gelu(x)):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = nx.matmul(a, w, Tensor(np.ones(3), requires_grad=True))
        assert not any(isinstance(cell.cell_contents, Tensor) for cell in out._backward.__closure__)
        total(out).backward()


def test_a_second_backward_through_a_released_graph_raises(rng):
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    y = nx.gelu(x)
    loss, other = total(y), total(nx.layer_norm(y, Tensor(np.ones(4)), Tensor(np.zeros(4))))
    loss.backward()
    first = x.grad
    with pytest.raises(NumericsError, match="released"):
        loss.backward()
    with pytest.raises(NumericsError, match="released"):  # a root that shares released nodes
        other.backward()
    with pytest.raises(NumericsError, match="released"):  # a graph built on a released output
        total(nx.add(y, y)).backward()
    assert x.grad is first  # no gradient added twice
