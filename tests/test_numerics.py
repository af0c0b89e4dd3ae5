import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protdat import numerics as nx
from protdat.numerics import (
    NumericsError,
    Tensor,
    finite_difference_grad_check,
    layer_norm,
    masked_attention,
    next_token_cross_entropy,
    rope_rotate,
    softmax_with_temperature,
)

from conftest import scale_weights, tiny_model


def total(x: Tensor) -> Tensor:
    """The sum of the entries of ``x``, as a scalar op output to call backward on."""
    flat = nx.reshape(x, (1, -1))
    ones = Tensor(np.ones((flat.shape[1], 1), dtype=x.dtype))
    return nx.reshape(nx.matmul(flat, ones), ())


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
    with pytest.raises(NumericsError):
        softmax_with_temperature(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(NumericsError):
        softmax_with_temperature(np.array([1.0, 2.0]), -1.0)


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
    with pytest.raises(NumericsError):
        _ln([])


# -- rotary embedding ------------------------------------------------------------


def test_rope_position_zero_is_identity(rng):
    x = rng.normal(size=(1, 8))
    out = rope_rotate(Tensor(x), np.array([0]), 8).data
    assert np.array_equal(out, x)


def test_rope_preserves_row_norms(rng):
    x = rng.normal(size=(6, 16))
    out = rope_rotate(Tensor(x), np.arange(6), 8).data
    assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-6)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=37))
@settings(max_examples=30)
def test_rope_relative_position_property(m, n, shift):
    rng = np.random.default_rng(m * 1000 + n * 7 + shift)
    q = rng.normal(size=(1, 8))
    k = rng.normal(size=(1, 8))

    def rot(v, pos):
        return rope_rotate(Tensor(v), np.array([pos]), 8).data[0]

    d1 = float(rot(q, m) @ rot(k, n))
    d2 = float(rot(q, m + shift) @ rot(k, n + shift))
    assert abs(d1 - d2) < 1e-8


def test_rope_rejects_odd_head_dim(rng):
    with pytest.raises(NumericsError):
        rope_rotate(Tensor(rng.normal(size=(2, 6))), np.arange(2), 3)


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


def test_attention_rejects_fully_blocked_row(rng):
    q = Tensor(rng.normal(size=(2, 8)))
    kv = Tensor(rng.normal(size=(3, 8)))
    visible = np.ones((2, 3), dtype=bool)
    visible[1] = False
    with pytest.raises(NumericsError):
        masked_attention(q, kv, kv, visible, 2)


def test_attention_rejects_bad_shapes(rng):
    q = Tensor(rng.normal(size=(2, 8)))
    k = Tensor(rng.normal(size=(3, 8)))
    with pytest.raises(NumericsError):
        masked_attention(q, k, k, np.ones((2, 4), dtype=bool), 2)
    with pytest.raises(NumericsError):
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
    with pytest.raises(NumericsError):
        next_token_cross_entropy(Tensor(np.zeros((1, 2, 5))), np.zeros((1, 2), dtype=int), 0)


# -- gradient checking ----------------------------------------------------------


def test_grad_check_quadratic_is_exact():
    theta = Tensor(np.array([0.5, -1.5, 2.0, 3.0]), requires_grad=True)

    def loss_fn():
        return nx.mul(total(nx.mul(theta, theta)), 0.5)

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

    def loss_fn():
        return nx.mul(total(nx.mul(theta, theta)), 0.5)

    corrupted = {"theta": theta.data.copy()}
    corrupted["theta"][1] *= 2.0
    err = finite_difference_grad_check(
        loss_fn, {"theta": theta}, eps=1e-5, analytic_grads=corrupted
    )
    assert err > 1e-2


def test_grad_check_rejects_bad_eps():
    theta = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(NumericsError):
        finite_difference_grad_check(lambda: total(theta), {"t": theta}, eps=1e-3)


# -- engine odds and ends ---------------------------------------------------------


def test_backward_requires_scalar(rng):
    t = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with pytest.raises(NumericsError):
        nx.mul(t, 2.0).backward()


def test_unused_parameter_reads_zero_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    loss = total(nx.mul(used, used))
    loss.backward()
    assert unused.grad is None
    assert np.array_equal(unused.grad_or_zeros(), np.zeros(3))


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


@pytest.mark.parametrize(
    "op",
    [lambda x: nx.add(x, 1.0), lambda x: nx.mul(2.0, x)],
    ids=["add", "rmul"],
)
def test_plain_operands_take_the_tensor_dtype(op):
    assert op(Tensor(np.ones(3, dtype=np.float32))).dtype == np.float32


def test_no_grad_skips_graph(rng):
    t = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with nx.no_grad():
        out = total(nx.mul(t, t))
    assert out._parents == ()


def test_embedding_rejects_out_of_range():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(NumericsError):
        nx.embedding(table, np.array([0, 4]))


# Every primitive, applied to a (2, 4) input ``x``; ``const`` makes its other
# inputs, which are constants.
PRIMITIVES = {
    "add": lambda x, const: nx.add(x, const(1.0)),
    "mul": lambda x, const: nx.mul(x, const(2.0)),
    "matmul": lambda x, const: nx.matmul(x, const(np.ones((4, 3)))),
    "reshape": lambda x, const: nx.reshape(x, (4, 2)),
    "swapaxes": lambda x, const: nx.swapaxes(x, 0, 1),
    "concat": lambda x, const: nx.concat([x, const(np.ones((1, 4)))], axis=0),
    "embedding": lambda x, const: nx.embedding(x, np.array([1, 0, 1])),
    "gelu": lambda x, const: nx.gelu(x),
    "layer_norm": lambda x, const: layer_norm(x, const(np.ones(4)), const(np.zeros(4))),
    "masked_softmax": lambda x, const: nx.masked_softmax(x, None),
    "rope_rotate": lambda x, const: rope_rotate(x, np.arange(2), 4),
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
    loss.backward()
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    assert all(n.grad is None for n in nodes if n._parents)
    reached = {id(n) for n in nodes if n.requires_grad}
    with_grad = {id(p) for _, p in params.named_parameters() if p.grad is not None}
    assert with_grad == reached
