import gc
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from protdat import numerics as nx
from protdat import training
from protdat.data import make_batch, synthetic_records
from protdat.model import init_params
from protdat.numerics import Tensor
from protdat.tokenizer import AminoVocabulary, write_embedding_file
from protdat.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LogEntry,
    OptimizerState,
    TrainLog,
    TrainingConfig,
    TrainingError,
    clip_gradients,
    compute_loss,
    fit,
    training_step,
)

from conftest import grad_or_zeros, tiny_config, tiny_model, total


def _snapshot(params):
    return {name: p.data.copy() for name, p in params.named_parameters()}


def test_zero_learning_rate_leaves_params_unchanged():
    params, _, batch = tiny_model()
    opt = OptimizerState(params, TrainingConfig(lr=0.0, weight_decay=0.0))
    before = _snapshot(params)
    loss = training_step(batch, params, opt)
    assert math.isfinite(loss) and loss > 0
    for name, p in params.named_parameters():
        assert np.array_equal(before[name], p.data), name


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0),
    ("lr", -1e-3),
    ("lr", math.nan),
    ("lr", math.inf),
    ("weight_decay", -0.1),
    ("weight_decay", math.nan),
    ("clip_norm", -1.0),
    ("clip_norm", 0.0),
    ("clip_norm", math.nan),
    ("clip_norm", math.inf),
    # a value of the wrong type
    ("batch_size", 2.5),
    ("lr", True),
    ("clip_norm", "1"),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(TrainingError, match=f"^{field} must be"):
        TrainingConfig(**{field: value})


def test_one_step_decreases_loss_on_same_batch():
    params, _, batch = tiny_model()
    opt = OptimizerState(params, TrainingConfig(lr=1e-3, weight_decay=0.0))
    first = training_step(batch, params, opt)
    after = float(compute_loss(batch, params).data)
    assert after < first


def test_first_step_matches_closed_form_adam():
    params, _, batch = tiny_model()
    cfg = TrainingConfig(lr=1e-2, weight_decay=0.0, clip_norm=None)
    before = _snapshot(params)
    params.zero_grad()
    compute_loss(batch, params).backward()
    grads = {name: grad_or_zeros(p).copy() for name, p in params.named_parameters()}
    opt = OptimizerState(params, cfg)
    training_step(batch, params, opt)
    # t=1 with bias correction: m_hat = g, v_hat = g^2 -> update = g / (|g| + eps)
    for name, p in params.named_parameters():
        g = grads[name]
        expected = before[name] - cfg.lr * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(p.data, expected, atol=1e-12), name


def test_weight_decay_is_decoupled_and_masked():
    params, _, batch = tiny_model()
    vocab = AminoVocabulary()
    wd = 0.5
    before = _snapshot(params)
    params.zero_grad()
    compute_loss(batch, params).backward()
    grads = {name: grad_or_zeros(p).copy() for name, p in params.named_parameters()}
    no_grad = {name for name, p in params.named_parameters() if p.grad is None}
    cfg = TrainingConfig(lr=1e-2, weight_decay=wd, clip_norm=None)
    opt = OptimizerState(params, cfg)
    training_step(batch, params, opt)
    for name, p in params.named_parameters():
        g = grads[name]
        adam = g / (np.abs(g) + ADAM_EPS)
        decay = wd * before[name]
        if name in no_grad:  # no gradient: no update and no decay
            decay = 0.0
        elif ".ln" in name and (name.endswith(".gamma") or name.endswith(".beta")):
            decay = 0.0
        elif name == "token_embedding":
            decay = wd * before[name].copy()
            decay[vocab.pad_id] = 0.0
        expected = before[name] - cfg.lr * (adam + decay)
        assert np.allclose(p.data, expected, atol=1e-12), name


def _adam_formula(p, g, m, v, t, cfg, decay_mask):
    """The Adam step as written before it reused buffers: the same operations
    on the same operands, each into a fresh array.  Returns (p, m, v)."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m = m * ADAM_BETA1
    m = m + (1.0 - ADAM_BETA1) * g
    v = v * ADAM_BETA2
    v = v + (1.0 - ADAM_BETA2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    if cfg.weight_decay:
        update = update + cfg.weight_decay * decay_mask * p
    return p - cfg.lr * update, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_plain_formula_bitwise(dtype, weight_decay):
    """Three steps against the plain formula, with read-only gradients and
    parameter arrays: Adam writes into neither and replaces ``p.data``, except
    that a parameter without a gradient keeps its array and its moments."""
    params, _, batch = tiny_model(tiny_config(dtype=dtype))
    cfg = TrainingConfig(lr=1e-2, weight_decay=weight_decay)
    opt = OptimizerState(params, cfg)
    named = dict(params.named_parameters())
    m = {name: np.zeros_like(p.data) for name, p in named.items()}
    v = {name: np.zeros_like(p.data) for name, p in named.items()}
    for t in (1, 2, 3):
        params.zero_grad()
        compute_loss(batch, params).backward()
        old, want = {}, {}
        for name, p in named.items():
            old[name] = p.data
            if p.grad is None:
                want[name] = p.data
                continue
            want[name], m[name], v[name] = _adam_formula(p.data, p.grad, m[name], v[name],
                                                         t, cfg, opt.decay_mask[name])
            for a in (p.data, p.grad):
                if a is not None:
                    a.flags.writeable = False
        opt.apply(params)
        for name, p in named.items():
            assert (p.data is old[name]) == (p.grad is None) and p.data.dtype == old[name].dtype
            assert p.data.tobytes() == want[name].tobytes(), name
            assert opt.m[name].tobytes() == m[name].tobytes(), name
            assert opt.v[name].tobytes() == v[name].tobytes(), name


def test_adam_leaves_a_parameter_without_gradient_untouched():
    """The final layer's text query gets no gradient (only a trace reads it):
    20 steps with weight decay neither move it nor its moments."""
    params, _, batch = tiny_model(tiny_config(dtype="float32"))
    opt = OptimizerState(params, TrainingConfig(lr=1e-2, weight_decay=0.1))
    name = "layers.1.wq_t.w"
    p = dict(params.named_parameters())[name]
    initial = p.data.copy()
    for _ in range(20):
        training_step(batch, params, opt)
        assert p.grad is None
    assert p.data.tobytes() == initial.tobytes()
    assert not opt.m[name].any() and not opt.v[name].any()


def test_pad_positions_contribute_no_loss():
    params, records, _ = tiny_model()
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    c_size = params.config.c_size

    def loss_and_tokens(recs):
        batch = make_batch(recs, vocab, provider, c_size)
        n_tokens = int((batch.targets() != batch.pad_id).sum())
        return float(compute_loss(batch, params).data), n_tokens, batch

    # each record is the longer one on one axis: r2 pads r1's sequence, r1 pads r2's text
    pair_loss, _, pair = loss_and_tokens(records)
    assert (pair.seq_ids == vocab.pad_id).any() and not pair.text_mask.all()
    singles = [loss_and_tokens([r])[:2] for r in records]
    weighted = sum(loss * n for loss, n in singles) / sum(n for _, n in singles)
    assert pair_loss == pytest.approx(weighted, abs=1e-12)


def test_gradients_flow_to_text_and_slot_branches():
    params, _, batch = tiny_model()
    params.zero_grad()
    compute_loss(batch, params).backward()
    # all but the final layer: text self-attention and slot-query projections
    for name in ("layers.0.wq_t.w", "layers.0.wk_t.w", "layers.0.wv_t.w",
                 "layers.0.wq_c.w", "layers.0.w_kc.w", "layers.0.w_vc.w",
                 "layers.1.wq_c.w", "layers.1.wk_t.w"):
        p = dict(params.named_parameters())[name]
        assert np.abs(grad_or_zeros(p)).sum() > 0, name
    # the final layer's text query feeds only the ptm trace; every other tensor is read
    no_grad = [name for name, p in params.named_parameters() if p.grad is None]
    assert no_grad == ["layers.1.wq_t.w", "layers.1.wq_t.b"]


def test_fresh_model_loss_is_near_log_vocab():
    records = synthetic_records(12, seed=0, min_len=10, max_len=25)
    params, _, _ = tiny_model(records=records)
    vocab = AminoVocabulary()
    batch = make_batch(records, vocab, params.text_encoder(), params.config.c_size)
    loss = float(compute_loss(batch, params).data)
    assert abs(loss - math.log(vocab.size)) < 0.1 * math.log(vocab.size)


def test_training_step_leaves_no_reference_cycles():
    params, _, batch = tiny_model()
    opt = OptimizerState(params, TrainingConfig())
    gc.collect()
    gc.disable()
    try:
        training_step(batch, params, opt)
        assert gc.collect() == 0  # the graph was freed by reference counting
    finally:
        gc.enable()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_loss_graph_computes_in_model_dtype(dtype):
    params, _, batch = tiny_model(tiny_config(dtype=dtype))
    loss = compute_loss(batch, params)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert len(nodes) > 100
    assert {node.dtype.name for node in nodes.values()} == {dtype}


def test_non_finite_loss_aborts_without_mutation():
    params, _, batch = tiny_model()
    params.head.w.data[0, 0] = np.nan
    opt = OptimizerState(params, TrainingConfig(lr=1e-3))
    embedding_before = params.token_embedding.data.copy()
    with pytest.raises(TrainingError, match="non-finite"):
        training_step(batch, params, opt)
    assert opt.step == 0
    assert all((m == 0).all() for m in opt.m.values())
    assert np.array_equal(embedding_before, params.token_embedding.data)


@pytest.mark.parametrize("clip_norm", [1.0, None])
def test_non_finite_gradient_aborts_without_mutation(clip_norm, monkeypatch):
    params, _, batch = tiny_model()
    opt = OptimizerState(params, TrainingConfig(lr=1e-3, clip_norm=clip_norm))
    before = _snapshot(params)
    backward = Tensor.backward

    def backward_then_inf(self):
        backward(self)
        params.head.w.grad[0, 0] = np.inf

    monkeypatch.setattr(Tensor, "backward", backward_then_inf)
    with pytest.raises(TrainingError, match="non-finite gradient"):
        training_step(batch, params, opt)
    assert opt.step == 0
    assert all((m == 0).all() for m in opt.m.values())
    assert all((v == 0).all() for v in opt.v.values())
    for name, p in params.named_parameters():
        assert np.array_equal(before[name], p.data), name


def test_clip_gradients_scales_to_max_norm():
    params, _, batch = tiny_model()
    params.zero_grad()
    compute_loss(batch, params).backward()
    norm = clip_gradients(params, 1e-3)
    assert norm > 1e-3
    total = sum(float((p.grad.astype(np.float64) ** 2).sum())
                for _, p in params.named_parameters() if p.grad is not None)
    assert math.sqrt(total) == pytest.approx(1e-3, rel=1e-6)


def test_clip_gradients_scales_a_shared_gradient_array_once():
    p = Tensor(np.ones(4), requires_grad=True)
    q = Tensor(np.ones(4), requires_grad=True)
    total(nx.add(p, q)).backward()
    assert np.shares_memory(p.grad, q.grad)  # add handed both parameters one array
    params = SimpleNamespace(named_parameters=lambda: [("p", p), ("q", q)])
    norm = clip_gradients(params, 1.0)
    assert norm == pytest.approx(math.sqrt(8.0), rel=1e-12)
    for t in (p, q):
        np.testing.assert_allclose(t.grad, np.full(4, 1.0 / math.sqrt(8.0)), rtol=1e-12)


def test_fit_epochs_zero_returns_initialized_params():
    records = synthetic_records(6, seed=1, min_len=8, max_len=16)
    cfg = tiny_config(dtype="float32")
    params, log = fit(records, [], cfg, TrainingConfig(), epochs=0, seed=11)
    assert log.entries == []
    fresh = init_params(cfg, seed=11, text_words=params.text_words)
    assert np.array_equal(fresh.token_embedding.data, params.token_embedding.data)


def test_fit_is_deterministic():
    records = synthetic_records(8, seed=2, min_len=8, max_len=16)
    cfg = tiny_config(dtype="float64")
    tcfg = TrainingConfig(batch_size=4, lr=1e-3, weight_decay=0.0)
    _, log_a = fit(records, records[:2], cfg, tcfg, epochs=3, seed=5)
    _, log_b = fit(records, records[:2], cfg, tcfg, epochs=3, seed=5)
    assert log_a.losses("train") == log_b.losses("train")
    assert log_a.losses("valid") == log_b.losses("valid")
    _, log_c = fit(records, records[:2], cfg, tcfg, epochs=3, seed=6)
    assert log_a.losses("train") != log_c.losses("train")


def test_fit_writes_logs_and_checkpoints(tmp_path):
    records = synthetic_records(6, seed=3, min_len=8, max_len=14)
    cfg = tiny_config(dtype="float32")
    params, log = fit(records, records[:2], cfg, TrainingConfig(batch_size=3, lr=1e-3),
                      epochs=2, seed=1, out_dir=tmp_path)
    assert (tmp_path / "model.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    loss_rows = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    assert all(set(row) == {"step", "split", "loss"} for row in loss_rows)
    assert [r for r in loss_rows if r["split"] == "valid"]
    timing_rows = [json.loads(line) for line in (tmp_path / "timing.jsonl").read_text().splitlines()]
    assert len(timing_rows) == len(loss_rows)


def test_failed_log_write_keeps_previous_log(tmp_path):
    TrainLog(entries=[LogEntry(1, "train", 2.5, 0.1)]).write(tmp_path)
    before = (tmp_path / "train_log.jsonl").read_bytes()
    # json cannot encode the second loss, so the write fails after one row
    failing = TrainLog(entries=[LogEntry(1, "train", 1.5, 0.1),
                                LogEntry(2, "train", object(), 0.2)])
    with pytest.raises(TypeError):
        failing.write(tmp_path)
    assert (tmp_path / "train_log.jsonl").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["timing.jsonl", "train_log.jsonl"]


def test_fit_memorizes_small_corpus():
    records = synthetic_records(5, seed=4, min_len=8, max_len=14)
    cfg = tiny_config(d_model=32, n_layers=1, n_heads=2, c_size=2, d_text=32,
                      ffn_dim=64, dtype="float32")
    tcfg = TrainingConfig(batch_size=5, lr=2e-3, weight_decay=0.0)
    _, log = fit(records, [], cfg, tcfg, epochs=300, seed=0,
                 max_steps=300, stop_below_loss=0.4)
    assert log.losses("train")[-1] < 0.5


def test_fit_rejects_empty_training_set():
    with pytest.raises(TrainingError):
        fit([], [], tiny_config(), TrainingConfig(), epochs=1, seed=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"epochs": -2}, "epochs must be >= 0"),
    ({"epochs": 1, "max_steps": 0}, "max_steps must be >= 1"),
    ({"epochs": 1, "max_steps": -1}, "max_steps must be >= 1"),
])
def test_fit_rejects_a_negative_epoch_count_or_a_step_cap_below_one(kwargs, message, tmp_path):
    records = synthetic_records(4, seed=1, min_len=8, max_len=12)
    with pytest.raises(TrainingError, match=f"^{message}$"):
        fit(records, [], tiny_config(), TrainingConfig(), seed=0, out_dir=tmp_path, **kwargs)
    assert not list(tmp_path.iterdir())


def test_fit_rejects_a_negative_seed_before_it_touches_the_heap_or_the_disk(tmp_path,
                                                                           monkeypatch):
    calls = []
    monkeypatch.setattr(training, "keep_heap", lambda: calls.append("keep_heap"))
    out = tmp_path / "run"
    with pytest.raises(TrainingError, match="^seed must be >= 0, got -1$"):
        fit(synthetic_records(4, seed=1, min_len=8, max_len=12), [], tiny_config(),
            TrainingConfig(), epochs=1, seed=-1, out_dir=out)
    assert calls == [] and not out.exists()


def test_precomputed_provider_pipeline_with_text_projection(tmp_path):
    """End to end over the embedding-file path, d_text != d_model."""
    from protdat.generation import MODE_TEXT_ONLY, GenerationParams, PromptSpec, generate
    from protdat.tokenizer import write_embedding_file

    records = synthetic_records(4, seed=5, min_len=8, max_len=12)
    rng = np.random.default_rng(0)
    emb_path = tmp_path / "emb.bin"
    write_embedding_file(
        emb_path,
        {r.id: rng.normal(size=(6, 8)).astype(np.float32) for r in records},
    )
    cfg = tiny_config(d_text=8, dtype="float32")
    params, log = fit(records, [], cfg, TrainingConfig(batch_size=2, lr=1e-3),
                      epochs=2, seed=1, embedding_path=emb_path)
    assert params.text_projection is not None and params.text_words is None
    assert len(log.losses("train")) == 4
    result = generate(
        PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text, record_id=records[0].id),
        params,
        GenerationParams(max_len=6, seed=0),
        text_provider=params.text_encoder(emb_path),
    )
    assert len(result.sequence) <= 6


@pytest.mark.parametrize("split, rows", [("train", None), ("valid", None), ("train", 0)],
                         ids=["train-missing", "valid-missing", "train-no-rows"])
def test_fit_rejects_an_embedding_file_missing_a_record_before_any_step(split, rows, tmp_path,
                                                                         monkeypatch):
    records = synthetic_records(6, seed=2, min_len=8, max_len=12)
    train, valid = records[:4], records[4:]
    absent = (train if split == "train" else valid)[-1].id
    emb_path = tmp_path / "emb.bin"
    write_embedding_file(emb_path, {r.id: np.ones((3 if r.id != absent else rows, 16),
                                                  dtype=np.float32)
                                    for r in records if r.id != absent or rows is not None})
    steps = []
    monkeypatch.setattr(training, "training_step", lambda *args: steps.append(args))
    out = tmp_path / "run"
    with pytest.raises(TrainingError, match=f"^embedding file {re.escape(str(emb_path))} has no "
                                            f"rows for record {absent!r}$"):
        fit(train, valid, tiny_config(), TrainingConfig(batch_size=2), epochs=1, seed=0,
            out_dir=out, embedding_path=emb_path)
    assert steps == [] and not out.exists()
