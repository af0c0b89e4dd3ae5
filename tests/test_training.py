import gc
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from protdat import numerics as nx
from protdat.data import make_batch, synthetic_records
from protdat.model import init_params
from protdat.numerics import Tensor
from protdat.tokenizer import AminoVocabulary
from protdat.training import (
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

from conftest import tiny_config, tiny_model


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
    grads = {name: p.grad_or_zeros().copy() for name, p in params.named_parameters()}
    opt = OptimizerState(params, cfg)
    training_step(batch, params, opt)
    # t=1 with bias correction: m_hat = g, v_hat = g^2 -> update = g / (|g| + eps)
    for name, p in params.named_parameters():
        g = grads[name]
        expected = before[name] - cfg.lr * g / (np.abs(g) + cfg.eps)
        assert np.allclose(p.data, expected, atol=1e-12), name


def test_weight_decay_is_decoupled_and_masked():
    params, _, batch = tiny_model()
    vocab = AminoVocabulary()
    wd = 0.5
    before = _snapshot(params)
    params.zero_grad()
    compute_loss(batch, params).backward()
    grads = {name: p.grad_or_zeros().copy() for name, p in params.named_parameters()}
    cfg = TrainingConfig(lr=1e-2, weight_decay=wd, clip_norm=None)
    opt = OptimizerState(params, cfg)
    training_step(batch, params, opt)
    for name, p in params.named_parameters():
        g = grads[name]
        adam = g / (np.abs(g) + cfg.eps)
        decay = wd * before[name]
        if ".ln" in name and (name.endswith(".gamma") or name.endswith(".beta")):
            decay = 0.0
        elif name == "token_embedding":
            decay = wd * before[name].copy()
            decay[vocab.pad_id] = 0.0
        expected = before[name] - cfg.lr * (adam + decay)
        assert np.allclose(p.data, expected, atol=1e-12), name


def test_pad_positions_contribute_no_loss():
    params, records, _ = tiny_model()
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    tight = make_batch(records, vocab, provider, params.config.c_size, dtype=np.float64)
    padded = make_batch(records, vocab, provider, params.config.c_size, dtype=np.float64,
                        pad_seq_to=tight.seq_len + 4, pad_text_to=tight.text_len + 3)
    loss_tight = float(compute_loss(tight, params).data)
    loss_padded = float(compute_loss(padded, params).data)
    assert loss_tight == pytest.approx(loss_padded, abs=1e-12)


def test_gradients_flow_to_text_and_slot_branches():
    params, _, batch = tiny_model()
    params.zero_grad()
    compute_loss(batch, params).backward()
    # all but the final layer: text self-attention and slot-query projections
    for name in ("layers.0.wq_t.w", "layers.0.wk_t.w", "layers.0.wv_t.w",
                 "layers.0.wq_c.w", "layers.0.w_kc.w", "layers.0.w_vc.w",
                 "layers.1.wq_c.w", "layers.1.wk_t.w"):
        p = dict(params.named_parameters())[name]
        assert np.abs(p.grad_or_zeros()).sum() > 0, name


def test_fresh_model_loss_is_near_log_vocab():
    records = synthetic_records(12, seed=0, min_len=10, max_len=25)
    params, _, _ = tiny_model(records=records)
    vocab = AminoVocabulary()
    batch = make_batch(records, vocab, params.text_encoder(), params.config.c_size,
                       dtype=np.float64)
    loss = float(compute_loss(batch, params).data)
    assert abs(loss - math.log(params.config.vocab_size)) < 0.1 * math.log(params.config.vocab_size)


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
    nx.matmul(nx.reshape(nx.add(p, q), (1, 4)), Tensor(np.ones((4, 1)))).backward()
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
    TrainLog(seed=0, config={}, entries=[LogEntry(1, "train", 2.5, 0.1)]).write(tmp_path)
    before = (tmp_path / "train_log.jsonl").read_bytes()
    # json cannot encode the second loss, so the write fails after one row
    failing = TrainLog(seed=0, config={}, entries=[LogEntry(1, "train", 1.5, 0.1),
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
    cfg = tiny_config(d_text=8, text_provider="precomputed", dtype="float32")
    params, log = fit(records, [], cfg, TrainingConfig(batch_size=2, lr=1e-3),
                      epochs=2, seed=1, embedding_path=emb_path)
    assert params.text_projection is not None
    assert len(log.losses("train")) == 4
    result = generate(
        PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text),
        params,
        GenerationParams(max_len=6, seed=0),
        text_provider=params.text_encoder(emb_path),
        record_id=records[0].id,
    )
    assert len(result.sequence) <= 6
