import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from protdat import numerics as nx
from protdat.data import ProteinRecord, make_batch
from protdat.model import (
    CHECKPOINT_FORMAT,
    ModelConfig,
    ModelError,
    decoder_layer_forward,
    init_params,
    load_checkpoint,
    mcm_forward,
    model_forward,
    prompt_forward,
    prompt_mcm_forward,
    save_checkpoint,
    sequence_forward,
)
from protdat.numerics import NumericsError, Tensor
from protdat.tokenizer import AminoVocabulary, write_embedding_file

from conftest import grad_or_zeros, small_records, tiny_config, tiny_model


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ModelError):
        ModelConfig(d_model=12, n_heads=4)  # head_dim 3 is odd
    ModelConfig(d_model=16, n_heads=4)  # head_dim 4, even: ok
    with pytest.raises(ModelError):
        ModelConfig(ffn_dim=10)


@pytest.mark.parametrize("field,value,message", [
    ("n_heads", 0, "n_heads must be >= 1"),
    ("n_layers", 0, "n_layers must be >= 1"),
    ("d_model", 0, "d_model must be >= 1"),
    ("d_model", 16.0, "d_model must be int, not float"),
    ("c_size", True, "c_size must be int, not bool"),
])
def test_config_rejects_out_of_range_and_ill_typed_sizes(field, value, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        tiny_config(**{field: value})


def test_init_params_rejects_a_negative_seed():
    with pytest.raises(ModelError, match="^seed must be >= 0, got -1$"):
        init_params(tiny_config(), seed=-1, text_words=["a"])


def test_mcm_shapes_and_trace_shapes():
    cfg = tiny_config(d_model=8, n_heads=2, c_size=3, ffn_dim=16, n_layers=2)
    params = init_params(cfg, seed=0, text_words=["a", "b"])
    layer = params.layers[0]
    s_len, t_len = 7, 5
    rng = np.random.default_rng(1)
    e_s = Tensor(rng.normal(size=(s_len, 8)))
    e_c = Tensor(rng.normal(size=(3, 8)))
    e_t = Tensor(rng.normal(size=(t_len, 8)))
    ptm, cim = np.ones((t_len, t_len), bool), np.ones((3, t_len), bool)
    psm = np.concatenate(
        [np.ones((s_len, 3), bool), np.tril(np.ones((s_len, s_len), bool))], axis=1
    )
    c_out, t_out, kv, (ptm_w, cim_w) = prompt_mcm_forward(e_c, e_t, (ptm, cim), layer, cfg)
    s_out, (k_cat, v_cat), cca_w = mcm_forward(e_s, 0, kv, psm, layer, cfg)
    assert s_out.shape == (7, 8)
    assert c_out.shape == (3, 8)
    assert t_out.shape == (5, 8)
    assert kv[0].shape == kv[1].shape == (3, 8)
    assert k_cat.shape == v_cat.shape == (10, 8)
    assert ptm_w.shape == (2, 5, 5)
    assert cim_w.shape == (2, 3, 5)
    assert cca_w.shape == (2, 7, 10)
    assert np.allclose(cca_w.sum(axis=-1), 1.0, atol=1e-9)
    # the final layer ends at its K/V: no text output, and its text attention
    # runs only for a trace
    final = params.layers[1]
    c_out, t_out, kv, (ptm_w, _) = prompt_mcm_forward(e_c, e_t, (ptm, cim), final, cfg)
    assert t_out is None and ptm_w is None
    assert c_out.shape == (3, 8)
    assert kv[0].shape == kv[1].shape == (3, 8)
    c_tr, t_tr, kv_tr, (ptm_w, _) = prompt_mcm_forward(e_c, e_t, (ptm, cim), final, cfg, True)
    assert t_tr is None
    assert ptm_w.shape == (2, 5, 5)
    assert np.array_equal(c_tr.data, c_out.data)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(kv_tr, kv))


def test_mcm_value_path_zero_map():
    cfg = tiny_config(d_model=8, n_heads=2, c_size=2, ffn_dim=16, n_layers=2)
    params = init_params(cfg, seed=0, text_words=["a"])
    rng = np.random.default_rng(2)
    s_len, t_len = 4, 3
    ptm, cim = np.ones((t_len, t_len), bool), np.ones((2, t_len), bool)
    psm = np.concatenate(
        [np.ones((s_len, 2), bool), np.tril(np.ones((s_len, s_len), bool))], axis=1
    )
    for i, layer in enumerate(params.layers):
        layer.wv_t.w.data = np.zeros_like(layer.wv_t.w.data)
        layer.wv_s.w.data = np.zeros_like(layer.wv_s.w.data)
        # biases are zero at init already; make it explicit for the contract
        for lin in (layer.wv_t, layer.wv_s, layer.wo_t, layer.wo_c, layer.wo_s,
                    layer.w_kc, layer.w_vc):
            if lin is not None:
                lin.b.data = np.zeros_like(lin.b.data)
        c_out, t_out, kv, _ = prompt_mcm_forward(
            Tensor(rng.normal(size=(2, 8))),
            Tensor(rng.normal(size=(t_len, 8))),
            (ptm, cim),
            layer,
            cfg,
        )
        s_out, _, _ = mcm_forward(Tensor(rng.normal(size=(s_len, 8))), 0, kv, psm, layer, cfg)
        assert np.allclose(s_out.data, 0.0)
        assert np.allclose(c_out.data, 0.0)
        if i < cfg.n_layers - 1:
            assert np.allclose(t_out.data, 0.0)
        else:
            assert t_out is None


def test_mcm_single_head_matches_straight_line_reference():
    """Independent straight-line recomputation of the fused block, single head."""
    cfg = ModelConfig(
        d_model=2, n_layers=2, n_heads=1, c_size=1, d_text=2, ffn_dim=4, dtype="float64",
    )
    params = init_params(cfg, seed=3, text_words=["w"])
    rng = np.random.default_rng(4)
    e_s = rng.normal(size=(2, 2))
    e_c = rng.normal(size=(1, 2))
    e_t = rng.normal(size=(2, 2))
    masks = (  # ptm, cim, psm
        np.ones((2, 2), bool),
        np.ones((1, 2), bool),
        np.array([[True, True, False], [True, True, True]]),
    )

    def lin(x, p):
        return x @ p.w.data + p.b.data

    def rope1(x, pos):
        # head_dim = 2: rotate the single (x0, x1) pair by the position angle
        c, s = math.cos(pos), math.sin(pos)
        return np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c])

    def soft(scores):
        e = np.exp(scores - scores.max())
        return e / e.sum()

    sc = 1.0 / math.sqrt(2)
    for n, layer in enumerate(params.layers):
        q_t = lin(e_t, layer.wq_t)
        k_t = lin(e_t, layer.wk_t)
        v_t = lin(e_t, layer.wv_t)
        q_t_r = np.stack([rope1(q_t[i], i) for i in range(2)])
        k_t_r = np.stack([rope1(k_t[i], i) for i in range(2)])
        ptm_w_ref = np.stack([soft(q_t_r[i] @ k_t_r.T * sc) for i in range(2)])
        ptm = ptm_w_ref @ v_t

        q_c = lin(e_c, layer.wq_c)
        cim = soft(q_c[0] @ k_t.T * sc) @ v_t  # unrotated keys
        c_ref = lin(cim[None, :], layer.wo_c)

        k_c = lin(c_ref, layer.w_kc)
        v_c = lin(c_ref, layer.w_vc)
        q_s = lin(e_s, layer.wq_s)
        k_s = lin(e_s, layer.wk_s)
        v_s = lin(e_s, layer.wv_s)
        q_s_r = np.stack([rope1(q_s[i], i) for i in range(2)])
        k_s_r = np.stack([rope1(k_s[i], i) for i in range(2)])
        k_cat = np.concatenate([k_c, k_s_r], axis=0)
        v_cat = np.concatenate([v_c, v_s], axis=0)
        s_rows = []
        for i in range(2):
            scores = q_s_r[i] @ k_cat.T * sc
            scores[~masks[2][i]] = -np.inf
            s_rows.append(soft(scores) @ v_cat)
        s_ref = lin(np.stack(s_rows), layer.wo_s)

        c_out, t_out, kv, (ptm_w, _) = prompt_mcm_forward(
            Tensor(e_c), Tensor(e_t), masks[:2], layer, cfg, trace=True
        )
        assert np.abs(ptm_w[0] - ptm_w_ref).max() < 1e-12  # the final layer's too
        s_out, (k_out, v_out), _ = mcm_forward(Tensor(e_s), 0, kv, masks[2], layer, cfg)
        if n < cfg.n_layers - 1:
            assert np.abs(t_out.data - lin(ptm, layer.wo_t)).max() < 1e-12
        else:  # the final layer ends at its K/V
            assert t_out is None
        assert np.abs(c_out.data - c_ref).max() < 1e-12
        assert np.abs(s_out.data - s_ref).max() < 1e-12
        assert np.abs(k_out.data - k_cat).max() < 1e-12
        assert np.abs(v_out.data - v_cat).max() < 1e-12
        # one row at a time, each against the K/V the rows before it grew
        for i in range(2):
            row_out, kv, _ = mcm_forward(Tensor(e_s[i : i + 1]), i, kv, None, layer, cfg)
            assert np.abs(row_out.data[0] - s_ref[i]).max() < 1e-12
        assert np.abs(kv[0].data - k_cat).max() < 1e-12


def test_decoder_layer_preserves_shapes():
    params, _, batch = tiny_model()
    cfg = params.config
    rng = np.random.default_rng(0)
    e_s = Tensor(rng.normal(size=(2, 5, cfg.d_model)))
    kv = tuple(Tensor(rng.normal(size=(2, cfg.c_size, cfg.d_model))) for _ in range(2))
    psm = np.concatenate(
        [np.ones((2, 5, cfg.c_size), bool),
         np.tril(np.ones((5, 5), bool))[None].repeat(2, 0)], axis=2
    )
    out, (k, v), _ = decoder_layer_forward(e_s, 0, kv, psm, params.layers[0], cfg)
    assert out.shape == e_s.shape
    assert k.shape == v.shape == (2, cfg.c_size + 5, cfg.d_model)


def residual_ffn(x, delta, norm, ffn):
    """Reference for the residual + feedforward sublayer: y = x + delta, y + FFN(norm(y))."""
    x = nx.add(x, delta)
    h = nx.gelu(nx.matmul(nx.layer_norm(x, norm.gamma, norm.beta), ffn.w1, ffn.b1))
    return nx.add(x, nx.matmul(h, ffn.w2, ffn.b2))


def test_model_forward_equals_manual_layer_composition():
    params, _, batch = tiny_model()
    cfg = params.config
    logits, _ = model_forward(batch, params)

    # prompt pass
    slot_ids = np.full((batch.size, cfg.c_size), AminoVocabulary.cross_id)
    e_c = nx.embedding(params.token_embedding, slot_ids)
    e_t = nx.embedding(params.text_word_embedding, batch.text)
    kv = []
    for n, layer in enumerate(params.layers):
        c_n = nx.layer_norm(e_c, layer.ln_c.gamma, layer.ln_c.beta)
        t_n = nx.layer_norm(e_t, layer.ln_t.gamma, layer.ln_t.beta)
        c_out, t_out, layer_kv, _ = prompt_mcm_forward(
            c_n, t_n, (batch.ptm_mask, batch.cim_mask), layer, cfg
        )
        kv.append(layer_kv)
        if n == cfg.n_layers - 1:  # the text and slot streams end at the final K/V
            assert t_out is None
            break
        e_c = residual_ffn(e_c, c_out, layer.ln2_c, layer.ffn_c)
        e_t = residual_ffn(e_t, t_out, layer.ln2_t, layer.ffn_t)
    for (k, v), (k_ref, v_ref) in zip(prompt_forward(batch, params)[0], kv, strict=True):
        assert np.array_equal(k.data, k_ref.data) and np.array_equal(v.data, v_ref.data)

    # sequence pass
    e_s = nx.embedding(params.token_embedding, batch.seq_ids)
    for layer, layer_kv in zip(params.layers, kv):
        e_s, _, _ = decoder_layer_forward(e_s, 0, layer_kv, batch.psm_mask, layer, cfg)
    manual = nx.matmul(e_s, params.head.w, params.head.b)
    assert np.array_equal(logits.data, manual.data)


def test_final_text_attention_runs_only_under_trace(monkeypatch):
    params, records, _ = tiny_model()
    cfg = params.config
    single = make_batch(records[:1], AminoVocabulary(), params.text_encoder(), cfg.c_size)
    calls = []
    real = nx.masked_attention
    monkeypatch.setattr(nx, "masked_attention", lambda *a, **k: calls.append(1) or real(*a, **k))
    n = cfg.n_layers
    # text and slot attention in every layer, but the final layer's text
    # attention only under a trace
    for trace, prompt_calls in ((False, 2 * n - 1), (True, 2 * n)):
        calls.clear()
        model_forward(single, params, trace=trace)
        assert len(calls) == prompt_calls + n  # then one sequence attention per layer


def test_one_row_decode_token_runs_a_fixed_number_of_ops(monkeypatch):
    """Every numerics op builds its output through ``_make``: count them for
    one one-row token of a 2-layer model.  Per layer: the norm (1), the
    q/k/v projections (3), the rotated new key (1), the rotated query (1),
    attention (3: scaled scores, softmax, merged weighted values), the
    output projection (1), then the FFN sublayer (6: residual add, norm,
    linear, GELU, linear, residual add): 16.  The new key and value rows
    are written into the K/V buffers, which is no op.  Plus the embedding
    and the head: 16 * 2 + 2 = 34."""
    params, records, _ = tiny_model()
    single = make_batch(records[:1], AminoVocabulary(), params.text_encoder(),
                        params.config.c_size)
    n = single.seq_ids.shape[1]
    with nx.no_grad():
        kv, _ = prompt_forward(single, params)
        # buffers with room for the prefill and one token, as a decode makes them
        kv = [tuple(np.pad(t.data, [(0, 0), (0, n + 1), (0, 0)]) for t in layer_kv)
              for layer_kv in kv]
        _, kv, _ = sequence_forward(single.seq_ids, 0, kv, single.psm_mask, params)
        calls = []
        real = nx._make
        monkeypatch.setattr(nx, "_make", lambda *a: calls.append(1) or real(*a))
        token = np.array([[AminoVocabulary().encode_sequence("M", add_eos=False)[-1]]])
        sequence_forward(token, n, kv, None, params)
    assert params.config.n_layers == 2
    assert len(calls) == 16 * 2 + 2


def test_traced_forward_equals_untraced_bitwise():
    params, records, _ = tiny_model(config=tiny_config(n_layers=3))
    cfg = params.config
    single = make_batch(records[:1], AminoVocabulary(), params.text_encoder(), cfg.c_size)
    logits, none = model_forward(single, params)
    logits_tr, trace = model_forward(single, params, trace=True)
    assert none is None
    assert np.array_equal(logits.data, logits_tr.data)
    kv, weights = prompt_forward(single, params)
    kv_tr, weights_tr = prompt_forward(single, params, trace=True)
    for (k, v), (k_tr, v_tr) in zip(kv, kv_tr, strict=True):
        assert np.array_equal(k.data, k_tr.data) and np.array_equal(v.data, v_tr.data)
    assert [w is None for w, _ in weights] == [False, False, True]
    assert all(w is not None for w, _ in weights_tr)
    assert len(trace.ptm) == len(trace.cim) == len(trace.cca) == cfg.n_layers
    t = single.text_mask.shape[1]
    assert trace.ptm[-1].shape == (t, t)


def test_causality_is_bitwise():
    params, records, _ = tiny_model()
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    base = make_batch(records, vocab, provider, params.config.c_size)
    logits_base, _ = model_forward(base, params)
    # mutate the residue at row position 3 of record 2 ("ARNDC" -> CLS A R N D C EOS)
    mutated_records = [records[0], type(records[1])(records[1].id, records[1].text, "ARWDC")]
    mutated = make_batch(mutated_records, vocab, provider, params.config.c_size)
    logits_mut, _ = model_forward(mutated, params)
    assert np.array_equal(logits_base.data[1, :3], logits_mut.data[1, :3])
    assert (logits_base.data[1, 3:6] != logits_mut.data[1, 3:6]).any()


def test_text_conditioning_reaches_all_positions():
    params, records, batch = tiny_model()
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    logits_a, _ = model_forward(batch, params)
    swapped = [
        type(records[0])(records[0].id, records[1].text, records[0].sequence),
        type(records[1])(records[1].id, records[0].text, records[1].sequence),
    ]
    batch_b = make_batch(swapped, vocab, provider, params.config.c_size)
    logits_b, _ = model_forward(batch_b, params)
    real = batch.seq_ids[0] != vocab.pad_id
    diff = np.abs(logits_a.data[0, real] - logits_b.data[0, real, : logits_a.shape[-1]])
    assert (diff.max(axis=-1) > 0).all()  # every real position moved
    assert diff[0].max() > 0  # including position 0


def test_cross_embedding_row_is_live():
    params, records, batch = tiny_model()
    logits_a, _ = model_forward(batch, params)
    vocab = AminoVocabulary()
    params.token_embedding.data[vocab.cross_id] = 0.0
    logits_b, _ = model_forward(batch, params)
    assert np.abs(logits_a.data - logits_b.data).max() > 0


def test_batching_invariance():
    params, records, _ = tiny_model()
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    cfg = params.config
    rec, text = records[1], records[0].text
    # two different batch-mates of equal sequence and text lengths, both
    # longer than rec, so rec's row is padded along both axes
    mates = [ProteinRecord("m1", text, "MKVLAAGW"),
             ProteinRecord("m2", " ".join(reversed(text.split())), "WYPTSEQH")]
    rows = []
    for mate in mates:
        both = make_batch([rec, mate], vocab, provider, cfg.c_size)
        assert both.seq_ids.shape[1] > len(rec.sequence) + 2
        assert both.text_mask.shape[1] > len(provider.encode(rec.text))
        logits, _ = model_forward(both, params)
        rows.append(logits.data[0])
    assert np.array_equal(rows[0], rows[1])
    # alone, at its natural length: equal to tight tolerance on the real positions
    single = make_batch([rec], vocab, provider, cfg.c_size)
    logits_single, _ = model_forward(single, params)
    assert np.allclose(rows[0][: single.seq_ids.shape[1]], logits_single.data[0], atol=1e-10)


def n_parameters(params) -> int:
    return sum(p.data.size for _, p in params.named_parameters())


def test_count_parameters_closed_form():
    cfg = ModelConfig(
        d_model=8, n_layers=2, n_heads=2, c_size=2, d_text=8, ffn_dim=16, dtype="float64",
    )
    params = init_params(cfg, seed=0)
    d, f, v = 8, 16, 29

    def layer(n_norms, n_linears, n_ffns):
        return n_norms * 2 * d + n_linears * (d * d + d) + n_ffns * (d * f + f + f * d + d)

    # the final layer has no ln2_t, ln2_c, wo_t, ffn_t or ffn_c
    expected = v * d + layer(6, 12, 3) + layer(4, 11, 1) + (d * v + v)
    assert n_parameters(params) == expected


def test_count_parameters_layer_additivity():
    base = dict(d_model=8, n_heads=2, c_size=2, d_text=8, ffn_dim=16, dtype="float64")
    one = n_parameters(init_params(ModelConfig(n_layers=1, **base), seed=0))
    two = n_parameters(init_params(ModelConfig(n_layers=2, **base), seed=0))
    three = n_parameters(init_params(ModelConfig(n_layers=3, **base), seed=0))
    assert two - one == three - two  # exactly one layer's worth


def test_shared_embedding_counted_once():
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, c_size=2, d_text=8, ffn_dim=16,
                      dtype="float64")
    params = init_params(cfg, seed=0)
    names = [n for n, _ in params.named_parameters()]
    assert names.count("token_embedding") == 1


def test_named_parameters_follow_the_checkpoint_order():
    params, _, _ = tiny_model(config=tiny_config(n_layers=2, d_text=8))
    layer = (
        [f"{n}.{k}" for n in ("ln_t", "ln_c", "ln_s", "ln2_t", "ln2_c", "ln2_s")
         for k in ("gamma", "beta")]
        + [f"{n}.{k}" for n in ("wq_t", "wk_t", "wv_t", "wo_t", "wq_c", "wo_c",
                                "w_kc", "w_vc", "wq_s", "wk_s", "wv_s", "wo_s")
           for k in ("w", "b")]
        + [f"{n}.{k}" for n in ("ffn_t", "ffn_c", "ffn_s") for k in ("w1", "b1", "w2", "b2")]
    )
    final = (
        [f"{n}.{k}" for n in ("ln_t", "ln_c", "ln_s", "ln2_s") for k in ("gamma", "beta")]
        + [f"{n}.{k}" for n in ("wq_t", "wk_t", "wv_t", "wq_c", "wo_c",
                                "w_kc", "w_vc", "wq_s", "wk_s", "wv_s", "wo_s")
           for k in ("w", "b")]
        + [f"ffn_s.{k}" for k in ("w1", "b1", "w2", "b2")]
    )
    expected = (
        ["token_embedding", "text_word_embedding", "text_projection.w", "text_projection.b"]
        + [f"layers.0.{n}" for n in layer]
        + [f"layers.1.{n}" for n in final]
        + ["head.w", "head.b"]
    )
    named = params.named_parameters()
    assert [n for n, _ in named] == expected
    assert len({id(p) for _, p in named}) == len(named)


def test_trace_requires_single_record_batch():
    params, _, batch = tiny_model()
    with pytest.raises(ModelError):
        model_forward(batch, params, trace=True)


def test_batch_built_for_another_c_size_is_a_one_line_error():
    params, records, _ = tiny_model()
    c = params.config.c_size
    other = make_batch(records, AminoVocabulary(), params.text_encoder(), c + 1)
    with pytest.raises(NumericsError, match=rf"^masked_attention: mask shape \({c + 1}, \d+\) "
                                            rf"!= \({c}, \d+\)$"):
        model_forward(other, params)


@pytest.mark.parametrize("d_text", [12, 16])  # 16 is d_model: no text projection
def test_text_encoder_rejects_an_embedding_file_of_another_width(tmp_path, d_text):
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"r1": np.ones((2, 8), dtype=np.float32)})
    params = init_params(tiny_config(d_text=d_text), seed=0)
    with pytest.raises(ModelError, match=f"^embedding file {re.escape(str(path))} has d_text 8, "
                                         f"the model d_text {d_text}$"):
        params.text_encoder(path)


@pytest.mark.parametrize("d_text", [12, 16])  # 16 is d_model: no text projection
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_casts_float32_embedding_rows_to_the_same_bits(tmp_path, dtype, d_text):
    """A batch carries an embedding file's float32 rows and the model casts
    them: its logits and every gradient are the bits of a batch whose rows
    arrive in the model's dtype already."""
    records = small_records()
    rng = np.random.default_rng(0)
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {r.id: rng.normal(size=(3 + i, d_text)).astype(np.float32)
                                for i, r in enumerate(records)})
    params = init_params(tiny_config(d_text=d_text, dtype=dtype), seed=0)
    batch = make_batch(records, AminoVocabulary(), params.text_encoder(path), params.config.c_size)
    assert batch.text.dtype == np.float32
    runs = []
    for text in (batch.text, batch.text.astype(dtype)):
        params.zero_grad()
        logits, _ = model_forward(replace(batch, text=text), params)
        nx.next_token_cross_entropy(logits, batch.targets(), ignore_id=batch.pad_id).backward()
        assert logits.dtype == dtype
        runs.append([logits.data] + [grad_or_zeros(p).copy()
                                     for _, p in params.named_parameters()])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_a_model_with_a_word_list_takes_no_embedding_file(tmp_path):
    params, _, _ = tiny_model()
    with pytest.raises(ModelError, match="^a model with a word list reads no embedding file"):
        params.text_encoder(tmp_path / "emb.bin")


@pytest.mark.parametrize("words", [None, []], ids=["no-word-list", "empty-word-list"])
def test_the_word_list_decides_the_word_table(words):
    params = init_params(tiny_config(), seed=0, text_words=words)
    if words is None:
        assert params.text_word_embedding is None
        with pytest.raises(ModelError, match="^a model without a word list needs an embedding "
                                             "file$"):
            params.text_encoder()
    else:  # only the UNK row
        assert params.text_word_embedding.shape == (1, 16)
        assert params.text_encoder().encode("any words").tolist() == [0, 0]


# -- persistence ---------------------------------------------------------------


def _f32_model(tmp_path):
    cfg = tiny_config(dtype="float32")
    params, records, batch = tiny_model(config=cfg)
    path = tmp_path / "model.ckpt"
    return params, batch, path


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_float64_checkpoint_round_trip_is_bit_exact(tmp_path):
    params, _, _ = tiny_model()  # float64
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config.np_dtype == np.float64
    for (name, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        assert q.data.dtype == np.float64 and q.data.tobytes() == p.data.tobytes(), name
    blob = path.read_bytes().split(b"\n", 2)[2]
    assert len(blob) == 8 * sum(p.data.size for _, p in params.named_parameters())


def test_checkpoint_truncation_is_rejected(tmp_path):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(ModelError, match="corrupt"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_is_rejected(tmp_path):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)
    raw = path.read_bytes()
    magic = CHECKPOINT_FORMAT.encode("ascii")
    path.write_bytes(raw.replace(magic, b"protdat-ckpt-9", 1))
    with pytest.raises(ModelError, match="format"):
        load_checkpoint(path)
    # a v1 file, header and manifest alike, is rejected rather than read
    path.write_bytes(raw.replace(magic, b"protdat-ckpt-1"))
    with pytest.raises(ModelError, match="format 'protdat-ckpt-1'"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value,message", [
    ("d_model", 16.0, "d_model must be int, not float"),
    ("c_size", True, "c_size must be int, not bool"),
    ("text_words", "binds", "text_words must be null or a list of strings"),
    ("text_words", ["binds", 3], "text_words must be null or a list of strings"),
])
def test_ill_typed_checkpoint_manifest_is_rejected(tmp_path, key, value, message):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)
    magic, manifest, blob = path.read_bytes().split(b"\n", 2)
    manifest = json.loads(manifest)
    (manifest if key == "text_words" else manifest["config"])[key] = value
    path.write_bytes(b"\n".join([magic, json.dumps(manifest).encode(), blob]))
    with pytest.raises(ModelError, match=message):
        load_checkpoint(path)


def test_checkpoint_forward_round_trip_bitwise(tmp_path):
    params, batch, path = _f32_model(tmp_path)
    logits_before, _ = model_forward(batch, params)
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.text_words == params.text_words
    logits_after, _ = model_forward(batch, loaded)
    assert np.array_equal(logits_before.data, logits_after.data)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)
    before = path.read_bytes()

    class FailingBlock(np.ndarray):
        def tobytes(self, order="C"):
            raise OSError("disk full")

    # the head comes last, so the header and most blocks are written first
    params.head.w.data = (params.head.w.data * 2).view(FailingBlock)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    params, _, path = _f32_model(tmp_path)
    save_checkpoint(params, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path)
    for (name, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(p.data, q.data), name
