import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protdat import generation
from protdat import numerics as nx
from protdat.data import assemble_batch, synthetic_records
from protdat.generation import (
    MODE_TEXT_FRAGMENT,
    MODE_TEXT_ONLY,
    GenerationError,
    GenerationParams,
    GenerationStep,
    PromptSpec,
    apply_repetition_penalty,
    fasta_header,
    generate,
    generate_candidates,
    nucleus_filter,
    sample_token,
    write_fasta,
)
from protdat.model import model_forward, prompt_forward, sequence_forward
from protdat.numerics import Tensor, softmax_with_temperature
from protdat.tokenizer import AminoVocabulary
from protdat.training import TrainingConfig, fit

from conftest import scale_weights, tiny_config, tiny_model


# -- repetition penalty -----------------------------------------------------------


def test_penalty_one_is_identity(rng):
    logits = rng.normal(size=8)
    out = apply_repetition_penalty(logits, {1, 3, 5}, 1.0)
    assert np.array_equal(out, logits)


def test_penalty_rule_application():
    logits = np.array([2.0, -2.0, 0.7])
    out = apply_repetition_penalty(logits, {0, 1}, 2.0)
    assert out[0] == 1.0
    assert out[1] == -4.0
    assert out[2] == 0.7


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_penalty_preserves_order_of_unpenalized_tokens(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=12)
    history = set(int(i) for i in rng.choice(12, size=4, replace=False))
    out = apply_repetition_penalty(logits, history, 1.7)
    others = sorted(set(range(12)) - history)
    order_before = np.argsort([logits[i] for i in others], kind="stable")
    order_after = np.argsort([out[i] for i in others], kind="stable")
    assert np.array_equal(order_before, order_after)
    for i in others:
        assert out[i] == logits[i]


def test_penalty_rejects_below_one():
    with pytest.raises(GenerationError):
        apply_repetition_penalty(np.zeros(3), {0}, 0.5)


def test_penalized_token_probability_never_increases(rng):
    for _ in range(50):
        logits = rng.normal(size=10) * 2
        token = int(rng.integers(10))
        base = softmax_with_temperature(logits, 1.0)
        pen = softmax_with_temperature(apply_repetition_penalty(logits, {token}, 1.5), 1.0)
        assert pen[token] <= base[token] + 1e-12


# -- nucleus sampling --------------------------------------------------------------


def test_nucleus_top_p_one_keeps_everything(rng):
    probs = rng.dirichlet(np.ones(6))
    kept, kept_probs = nucleus_filter(probs, 1.0)
    assert sorted(kept.tolist()) == list(range(6))
    assert np.allclose(np.sort(kept_probs), np.sort(probs))


def nucleus_params(top_p: float) -> GenerationParams:
    """Sampling at temperature 1 without a penalty: the draws follow the
    nucleus of softmax(logits)."""
    return GenerationParams(temperature=1.0, top_p=top_p, repetition_penalty=1.0)


def test_nucleus_single_token_prefix():
    logits = np.log([0.9, 0.05, 0.05])
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_token(logits, set(), nucleus_params(0.5), rng) == (0, 1, 0, logits[0])


def test_nucleus_ties_break_by_token_id():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    kept, _ = nucleus_filter(probs, 0.5)
    assert kept.tolist() == [0, 1]


def test_nucleus_empirical_frequencies_within_3_sigma():
    probs = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
    top_p = 0.7  # keeps tokens 0 and 1, renormalized to [5/7, 2/7]
    kept, kept_probs = nucleus_filter(probs, top_p)
    assert kept.tolist() == [0, 1]
    expected = {0: 5 / 7, 1: 2 / 7}
    n = 100_000
    rng = np.random.default_rng(123)
    gp = nucleus_params(top_p)
    draws = np.array([sample_token(np.log(probs), set(), gp, rng)[0] for _ in range(n)])
    for token, p in expected.items():
        freq = (draws == token).mean()
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma
    assert set(np.unique(draws)) <= set(kept.tolist())


def test_sample_token_reports_the_drawn_rank_and_never_draws_a_blocked_token():
    logits = np.array([1.0, -np.inf, 0.5, 2.0, -np.inf, 0.0])
    gp = GenerationParams(temperature=1.3, top_p=0.95, repetition_penalty=1.4)
    history = {0, 1, 3}
    penalized = apply_repetition_penalty(logits, history, gp.repetition_penalty)
    kept, _ = nucleus_filter(softmax_with_temperature(penalized, gp.temperature), gp.top_p)
    rng = np.random.default_rng(3)
    for _ in range(200):
        token_id, size, rank, logit = sample_token(logits, history, gp, rng)
        assert (size, token_id, logit) == (len(kept), kept[rank], penalized[token_id])
        assert token_id not in (1, 4)


def _decode_row(fill: float, token_10: float) -> np.ndarray:
    """A decode step's row of ``fill``, with ``token_10`` at id 10 and PAD,
    CLS and the slot id blocked as the decode loop blocks them."""
    row = np.full(AminoVocabulary.size, fill)
    row[10] = token_10
    row[[AminoVocabulary.pad_id, AminoVocabulary.cls_id, AminoVocabulary.cross_id]] = -np.inf
    return row


@pytest.mark.parametrize("row", [
    pytest.param(_decode_row(0.0, np.nan), id="nan"),
    pytest.param(_decode_row(0.0, np.inf), id="plus-inf"),
    pytest.param(_decode_row(np.nan, np.nan), id="all-nan"),
    pytest.param(_decode_row(-np.inf, -np.inf), id="all-blocked"),
])
def test_argmax_rejects_a_row_without_a_finite_maximum(row):
    """The argmax corner raises the nucleus path's error rather than picking
    a NaN, +inf or blocked id (EOS or PAD, which would end the sample)."""
    with pytest.raises(nx.NumericsError, match="NaN, \\+inf or no finite logit"):
        sample_token(row, set(), GenerationParams.argmax(), np.random.default_rng(0))


def test_nucleus_rejects_invalid_distribution():
    with pytest.raises(GenerationError):
        nucleus_filter(np.array([0.5, 0.6]), 0.9)
    with pytest.raises(GenerationError):
        nucleus_filter(np.array([0.7, 0.3]), 0.0)


# -- prompt and parameter validation ---------------------------------------------


def test_generation_params_validation():
    with pytest.raises(GenerationError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(GenerationError):
        GenerationParams(top_p=1.5)
    with pytest.raises(GenerationError):
        GenerationParams(repetition_penalty=0.9)
    assert GenerationParams.argmax().argmax_mode
    assert not GenerationParams().argmax_mode


@pytest.mark.parametrize("field,value", [
    ("temperature", float("nan")),
    ("temperature", float("inf")),
    ("repetition_penalty", float("nan")),
    ("repetition_penalty", float("inf")),
])
def test_generation_params_reject_nan_and_inf(field, value):
    with pytest.raises(GenerationError, match=f"^{field} must be finite"):
        GenerationParams(**{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("max_len", 64.5, "max_len must be int, not float"),
    ("max_len", True, "max_len must be int, not bool"),
    ("seed", 1.5, "seed must be int, not float"),
    ("seed", True, "seed must be int, not bool"),
    ("seed", -1, "seed must be >= 0"),
    ("max_len", 0, r"max_len must lie in \[1, 1022\]"),
    ("max_len", 1023, r"max_len must lie in \[1, 1022\]"),
])
def test_generation_params_reject_a_bad_max_len_or_seed(field, value, message):
    with pytest.raises(GenerationError, match=f"^{message}$"):
        GenerationParams(**{field: value})


@pytest.mark.parametrize("field,value", [("temperature", "1.0"), ("top_p", None)])
def test_generation_params_check_the_type_of_every_field(field, value):
    with pytest.raises(GenerationError,
                       match=f"^{field} must be float, not {type(value).__name__}$"):
        GenerationParams(**{field: value})
    GenerationParams(temperature=1, top_p=0)  # an int is a float


def test_prompt_spec_validation():
    PromptSpec(mode=MODE_TEXT_ONLY, text="FUNCTION: x.")
    with pytest.raises(GenerationError):
        PromptSpec(mode="beam", text="x")
    with pytest.raises(GenerationError):
        PromptSpec(mode=MODE_TEXT_FRAGMENT, text="x", fragment="")
    with pytest.raises(GenerationError):
        PromptSpec(mode=MODE_TEXT_FRAGMENT, text="x", fragment="MA1")
    with pytest.raises(GenerationError):
        PromptSpec(mode=MODE_TEXT_ONLY, text="x", fragment="MA")


# -- generation loop ---------------------------------------------------------------


def test_mode_two_output_starts_with_fragment():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_FRAGMENT, text=records[0].text, fragment="MAARILLIN")
    result = generate(prompt, params, GenerationParams(max_len=15, seed=3))
    assert result.sequence.startswith("MAARILLIN")
    assert len(result.sequence) <= 15


def test_max_len_one_budget():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text)
    result = generate(prompt, params, GenerationParams(max_len=1, seed=0))
    assert len(result.sequence) <= 1


def test_fragment_longer_than_max_len_rejected():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_FRAGMENT, text=records[0].text, fragment="MAARILLIN")
    with pytest.raises(GenerationError, match="max_len"):
        generate(prompt, params, GenerationParams(max_len=5, seed=0))


def test_generation_is_deterministic_under_seed():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=records[1].text)
    gp = GenerationParams(max_len=12, seed=42)
    a = generate(prompt, params, gp)
    b = generate(prompt, params, gp)
    assert a.sequence == b.sequence
    assert [s.token_id for s in a.steps] == [s.token_id for s in b.steps]
    c = generate(prompt, params, GenerationParams(max_len=12, seed=43))
    assert (a.sequence != c.sequence) or ([s.token_id for s in a.steps] != [s.token_id for s in c.steps])


def test_output_contains_only_residues():
    params, records, _ = tiny_model()
    vocab = AminoVocabulary()
    for seed in range(5):
        result = generate(
            PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text),
            params,
            GenerationParams(max_len=20, seed=seed),
        )
        assert vocab.is_valid_sequence(result.sequence)


def test_every_emitted_token_was_inside_the_nucleus():
    params, records, _ = tiny_model()
    result = generate(
        PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text),
        params,
        GenerationParams(max_len=25, seed=7),
    )
    assert result.steps
    for step in result.steps:
        assert 0 <= step.nucleus_rank < step.nucleus_size


def test_eos_terminates_generation():
    params, records, _ = tiny_model()
    result = generate(
        PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text),
        params,
        GenerationParams(max_len=30, seed=1),
    )
    eos_steps = [s for s in result.steps if s.token == "<EOS>"]
    if eos_steps:
        assert result.steps[-1].token == "<EOS>"
        assert len(result.sequence) == len(result.steps) - 1


def test_overfit_single_pair_argmax_reproduces_it():
    records = synthetic_records(1, seed=9, min_len=10, max_len=14)
    cfg = tiny_config(d_model=32, n_layers=1, n_heads=2, c_size=2, d_text=32,
                      ffn_dim=64, dtype="float32")
    params, log = fit(records, [], cfg, TrainingConfig(batch_size=1, lr=3e-3, weight_decay=0.0),
                      epochs=400, seed=2, max_steps=400, stop_below_loss=0.02)
    assert log.losses("train")[-1] < 0.1
    result = generate(
        PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text),
        params,
        GenerationParams.argmax(max_len=20, seed=0),
    )
    assert result.sequence == records[0].sequence


def test_generate_candidates_derive_seeds():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text)
    gp = GenerationParams(max_len=10, seed=100)
    batch = generate_candidates(prompt, params, gp, n_samples=3)
    singles = [
        generate(prompt, params, GenerationParams(max_len=10, seed=100 + i)) for i in range(3)
    ]
    assert [r.sequence for r in batch] == [r.sequence for r in singles]


def test_fasta_writer_wraps_lines():
    fh = io.StringIO()
    gp = GenerationParams(seed=1)
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text="FUNCTION: x.")
    write_fasta([(fasta_header("gen-0000", prompt, gp), "A" * 125)], fh)
    lines = fh.getvalue().splitlines()
    assert lines[0].startswith(">gen-0000 mode=text-only digest=")
    assert [len(x) for x in lines[1:]] == [60, 60, 5]


# -- cached decoding against the full forward ---------------------------------------

TOLERANCES = {"float32": dict(rtol=1e-4, atol=1e-5), "float64": dict(rtol=1e-10, atol=1e-12)}
PROMPTS = {
    MODE_TEXT_ONLY: "",
    MODE_TEXT_FRAGMENT: "MKVLAAGIW",
}


def decoding_model(dtype):
    params, records, _ = tiny_model(config=tiny_config(dtype=dtype))
    scale_weights(params, 8.0)  # so that positions and the text move the logits
    params.head.b.data[AminoVocabulary.eos_id] = -1e4  # every sample runs to max_len
    return params, records


def prompt_for(mode, records):
    return PromptSpec(mode=mode, text=records[0].text, fragment=PROMPTS[mode])


def full_forward_logits(prompt, params, ids):
    """Last-position logits of a full ``model_forward`` over the prefix ``ids``."""
    encoding = params.text_encoder().encode(prompt.text)
    batch = assemble_batch([ids], [encoding], params.config.c_size, params.config.np_dtype)
    with nx.no_grad():
        logits, _ = model_forward(batch, params)
    return logits.data[0, -1]


def prompt_ids(prompt):
    return AminoVocabulary().encode_sequence(prompt.fragment, add_eos=False).tolist()


def cached_run(monkeypatch, prompt, params, gp, n_samples=1):
    """``generate_candidates`` with its two passes observed: (results, prompt
    passes, token-row shape of each sequence pass, each sample's
    last-position logits at each of its steps)."""
    prompt_passes, shapes, logits = [], [], []
    real_prompt, real_sequence = generation.prompt_forward, generation.sequence_forward

    def counted_prompt(*args):
        prompt_passes.append(1)
        return real_prompt(*args)

    def recorded_sequence(seq_ids, *args):
        out = real_sequence(seq_ids, *args)
        shapes.append(seq_ids.shape)
        logits.append(out[0].data[:, -1].copy())
        return out

    monkeypatch.setattr(generation, "prompt_forward", counted_prompt)
    monkeypatch.setattr(generation, "sequence_forward", recorded_sequence)
    results = generate_candidates(prompt, params, gp, n_samples)
    # the prefill row serves every sample; then the live samples keep their order
    per_sample = [[logits[0][0]] for _ in results]
    for step_logits in logits[1:]:
        live = [i for i, r in enumerate(results) if len(r.steps) > len(per_sample[i])]
        for i, row in zip(live, step_logits):
            per_sample[i].append(row)
    return results, len(prompt_passes), shapes, per_sample


def assert_full_forward_logits(prompt, params, results, cached, tolerance):
    """Each sample's logits at each step match a full forward over its prefix."""
    for result, sample_logits in zip(results, cached):
        ids = prompt_ids(prompt)
        for step, logits in zip(result.steps, sample_logits):
            reference = full_forward_logits(prompt, params, ids)
            np.testing.assert_allclose(logits, reference, **tolerance)
            ids.append(step.token_id)


def live_rows(results, n_fragment):
    """The token-row shape of each sequence pass: the single-row prefill of
    CLS and the fragment, then one row per sample still decoding."""
    n_passes = max(len(r.steps) for r in results)
    return [(1, 1 + n_fragment)] + [(sum(len(r.steps) > t for r in results), 1)
                                    for t in range(1, n_passes)]


@pytest.mark.parametrize("dtype", sorted(TOLERANCES))
@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_cached_logits_equal_full_forward_at_every_step(mode, dtype, monkeypatch):
    params, records = decoding_model(dtype)
    prompt = prompt_for(mode, records)
    results, _, _, cached = cached_run(monkeypatch, prompt, params,
                                       GenerationParams(max_len=24, seed=5), n_samples=3)
    n_steps = 24 - len(prompt.fragment)
    assert [len(c) for c in cached] == [len(r.steps) for r in results] == [n_steps] * 3
    assert_full_forward_logits(prompt, params, results, cached, TOLERANCES[dtype])


@pytest.mark.parametrize("dtype", sorted(TOLERANCES))
@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_candidate_rows_equal_lone_decodes(mode, dtype):
    params, records = decoding_model(dtype)
    prompt = prompt_for(mode, records)
    gp = GenerationParams(max_len=20, seed=8)
    rows = generate_candidates(prompt, params, gp, n_samples=3)
    lone = [generate(prompt, params, replace(gp, seed=8 + i)) for i in range(3)]
    assert rows == lone  # every GenerationStep field, penalized_logit included
    assert len({r.sequence for r in rows}) == 3


@pytest.mark.parametrize("gp", [
    pytest.param(GenerationParams(max_len=20, seed=6), id="nucleus"),
    pytest.param(GenerationParams(temperature=0.0, repetition_penalty=1.5, max_len=20, seed=6),
                 id="argmax"),
])
@pytest.mark.parametrize("dtype", sorted(TOLERANCES))
@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_every_step_is_what_sample_token_draws(mode, dtype, gp, monkeypatch):
    """Oracle for the decoding loop: each step of sample i equals
    ``sample_token`` on that step's blocked float64 logits, the sample's
    history and a generator replayed from ``seed + i``."""
    params, records = decoding_model(dtype)
    prompt = prompt_for(mode, records)
    vocab = AminoVocabulary()
    results, _, _, cached = cached_run(monkeypatch, prompt, params, gp, n_samples=3)
    for i, (result, sample_logits) in enumerate(zip(results, cached)):
        assert len(result.steps) == len(sample_logits) == 20 - len(prompt.fragment)
        history = set(prompt_ids(prompt)[1:])
        rng = np.random.default_rng(gp.seed + i)
        for step, logits in zip(result.steps, sample_logits):
            blocked = logits.astype(np.float64)
            blocked[[vocab.pad_id, vocab.cls_id, vocab.cross_id]] = -np.inf
            token_id, *draw = sample_token(blocked, history, gp, rng)
            history.add(token_id)
            assert step == GenerationStep(token_id, vocab.residue_of(token_id), *draw)


@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_rows_that_finish_early_leave_the_batch(mode, monkeypatch):
    # no EOS bias: at seed 0 each sample stops at a different step
    params, records, _ = tiny_model()
    prompt = prompt_for(mode, records)
    gp = GenerationParams(max_len=30, seed=0)
    results, _, shapes, cached = cached_run(monkeypatch, prompt, params, gp, n_samples=4)
    assert len({len(r.steps) for r in results}) == 4
    assert [r.steps[-1].token == "<EOS>" for r in results].count(True) >= 2
    assert shapes == live_rows(results, len(prompt.fragment))
    monkeypatch.undo()
    assert_full_forward_logits(prompt, params, results, cached, TOLERANCES["float64"])
    assert results == [generate(prompt, params, replace(gp, seed=i)) for i in range(4)]


@pytest.mark.parametrize("dtype", sorted(TOLERANCES))
@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_buffered_decode_logits_equal_concat_grown_kv_bitwise(mode, dtype, monkeypatch):
    """Every pass of a decode, which writes its K/V rows into preallocated
    buffers, gives the logits that ``sequence_forward`` gives over Tensor
    K/V grown by ``concat``."""
    params, records = decoding_model(dtype)
    prompt = prompt_for(mode, records)
    passes = []
    real = generation.sequence_forward

    def recorded(seq_ids, start, kv, psm, model_params):
        buffered = not isinstance(kv[0][0], Tensor)
        out = real(seq_ids, start, kv, psm, model_params)
        passes.append((seq_ids, start, psm, out[0].data.copy(), buffered))
        return out

    monkeypatch.setattr(generation, "sequence_forward", recorded)
    generate_candidates(prompt, params, GenerationParams(max_len=24, seed=5), n_samples=3)
    assert len(passes) == 24 - len(prompt.fragment) and all(p[-1] for p in passes)
    encoding = params.text_encoder().encode(prompt.text)
    batch = assemble_batch([prompt_ids(prompt)], [encoding], params.config.c_size,
                           params.config.np_dtype)
    with nx.no_grad():
        kv, _ = prompt_forward(batch, params)
        for seq_ids, start, psm, logits, _ in passes:
            if kv[0][0].shape[0] != len(seq_ids):  # the prefill row fans out
                kv = [tuple(Tensor(t.data.repeat(len(seq_ids), axis=0)) for t in layer_kv)
                      for layer_kv in kv]
            reference, kv, _ = sequence_forward(seq_ids, start, kv, psm, params)
            assert np.array_equal(logits, reference.data)


def test_decode_makes_no_concat_and_training_still_does(monkeypatch):
    params, records = decoding_model("float32")
    prompt = prompt_for(MODE_TEXT_FRAGMENT, records)
    calls = []
    real = nx.concat
    monkeypatch.setattr(nx, "concat", lambda *a, **k: calls.append(1) or real(*a, **k))
    generate_candidates(prompt, params, GenerationParams(max_len=24, seed=5), n_samples=3)
    assert calls == []
    # a grad-mode forward grows each layer's K and V by one concat each
    encoding = params.text_encoder().encode(prompt.text)
    batch = assemble_batch([prompt_ids(prompt)], [encoding], params.config.c_size,
                           params.config.np_dtype)
    model_forward(batch, params)
    assert len(calls) == 2 * params.config.n_layers


def test_decode_leaves_the_prompt_kv_unchanged_and_repeats(monkeypatch):
    params, records = decoding_model("float64")
    prompt = prompt_for(MODE_TEXT_FRAGMENT, records)
    prompt_kv = []
    real = generation.prompt_forward

    def recorded(*args):
        out = real(*args)
        prompt_kv.extend((t, t.data.copy()) for layer_kv in out[0] for t in layer_kv)
        return out

    monkeypatch.setattr(generation, "prompt_forward", recorded)
    gp = GenerationParams(max_len=24, seed=5)
    first = generate_candidates(prompt, params, gp, n_samples=3)
    assert len(prompt_kv) == 2 * params.config.n_layers
    assert all(np.array_equal(t.data, before) for t, before in prompt_kv)
    assert generate_candidates(prompt, params, gp, n_samples=3) == first


@pytest.mark.parametrize("dtype", sorted(TOLERANCES))
@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_cached_argmax_decoding_is_token_identical_to_full_forward(mode, dtype):
    params, records = decoding_model(dtype)
    prompt = prompt_for(mode, records)
    vocab = AminoVocabulary()
    ids = prompt_ids(prompt)
    reference = []
    while len(ids) - 1 < 24:
        last = full_forward_logits(prompt, params, ids).astype(np.float64)
        last[[vocab.pad_id, vocab.cls_id, vocab.cross_id]] = -np.inf
        # the penalty keeps argmax from settling on one residue
        reference.append(int(np.argmax(apply_repetition_penalty(last, set(ids[1:]), 1.5))))
        if reference[-1] == vocab.eos_id:
            break
        ids.append(reference[-1])
    gp = GenerationParams(temperature=0.0, repetition_penalty=1.5, max_len=24)
    result = generate(prompt, params, gp)
    assert [s.token_id for s in result.steps] == reference


@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_sampled_fasta_rerun_is_byte_identical(mode):
    params, records = decoding_model("float32")
    prompt = prompt_for(mode, records)
    gp = GenerationParams(max_len=30, seed=11)

    def fasta():
        fh = io.StringIO()
        samples = generate_candidates(prompt, params, gp, n_samples=2)
        write_fasta([(fasta_header(f"gen-{i}", prompt, gp), r.sequence)
                     for i, r in enumerate(samples)], fh)
        return fh.getvalue().encode()

    first = fasta()
    assert first == fasta()
    assert first.count(b">") == 2


@pytest.mark.parametrize("mode", sorted(PROMPTS))
def test_generate_runs_the_prompt_pass_once_then_one_row_per_token(mode, monkeypatch):
    params, records = decoding_model("float64")
    prompt = prompt_for(mode, records)
    for n_samples in (1, 3):
        _, prompt_passes, shapes, _ = cached_run(
            monkeypatch, prompt, params, GenerationParams(max_len=20, seed=2), n_samples)
        assert prompt_passes == 1
        n_decode = 20 - len(prompt.fragment) - 1
        assert shapes == [(1, 1 + len(prompt.fragment))] + [(n_samples, 1)] * n_decode
        monkeypatch.undo()
