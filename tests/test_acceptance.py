"""Acceptance criteria, one test per criterion, each printing a pass line
and asserting its stated tolerance and time budget."""

import itertools
import math
import time

import numpy as np
import pytest

from protdat import numerics as nx
from protdat.cli import run_command
from protdat.data import ProteinRecord, make_batch, synthetic_records, write_jsonl
from protdat.evaluation import (
    ResidueDistribution,
    condense_cca,
    global_sequence_identity,
    guidance_reference_curve,
    kl_divergence,
    plddt_from_pdb,
)
from protdat.generation import (
    MODE_TEXT_FRAGMENT,
    MODE_TEXT_ONLY,
    GenerationParams,
    PromptSpec,
    apply_repetition_penalty,
    generate,
    nucleus_filter,
    sample_token,
    softmax_with_temperature,
)
from protdat.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from protdat.tokenizer import AminoVocabulary, RESIDUES
from protdat.training import TrainingConfig, fit

from conftest import finite_difference_grad_check, scale_weights, tiny_config, tiny_model


def _report(num: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s / {budget:.0f}s budget)")


# -- 1. gradient correctness ---------------------------------------------------


def test_acceptance_01_gradient_correctness():
    t0 = time.monotonic()
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, c_size=3, d_text=16,
                      ffn_dim=32, dtype="float64")
    params, _, batch = tiny_model(config=cfg)
    scale_weights(params, 12.0)

    def loss_fn():
        logits, _ = model_forward(batch, params)
        return nx.next_token_cross_entropy(logits, batch.targets(), ignore_id=batch.pad_id)

    err = finite_difference_grad_check(
        loss_fn, dict(params.named_parameters()), eps=1e-5, max_coords_per_param=3, seed=0
    )
    assert err < 1e-4, f"worst relative error {err:.3e}"
    _report(1, "gradient correctness", t0, 10.0)


# -- 2. causality ----------------------------------------------------------------


def test_acceptance_02_causality_bitwise():
    t0 = time.monotonic()
    cfg = tiny_config()
    rng = np.random.default_rng(7)
    vocab = AminoVocabulary()
    residues = RESIDUES[:20]
    params, _, _ = tiny_model(config=cfg)
    provider = params.text_encoder()
    checked = 0
    for trial in range(100):
        lengths = rng.integers(3, 15, size=2)  # encoded length <= 16
        records = [
            ProteinRecord(
                f"t{trial}-{i}",
                f"FUNCTION: Synthetic case {trial} record {i}.",
                "".join(residues[j] for j in rng.integers(0, 20, lengths[i])),
            )
            for i in range(2)
        ]
        batch = make_batch(records, vocab, provider, cfg.c_size)
        logits, _ = model_forward(batch, params)
        which = int(rng.integers(2))
        seq = records[which].sequence
        if len(seq) < 2:
            continue
        pos = int(rng.integers(1, len(seq)))  # residue index to mutate (> 0)
        old = seq[pos]
        new = residues[(residues.index(old) + 1 + int(rng.integers(19))) % 20]
        if new == old:
            new = residues[(residues.index(old) + 1) % 20]
        mutated = list(records)
        mutated[which] = ProteinRecord(records[which].id, records[which].text,
                                       seq[:pos] + new + seq[pos + 1 :])
        batch2 = make_batch(mutated, vocab, provider, cfg.c_size)
        logits2, _ = model_forward(batch2, params)
        row = pos + 1  # CLS shifts sequence positions by one
        assert np.array_equal(logits.data[which, :row], logits2.data[which, :row]), trial
        assert (logits.data[which, row] != logits2.data[which, row]).any()
        checked += 1
    assert checked >= 95
    _report(2, f"causality on {checked} mutated batches", t0, 30.0)


# -- 3. fused-attention wiring ----------------------------------------------------


def test_acceptance_03_mcm_wiring_and_trace_shapes():
    t0 = time.monotonic()
    params, records, _ = tiny_model()
    cfg = params.config
    vocab = AminoVocabulary()
    provider = params.text_encoder()
    single = make_batch(records[:1], vocab, provider, cfg.c_size)
    s, t, c = single.seq_ids.shape[1], single.text_mask.shape[1], cfg.c_size
    assert single.ptm_mask.shape == (1, t, t)
    assert single.cim_mask.shape == (1, c, t)
    assert single.psm_mask.shape == (1, s, c + s)
    logits_a, trace = model_forward(single, params, trace=True)
    for layer in range(cfg.n_layers):
        assert trace.ptm[layer].shape == (t, t)
        assert trace.cim[layer].shape == (c, t)
        assert trace.cca[layer].shape == (s, c + s)
    condensed = condense_cca(trace.cca[0], c)
    assert condensed.shape == (s, 1 + s)
    assert np.allclose(condensed.sum(axis=1), 1.0, atol=1e-9)
    params.token_embedding.data[vocab.cross_id] = 0.0
    logits_b, _ = model_forward(single, params)
    delta = np.abs(logits_a.data - logits_b.data).max()
    assert delta > 0, "slot embedding is not live"
    _report(3, "mask/trace shapes + live slot path", t0, 5.0)


# -- 4 and 5: memorization and text conditioning -----------------------------------


@pytest.fixture(scope="module")
def memorized():
    records = synthetic_records(50, seed=20, min_len=16, max_len=64)
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=4, c_size=4, d_text=64,
                      ffn_dim=128, dtype="float32")
    tcfg = TrainingConfig(batch_size=10, lr=3e-3, weight_decay=0.0, clip_norm=5.0)
    t_train = time.monotonic()
    params, log = fit(records, [], cfg, tcfg, epochs=400, seed=6,
                      max_steps=2000, stop_below_loss=0.008)
    train_time = time.monotonic() - t_train
    t_gen = time.monotonic()
    outputs = []
    for i, rec in enumerate(records):
        result = generate(
            PromptSpec(mode=MODE_TEXT_ONLY, text=rec.text),
            params,
            GenerationParams.argmax(max_len=70, seed=0),
        )
        outputs.append(result.sequence)
    gen_time = time.monotonic() - t_gen
    return records, params, log, outputs, train_time, gen_time


def test_acceptance_04_overfitting_oracle(memorized):
    records, params, log, outputs, train_time, gen_time = memorized
    losses = log.losses("train")
    assert len(losses) <= 2000
    assert losses[-1] < 0.1, f"loss {losses[-1]:.3f} after {len(losses)} steps"
    exact = sum(out == rec.sequence for out, rec in zip(outputs, records))
    assert exact >= 45, f"only {exact}/50 sequences reproduced"
    total = train_time + gen_time
    assert total < 600, f"took {total:.0f}s"
    print(
        f"\nACCEPTANCE 04 overfitting oracle: PASS "
        f"(loss {losses[-1]:.3f} in {len(losses)} steps, {exact}/50 exact, "
        f"{total:.0f}s / 600s budget)"
    )


def test_acceptance_05_text_conditioning_swap(memorized):
    t0 = time.monotonic()
    records, params, log, outputs, *_ = memorized
    by_text = {rec.text: out for rec, out in zip(records, outputs)}
    pairs = [(records[i], records[i + 1]) for i in range(0, 50, 2)]
    swapped_ok = 0
    for a, b in pairs:
        # prompting with the partner's text must yield the partner's sequence
        if by_text[b.text] == b.sequence and by_text[a.text] == a.sequence:
            swapped_ok += 1
    assert swapped_ok >= 0.9 * len(pairs), f"{swapped_ok}/{len(pairs)} pairs swapped"
    _report(5, f"text swap on {swapped_ok}/{len(pairs)} pairs", t0, 60.0)


# -- 6. fragment prefix contract -----------------------------------------------


def test_acceptance_06_mode_two_prefix_contract():
    t0 = time.monotonic()
    cfg = ModelConfig(d_model=32, n_layers=1, n_heads=2, c_size=2, d_text=32,
                      ffn_dim=64, dtype="float32")
    params = init_params(cfg, seed=0, text_words=["function", "synthetic", "prompt"])
    rng = np.random.default_rng(11)
    for trial in range(100):
        frag = "".join(RESIDUES[:20][j] for j in rng.integers(0, 20, rng.integers(1, 11)))
        result = generate(
            PromptSpec(mode=MODE_TEXT_FRAGMENT, text="FUNCTION: synthetic prompt.", fragment=frag),
            params,
            GenerationParams(max_len=len(frag) + 3, seed=trial),
        )
        assert result.sequence.startswith(frag), (trial, frag, result.sequence)
    _report(6, "fragment prefix on 100 prompts", t0, 60.0)


# -- 7. sampling stack ------------------------------------------------------------


def test_acceptance_07_sampling_stack():
    t0 = time.monotonic()
    n = 100_000
    # nucleus frequencies vs the renormalized truncated distribution
    probs = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
    kept, kept_probs = nucleus_filter(probs, 0.7)
    assert kept.tolist() == [0, 1]
    rng = np.random.default_rng(99)
    gp = GenerationParams(temperature=1.0, top_p=0.7, repetition_penalty=1.0)
    draws = np.array([sample_token(np.log(probs), set(), gp, rng)[0] for _ in range(n)])
    for token, p in zip(kept.tolist(), kept_probs):
        freq = (draws == token).mean()
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma, (token, freq, p)
    assert set(np.unique(draws)) <= set(kept.tolist())

    # repetition-penalty arithmetic on a fixed table
    table = np.array([2.0, -2.0, 0.5, -0.5, 0.0, 3.0])
    penalized = apply_repetition_penalty(table, {0, 1, 4}, 2.0)
    assert penalized.tolist() == [1.0, -4.0, 0.5, -0.5, 0.0, 3.0]

    # neutral settings reduce to plain ancestral sampling
    logits = np.array([1.2, 0.3, -0.5, 2.0, -1.0])
    expected = softmax_with_temperature(logits, 1.0)
    rng = np.random.default_rng(7)
    gp = GenerationParams(temperature=1.0, top_p=1.0, repetition_penalty=1.0)
    counts = np.zeros(5)
    for _ in range(n):
        counts[sample_token(logits, set(), gp, rng)[0]] += 1
    freqs = counts / n
    for token, p in enumerate(expected):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freqs[token] - p) <= 3 * sigma, (token, freqs[token], p)
    _report(7, "nucleus/penalty/ancestral statistics", t0, 60.0)


# -- 8. alignment oracle -----------------------------------------------------------


def test_acceptance_08_alignment_oracle():
    from test_evaluation import enumerate_best_score, recursive_best_score

    t0 = time.monotonic()
    alphabet = "ACG"
    n_pairs = 0
    for la in range(1, 4):
        for lb in range(1, 4):
            for a in itertools.product(alphabet, repeat=la):
                for b in itertools.product(alphabet, repeat=lb):
                    a_s, b_s = "".join(a), "".join(b)
                    assert global_sequence_identity(a_s, b_s).score == enumerate_best_score(a_s, b_s)
                    n_pairs += 1
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 7)))
        b = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 7)))
        assert global_sequence_identity(a, b).score == recursive_best_score(a, b)
        n_pairs += 1
    for _ in range(1000):
        x = "".join(RESIDUES[:20][i] for i in rng.integers(0, 20, rng.integers(5, 60)))
        assert global_sequence_identity(x, x).identity == 1.0
    _report(8, f"alignment oracle on {n_pairs} pairs + 1000 self-identities", t0, 60.0)


# -- 9. metric fixtures ------------------------------------------------------------


def test_acceptance_09_metric_fixtures(tmp_path):
    t0 = time.monotonic()
    p = ResidueDistribution.from_sequences(["MKVARNDD", "CCQQEEGG"])
    assert kl_divergence(p, p) <= 1e-6
    two_bin_p = ResidueDistribution(np.array([1.0] + [0.0] * 24), 8)
    two_bin_q = ResidueDistribution(np.array([0.5, 0.5] + [0.0] * 23), 8)
    assert abs(kl_divergence(two_bin_p, two_bin_q) - math.log(2)) < 1e-6

    pdb = tmp_path / "fixture.pdb"
    rows = []
    for i, b in enumerate((40.0, 60.0, 80.0), start=1):
        rows.append(
            f"ATOM  {i:>5}  CA  ALA A{i:>4}    {1.0:8.3f}{2.0:8.3f}{3.0:8.3f}{1.00:6.2f}{b:6.2f}           C"
        )
    pdb.write_text("\n".join(rows) + "\n")
    mean, values = plddt_from_pdb(pdb)
    assert mean == 60.0 and values == [40.0, 60.0, 80.0]

    for m in (0, 50, 450):
        assert guidance_reference_curve(50, m) == 50 / (50 + m)
    _report(9, "KL / pLDDT / reference-curve fixtures", t0, 10.0)


# -- 10. persistence ----------------------------------------------------------------


def test_acceptance_10_checkpoint_persistence(tmp_path):
    t0 = time.monotonic()
    cfg = tiny_config(dtype="float32")
    params, _, batch = tiny_model(config=cfg)
    logits_before, _ = model_forward(batch, params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    logits_after, _ = model_forward(batch, loaded)
    assert np.array_equal(logits_before.data, logits_after.data)
    _report(10, "checkpoint round trip bit-exact", t0, 10.0)


# -- 11. end-to-end reproducibility ---------------------------------------------------


def test_acceptance_11_end_to_end_reproducibility(tmp_path):
    t0 = time.monotonic()
    data = tmp_path / "toy.jsonl"
    write_jsonl(data, synthetic_records(12, seed=31, min_len=10, max_len=20))
    text = synthetic_records(12, seed=31)[0].text
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = run_command(
            ["train", "--data", str(data), "--out", str(out), "--epochs", "100",
             "--max-steps", "200", "--seed", "12", "--lr", "1e-3",
             "--d-model", "32", "--n-layers", "1", "--n-heads", "2", "--c-size", "2",
             "--d-text", "32", "--ffn-dim", "64"]
        )
        assert rc == 0
        rc = run_command(
            ["generate", "--ckpt", str(out / "model.ckpt"), "--text", text,
             "--num", "10", "--max-len", "25", "--seed", "12",
             "--out", str(out / "gen.fasta")]
        )
        assert rc == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "gen.fasta").read_bytes() == (b / "gen.fasta").read_bytes()
    steps = len((a / "train_log.jsonl").read_text().splitlines())
    assert steps == 200
    _report(11, "byte-identical logs/checkpoint/FASTA over 200 steps + 10 generations", t0, 300.0)
