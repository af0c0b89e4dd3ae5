import io
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protdat import evaluation
from protdat.evaluation import (
    EvaluationError,
    ResidueDistribution,
    condense_cca,
    export_attention_maps,
    global_sequence_identity,
    guidance_reference_curve,
    kl_divergence,
    parameter_sweep,
    parse_tmalign_output,
    plddt_from_pdb,
    read_fasta,
    sweep_cell_seed,
    write_sweep_csv,
)
from protdat.generation import (MODE_TEXT_ONLY, GenerationParams, PromptSpec, generate,
                                trace_attention)
from protdat.tokenizer import AminoVocabulary

from conftest import tiny_model

MATCH, MISMATCH, GAP = 2, -1, -2


def enumerate_best_score(a: str, b: str) -> int:
    """Exhaustive enumeration of every global alignment (no memoization)."""
    best = [-(10**9)]

    def rec(i, j, score):
        if i == len(a) and j == len(b):
            best[0] = max(best[0], score)
            return
        if i < len(a) and j < len(b):
            rec(i + 1, j + 1, score + (MATCH if a[i] == b[j] else MISMATCH))
        if i < len(a):
            rec(i + 1, j, score + GAP)
        if j < len(b):
            rec(i, j + 1, score + GAP)

    rec(0, 0, 0)
    return best[0]


def recursive_best_score(a: str, b: str) -> int:
    """Independent top-down recursion with memoization (for longer pairs)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def f(i, j):
        if i == 0 and j == 0:
            return 0
        options = []
        if i > 0 and j > 0:
            options.append(f(i - 1, j - 1) + (MATCH if a[i - 1] == b[j - 1] else MISMATCH))
        if i > 0:
            options.append(f(i - 1, j) + GAP)
        if j > 0:
            options.append(f(i, j - 1) + GAP)
        return max(options)

    return f(len(a), len(b))


# -- alignment ------------------------------------------------------------------


def test_identity_of_identical_strings():
    r = global_sequence_identity("MKVLA", "MKVLA")
    assert r.identity == 1.0
    assert "-" not in r.aligned_a + r.aligned_b
    assert r.score == MATCH * 5


def test_identity_of_disjoint_strings():
    assert global_sequence_identity("AAAA", "CCCC").identity == 0.0


def test_alignment_rejects_empty():
    with pytest.raises(EvaluationError):
        global_sequence_identity("", "A")


def test_alignment_matches_exhaustive_enumeration_small():
    alphabet = "ACG"
    for la in range(1, 4):
        for lb in range(1, 4):
            for a in itertools.product(alphabet, repeat=la):
                for b in itertools.product(alphabet, repeat=lb):
                    a_s, b_s = "".join(a), "".join(b)
                    r = global_sequence_identity(a_s, b_s)
                    assert r.score == enumerate_best_score(a_s, b_s), (a_s, b_s)
                    assert r.aligned_a.replace("-", "") == a_s
                    assert r.aligned_b.replace("-", "") == b_s


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_alignment_matches_memoized_recursion_medium(seed):
    rng = np.random.default_rng(seed)
    alphabet = "ACG"
    a = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 7)))
    b = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 7)))
    assert global_sequence_identity(a, b).score == recursive_best_score(a, b)


def test_identity_is_symmetric(rng):
    alphabet = "ARNDC"
    for _ in range(30):
        a = "".join(alphabet[i] for i in rng.integers(0, 5, rng.integers(3, 12)))
        b = "".join(alphabet[i] for i in rng.integers(0, 5, rng.integers(3, 12)))
        assert global_sequence_identity(a, b).identity == pytest.approx(
            global_sequence_identity(b, a).identity
        )


# -- residue distributions and KL ----------------------------------------------


def test_kl_of_identical_distributions_is_tiny():
    p = ResidueDistribution.from_sequences(["MKVARN", "DDCCQQ"])
    assert kl_divergence(p, p) <= 1e-6


def test_kl_two_bin_analytic_case():
    p = ResidueDistribution(probs=np.array([1.0] + [0.0] * 24), count=10)
    q = ResidueDistribution(probs=np.array([0.5, 0.5] + [0.0] * 23), count=10)
    assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-6)


def test_kl_matches_high_precision_reference(rng):
    pv = rng.dirichlet(np.ones(25))
    qv = rng.dirichlet(np.ones(25))
    eps = 1e-8
    with mpmath.workdps(50):
        ps = [mpmath.mpf(float(x)) + eps for x in pv]
        qs = [mpmath.mpf(float(x)) + eps for x in qv]
        zp, zq = sum(ps), sum(qs)
        expected = float(sum((p / zp) * mpmath.log((p / zp) / (q / zq)) for p, q in zip(ps, qs)))
    got = kl_divergence(ResidueDistribution(pv, 100), ResidueDistribution(qv, 100))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got >= 0


def test_kl_nonnegative_on_random_pairs(rng):
    for _ in range(50):
        p = ResidueDistribution(rng.dirichlet(np.ones(25)), 10)
        q = ResidueDistribution(rng.dirichlet(np.ones(25)), 10)
        assert kl_divergence(p, q) >= 0


def test_distribution_rejects_unknown_symbols():
    with pytest.raises(EvaluationError):
        ResidueDistribution.from_sequences(["MK1"])


# -- pLDDT ----------------------------------------------------------------------


def _pdb_line(serial, resseq, bfactor, atom="CA", record="ATOM"):
    return (
        f"{record:<6}{serial:>5} {atom:^4} ALA A{resseq:>4}    "
        f"{1.0:8.3f}{2.0:8.3f}{3.0:8.3f}{1.00:6.2f}{bfactor:6.2f}           C  "
    )


def test_plddt_constant_field(tmp_path):
    path = tmp_path / "pred.pdb"
    path.write_text("\n".join(_pdb_line(i + 1, i + 1, 50.0) for i in range(3)) + "\nEND\n")
    mean, values = plddt_from_pdb(path)
    assert mean == 50.0
    assert values == [50.0, 50.0, 50.0]


def test_plddt_hand_built_fixture(tmp_path):
    path = tmp_path / "pred.pdb"
    rows = [
        _pdb_line(1, 1, 40.0, atom="N"),
        _pdb_line(2, 1, 40.0),
        _pdb_line(3, 2, 60.0),
        _pdb_line(4, 3, 80.0),
        _pdb_line(5, 3, 10.0, atom="CB"),  # non-CA B-factor must be ignored
    ]
    path.write_text("\n".join(rows) + "\n")
    mean, values = plddt_from_pdb(path)
    assert values == [40.0, 60.0, 80.0]
    assert mean == 60.0


def test_plddt_rejects_file_without_ca(tmp_path):
    path = tmp_path / "het.pdb"
    path.write_text(_pdb_line(1, 1, 50.0, record="HETATM") + "\n")
    with pytest.raises(EvaluationError, match="no CA"):
        plddt_from_pdb(path)


def test_plddt_skips_malformed_lines_with_warning(tmp_path):
    path = tmp_path / "mixed.pdb"
    path.write_text("ATOM incomplete\n" + _pdb_line(1, 1, 42.0) + "\n")
    with pytest.warns(UserWarning, match="skipped"):
        mean, values = plddt_from_pdb(path)
    assert values == [42.0]


def test_plddt_skips_an_unparsable_b_factor_with_warning(tmp_path):
    path = tmp_path / "mixed.pdb"
    bad = _pdb_line(1, 1, 42.0)
    bad = bad[:60] + "  n/a " + bad[66:]
    path.write_text(bad + "\n" + _pdb_line(2, 2, 70.0) + "\n")
    with pytest.warns(UserWarning, match="^line 1: unparsable B-factor, skipped$"):
        mean, values = plddt_from_pdb(path)
    assert (mean, values) == (70.0, [70.0])


# -- structure-alignment tool output ----------------------------------------------


TMALIGN_FIXTURE = """\
Name of Chain_1: gen.pdb
Name of Chain_2: ref.pdb
Aligned length=  144, RMSD=   3.48, Seq_ID=n_identical/n_aligned= 0.231

TM-score= 0.61200 (if normalized by length of Chain_1, i.e., LN=148, d0=4.51)
TM-score= 0.60700 (if normalized by length of Chain_2, i.e., LN=152, d0=4.58)
"""


def test_tmalign_two_normalizations_takes_reference_chain():
    tm, rmsd = parse_tmalign_output(TMALIGN_FIXTURE)
    assert tm == 0.607
    assert rmsd == 3.48


def test_tmalign_single_line_fixture():
    tm, rmsd = parse_tmalign_output("TM-score= 0.60700 blah\nRMSD=   3.48\n")
    assert (tm, rmsd) == (0.607, 3.48)


def test_tmalign_rejects_empty_text():
    with pytest.raises(EvaluationError):
        parse_tmalign_output("")


def test_tmalign_rejects_text_without_an_rmsd_field():
    with pytest.raises(EvaluationError, match="no RMSD field found"):
        parse_tmalign_output("TM-score= 0.60700 (if normalized by length of Chain_2)\n")


# -- attention export + reference curve ------------------------------------------


def _traced_generation():
    params, records, _ = tiny_model()
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=records[0].text)
    result = generate(prompt, params, GenerationParams(max_len=6, seed=5))
    return params, result, trace_attention(prompt, result.sequence, params)


def test_attention_trace_shapes_follow_contract():
    params, result, trace = _traced_generation()
    c = params.config.c_size
    s = len(result.sequence) + 1  # CLS + residues (EOS not appended to ids)
    t = trace.ptm[0].shape[0]
    for layer in range(params.config.n_layers):
        assert trace.ptm[layer].shape == (t, t)
        assert trace.cim[layer].shape == (c, t)
        assert trace.cca[layer].shape == (s, c + s)
        assert np.allclose(trace.cca[layer].sum(axis=-1), 1.0, atol=1e-9)


def test_export_attention_maps(tmp_path):
    params, result, trace = _traced_generation()
    c = params.config.c_size
    entries = export_attention_maps(trace, condense_cross=True, out_dir=tmp_path)
    assert (tmp_path / "attention_manifest.json").exists()
    cca0 = np.loadtxt(tmp_path / "cca_layer00.csv", delimiter=",")
    s = trace.cca[0].shape[0]
    assert cca0.shape == (s, 1 + s)
    assert np.allclose(cca0.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(cca0[:, 0], trace.cca[0][:, :c].sum(axis=1), atol=1e-12)
    raw_entries = export_attention_maps(trace, condense_cross=False, out_dir=tmp_path / "raw")
    raw0 = np.loadtxt(tmp_path / "raw" / "cca_layer00.csv", delimiter=",")
    assert raw0.shape == (s, c + s)
    assert len(entries) == len(raw_entries) == 3 * (params.config.n_layers + 1)


def test_condense_cca_preserves_row_mass(rng):
    m = rng.dirichlet(np.ones(9), size=4)
    condensed = condense_cca(m, 3)
    assert condensed.shape == (4, 7)
    assert np.allclose(condensed.sum(axis=1), 1.0)


def test_guidance_reference_curve_values():
    assert guidance_reference_curve(50, 0) == 1.0
    assert guidance_reference_curve(50, 50) == 0.5
    assert guidance_reference_curve(50, 450) == 0.1
    with pytest.raises(EvaluationError):
        guidance_reference_curve(0, 3)
    with pytest.raises(EvaluationError):
        guidance_reference_curve(5, -1)


# -- FASTA + sweep -----------------------------------------------------------------


def test_read_fasta_round_trip(tmp_path):
    from protdat.generation import write_fasta

    path = tmp_path / "x.fasta"
    entries = [("one meta=1", "MKV" * 30), ("two", "ARN")]
    with open(path, "w") as fh:
        write_fasta(entries, fh)
    assert read_fasta(path) == entries


def test_read_fasta_rejects_a_sequence_before_any_header(tmp_path):
    path = tmp_path / "x.fasta"
    path.write_text("MKV\n>one\nARN\n")
    with pytest.raises(EvaluationError,
                       match=f"^{re.escape(str(path))}: line 1: FASTA body before any header$"):
        read_fasta(path)


def test_sweep_cell_whose_every_sample_is_empty():
    params, records, _ = tiny_model()
    params.head.b.data[AminoVocabulary.eos_id] = 1e4  # every sample ends at its first token
    cells = parameter_sweep(params, records, [0.85], [1.0], GenerationParams(max_len=8, seed=3))
    fh = io.StringIO()
    write_sweep_csv(cells, fh)
    assert fh.getvalue().splitlines()[1] == "0.85,1.0,nan,0.000000,2"


def test_sweep_single_cell_and_determinism():
    params, records, _ = tiny_model()
    gp = GenerationParams(max_len=8, seed=17)
    cells_a = parameter_sweep(params, records, [0.85], [1.0], gp)
    cells_b = parameter_sweep(params, records, [0.85], [1.0], gp)
    assert len(cells_a) == 1
    cell = cells_a[0]
    assert cell.n_prompts == 2
    assert math.isfinite(cell.mean_identity)
    assert cells_a == cells_b


def test_sweep_decomposition_oracle():
    """Cell metrics equal re-running generation + metrics outside the sweep."""
    params, records, _ = tiny_model()
    gp = GenerationParams(max_len=8, seed=23)
    grid = parameter_sweep(params, records, [0.9, 1.0], [0.8], gp)
    cell_index = 1  # row-major: (0.9,0.8) then (1.0,0.8)
    idents, kls = [], []
    for j, rec in enumerate(records):
        gp_j = GenerationParams(
            temperature=0.8, top_p=1.0, repetition_penalty=gp.repetition_penalty,
            max_len=8, seed=sweep_cell_seed(23, cell_index, j),
        )
        r = generate(PromptSpec(mode=MODE_TEXT_ONLY, text=rec.text), params, gp_j)
        idents.append(global_sequence_identity(r.sequence, rec.sequence).identity)
        kls.append(
            kl_divergence(
                ResidueDistribution.from_sequences([r.sequence]),
                ResidueDistribution.from_sequences([rec.sequence]),
            )
        )
    assert grid[1].mean_identity == pytest.approx(float(np.mean(idents)), abs=1e-12)
    assert grid[1].mean_kl == pytest.approx(float(np.mean(kls)), abs=1e-12)


def test_sweep_decodes_once_per_cell_and_prompt_through_evaluation_generate(monkeypatch):
    """The sweep looks ``generate`` up on the evaluation module, once per
    (cell, prompt) in row-major order, with the cell's seed and the record's
    id, so a wrapper there sees every sample (perfbench counts them so)."""
    params, records, _ = tiny_model()
    gp = GenerationParams(max_len=8, seed=5)
    top_ps, temperatures = [0.5, 1.0], [0.7, 0.0]
    plain = parameter_sweep(params, records, top_ps, temperatures, gp)
    calls = []

    def recorded(prompt, params_, cell_gp, **kwargs):
        calls.append((prompt.record_id, cell_gp.top_p, cell_gp.temperature, cell_gp.seed))
        return generate(prompt, params_, cell_gp, **kwargs)

    monkeypatch.setattr(evaluation, "generate", recorded)
    wrapped = parameter_sweep(params, records, top_ps, temperatures, gp)
    assert calls == [(rec.id, top_p, temperature, sweep_cell_seed(gp.seed, i, j))
                     for i, (top_p, temperature) in enumerate(itertools.product(top_ps,
                                                                               temperatures))
                     for j, rec in enumerate(records)]
    assert repr(wrapped) == repr(plain)  # repr: a NaN cell equals itself


def test_sweep_rejects_empty_grid():
    params, records, _ = tiny_model()
    with pytest.raises(EvaluationError):
        parameter_sweep(params, records, [], [1.0], GenerationParams())


def test_sweep_csv_format():
    from protdat.evaluation import SweepCell

    fh = io.StringIO()
    write_sweep_csv([SweepCell(0.85, 1.0, 0.5, 0.25, 2)], fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "top_p,temperature,mean_kl,mean_identity,n_prompts"
    assert lines[1].startswith("0.85,1.0,0.5")
