import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from protdat.data import (
    DatasetError,
    ProteinRecord,
    SplitSpec,
    batches_of,
    load_records,
    make_batch,
    read_dataset,
    split_records,
    synthetic_records,
    write_jsonl,
)
from protdat.tokenizer import (AminoVocabulary, PrecomputedTextEncoder, TrainableTextEncoder,
                               write_embedding_file)

from conftest import small_records

MGF_SEQUENCE = (
    "MGNRLIRSYLPNTVMSIEDKQNKYNETIEDSKICNKVYIKQSGKIDKQELTRIKKLGFFYSQKSDHEIERMLFSMPNGTFL"
    "LTDDATNENIFIVQKDLENGSLNIAKLEFKGKALYINGKDYYSLENYLKTFFEDFYKYPLIYNKNK"
)
MGF_TEXT = (
    "FUNCTION: Plays a role in virus cell tropism, and may be required for efficient "
    "virus replication in macrophages. SIMILARITY: Belongs to the asfivirus MGF 100 family."
)


def _provider(records):
    return TrainableTextEncoder(TrainableTextEncoder.build_vocabulary([r.text for r in records]))


# -- loading -------------------------------------------------------------------


def test_load_jsonl_fixture(tmp_path):
    path = tmp_path / "data.jsonl"
    write_jsonl(path, small_records() + [ProteinRecord("r3", "SIMILARITY: x family.", "WYV")])
    records = load_records(path)
    assert len(records) == 3
    assert records[0].id == "r1"


def test_load_rejects_digit_in_sequence(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"id": "ok", "text": "FUNCTION: fine.", "sequence": "MAV"},
        {"id": "bad", "text": "FUNCTION: fine.", "sequence": "MAV1"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = read_dataset(path)
    assert len(report.records) == 1
    assert len(report.errors) == 1
    assert "line 2" in report.errors[0]


def test_load_rejects_file_with_many_invalid_rows(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [{"id": f"r{i}", "text": "FUNCTION: ok.", "sequence": "MAV1"} for i in range(5)]
    rows.append({"id": "good", "text": "FUNCTION: ok.", "sequence": "MAV"})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(DatasetError, match="invalid rows"):
        load_records(path)


def test_table_format_round_trips_mgf_entry(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"{MGF_SEQUENCE}\t{MGF_TEXT}\n")
    report = read_dataset(path, "table")
    assert not report.errors
    records = report.records
    assert len(records) == 1
    rec = records[0]
    assert rec.sequence == MGF_SEQUENCE
    assert "FUNCTION:" in rec.text and "SIMILARITY:" in rec.text
    assert "Belongs to the asfivirus MGF 100 family" in rec.text


def test_record_requires_annotation_header():
    rec = ProteinRecord("x", "no headers here", "MAV")
    with pytest.raises(DatasetError, match="lacks"):
        rec.validate()


@pytest.mark.parametrize("sequence, message", [
    ("", "empty sequence"),
    ("M" * 1023, "sequence exceeds 1022 residues"),
])
def test_record_rejects_an_empty_or_overlong_sequence(sequence, message):
    ProteinRecord("x", "FUNCTION: y.", "M" * 1022).validate()  # the longest that fits
    with pytest.raises(DatasetError, match=f"^record 'x': {message}$"):
        ProteinRecord("x", "FUNCTION: y.", sequence).validate()


@pytest.mark.parametrize("row", ["MAV", "MAV\tFUNCTION: y.\textra"], ids=["1-column", "3-column"])
def test_table_rejects_a_row_without_two_columns(tmp_path, row):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"MKV\tFUNCTION: y.\n{row}\n")
    report = read_dataset(path, "table")
    assert [r.sequence for r in report.records] == ["MKV"]
    n = len(row.split("\t"))
    assert report.errors == [f"line 2: expected 2 tab-separated columns, got {n}"]


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_load_rejects_a_file_with_no_rows(tmp_path, content):
    path = tmp_path / "data.jsonl"
    path.write_text(content)
    with pytest.raises(DatasetError, match="no rows$"):
        load_records(path)


def test_jsonl_requires_fields(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"id": "x", "text": "FUNCTION: y."}) + "\n")
    report = read_dataset(path)
    assert report.errors and "missing fields" in report.errors[0]


@pytest.mark.parametrize("row", ["5", "null", '"id text sequence"', '[{"id": "x"}]'])
def test_jsonl_rejects_a_row_that_is_not_an_object(tmp_path, row):
    path = tmp_path / "data.jsonl"
    good = {"id": "ok", "text": "FUNCTION: y.", "sequence": "MAV"}
    path.write_text(json.dumps(good) + "\n" + row + "\n")
    report = read_dataset(path)
    assert [r.id for r in report.records] == ["ok"]
    assert report.errors == [f"line 2: expected a JSON object, got {type(json.loads(row)).__name__}"]


# -- splitting -----------------------------------------------------------------


def test_split_counts():
    records = synthetic_records(10, seed=1)
    train, valid, test = split_records(records, SplitSpec(8, 1, 1, seed=0))
    assert (len(train), len(valid), len(test)) == (8, 1, 1)


def test_split_deterministic():
    records = synthetic_records(20, seed=2)
    spec = SplitSpec(0.8, 0.1, 0.1, seed=5)
    a = split_records(records, spec)
    b = split_records(records, spec)
    assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30)
def test_split_union_is_input_multiset(n, seed):
    records = synthetic_records(n, seed=0)
    n_train = n - 2
    train, valid, test = split_records(records, SplitSpec(n_train, 1, 1, seed=seed))
    combined = sorted(r.id for part in (train, valid, test) for r in part)
    assert combined == sorted(r.id for r in records)
    ids = [set(r.id for r in part) for part in (train, valid, test)]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


@pytest.mark.parametrize("parts, n, counts", [
    ((0.5, 0.5, 0.0), 3, (2, 1, 0)),  # rounded apart, valid would take 2 and test -1
    ((0.5, 0.5, 0.0), 1, (0, 1, 0)),  # the only record stays out of a 0-fraction test split
    ((0.8, 0.1, 0.1), 10, (8, 1, 1)),
    # whole numbers that sum to 1 are fractions: all records to one split
    ((1.0, 0.0, 0.0), 12, (12, 0, 0)),
    ((0.0, 1.0, 0.0), 12, (0, 12, 0)),
    ((0.0, 0.0, 1.0), 12, (0, 0, 12)),
    ((8.0, 2.0, 2.0), 12, (8, 2, 2)),  # other whole numbers stay counts
])
def test_split_fractions_give_counts_that_sum_to_n(parts, n, counts):
    assert SplitSpec(*parts).counts(n) == counts


def test_split_rejects_fractions_that_do_not_sum_to_one():
    with pytest.raises(DatasetError, match="split fractions must sum to 1"):
        SplitSpec(0.8, 0.1, 0.05).counts(12)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(1, 60))
@settings(max_examples=300)
def test_split_fraction_counts_are_shares_of_n_and_keep_the_rounded_ones(a, b, c, n):
    total = a + b + c
    assume(total and max(a, b, c) < total)  # some value is a fraction in (0, 1)
    parts = (a / total, b / total, c / total)
    counts = SplitSpec(*parts).counts(n)
    assert sum(counts) == n and min(counts) >= 0
    assert all(k == 0 for k, p in zip(counts, parts) if p == 0)
    # where rounding each of train and valid already gives such counts, they stand
    rounded = (round(parts[0] * n), round(parts[1] * n))
    rounded += (n - sum(rounded),)
    if min(rounded) >= 0 and all(k == 0 for k, p in zip(rounded, parts) if p == 0):
        assert counts == rounded


def test_split_rejects_infeasible_counts():
    with pytest.raises(DatasetError):
        split_records(synthetic_records(3, 0), SplitSpec(3, 1, 1, seed=0))


@pytest.mark.parametrize("parts", [(-5, 5, 5), (5, -0.5, 0.5), (1.5, -0.3, -0.2), (0.5, 0.5, 2.5),
                                   (float("nan"), 0, 0), (float("inf"), 0, 0)])
def test_split_rejects_negative_and_non_whole_values(parts):
    with pytest.raises(DatasetError, match="neither a count nor a fraction"):
        split_records(synthetic_records(12, 0), SplitSpec(*parts, seed=0))


# -- batching ------------------------------------------------------------------


def test_batch_mask_single_record():
    # encoded row length 4 (two residues + CLS/EOS), c_size 2
    records = [ProteinRecord("a", "FUNCTION: tiny.", "MK")]
    batch = make_batch(records, AminoVocabulary(), _provider(records), c_size=2)
    assert batch.seq_ids.shape == (1, 4)
    assert batch.psm_mask.shape == (1, 4, 6)
    assert batch.psm_mask[0, :, :2].all()  # slot columns always visible
    assert not batch.psm_mask[0, 0, 5]  # future key blocked
    assert batch.psm_mask[0, 3, 5]  # self visible at the last step


def test_batch_pads_and_blocks_short_record():
    # encoded row lengths 3 and 5
    records = [
        ProteinRecord("short", "FUNCTION: one.", "M"),
        ProteinRecord("long", "FUNCTION: two.", "MKV"),
    ]
    vocab = AminoVocabulary()
    batch = make_batch(records, vocab, _provider(records), c_size=2)
    assert batch.seq_ids.shape[1] == 5
    assert (batch.seq_ids[0, 3:] == vocab.pad_id).all()
    c = batch.cim_mask.shape[1]
    # PAD positions of the short record are blocked as keys for every query
    assert not batch.psm_mask[0, :, c + 3].any()
    assert not batch.psm_mask[0, :, c + 4].any()
    # but real keys of the long record stay visible
    assert batch.psm_mask[1, 4, c + 4]


def test_batch_causal_mask_matches_definition_exhaustively():
    records = [ProteinRecord("a", "FUNCTION: x.", "MKVW")]  # encoded length 6
    vocab = AminoVocabulary()
    batch = make_batch(records, vocab, _provider(records), c_size=3)
    s, c = batch.seq_ids.shape[1], batch.cim_mask.shape[1]
    assert s == 6
    for q in range(s):
        for k in range(c + s):
            expected = True if k < c else (k - c) <= q
            assert batch.psm_mask[0, q, k] == expected, (q, k)


def test_batch_mask_shapes_and_text():
    records = small_records()
    batch = make_batch(records, AminoVocabulary(), _provider(records), c_size=4)
    t, s = batch.text_mask.shape[1], batch.seq_ids.shape[1]
    assert batch.ptm_mask.shape == (2, t, t)
    assert batch.cim_mask.shape == (2, 4, t)
    assert batch.psm_mask.shape == (2, s, 4 + s)
    # text padding is blocked as keys for both branches
    pad_cols = ~batch.text_mask[0]
    assert not batch.ptm_mask[0][:, pad_cols].any()
    assert not batch.cim_mask[0][:, pad_cols].any()


def test_batch_targets_are_shifted_next_tokens():
    records = [ProteinRecord("a", "FUNCTION: x.", "MK")]
    vocab = AminoVocabulary()
    batch = make_batch(records, vocab, _provider(records), c_size=2)
    targets = batch.targets()
    assert targets[0].tolist() == batch.seq_ids[0, 1:].tolist() + [vocab.pad_id]
    # loss-contributing positions = non-PAD next-token positions exactly
    contributing = targets[0] != vocab.pad_id
    assert contributing.tolist() == [True, True, True, False]


def test_batch_pads_each_text_array_with_zeros(tmp_path):
    records = small_records()
    vocab = AminoVocabulary()
    provider = _provider(records)
    batch = make_batch(records, vocab, provider, c_size=2)
    lengths = [len(provider.encode(r.text)) for r in records]
    assert batch.text.dtype == np.int64 and batch.text.shape == (2, max(lengths))
    for row, mask, rec, n in zip(batch.text, batch.text_mask, records, lengths):
        assert np.array_equal(row[:n], provider.encode(rec.text)) and not row[n:].any()
        assert mask.tolist() == [True] * n + [False] * (len(row) - n)

    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"r1": np.full((2, 3), 1.5, dtype=np.float32),
                                "r2": np.full((4, 3), -2.0, dtype=np.float32)})
    batch = make_batch(records, vocab, PrecomputedTextEncoder(path), c_size=2, dtype=np.float64)
    assert batch.text.dtype == np.float64 and batch.text.shape == (2, 4, 3)
    assert (batch.text[0, :2] == 1.5).all() and not batch.text[0, 2:].any()
    assert (batch.text[1] == -2.0).all()
    assert batch.text_mask.tolist() == [[True, True, False, False], [True] * 4]


def test_batch_rejects_empty():
    with pytest.raises(DatasetError):
        make_batch([], AminoVocabulary(), None, c_size=2)


def test_batches_of_is_deterministic():
    records = synthetic_records(17, seed=3)
    a = [[r.id for r in chunk] for chunk in batches_of(records, 5, np.random.default_rng(9))]
    b = [[r.id for r in chunk] for chunk in batches_of(records, 5, np.random.default_rng(9))]
    assert a == b
    assert [len(c) for c in a] == [5, 5, 5, 2]
