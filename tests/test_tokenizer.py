import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protdat.tokenizer import (
    MAX_SEQ_TOKENS,
    MAX_TEXT_TOKENS,
    RESIDUES,
    AminoVocabulary,
    PrecomputedTextEncoder,
    TokenizerError,
    TrainableTextEncoder,
    split_words,
    write_embedding_file,
)


def test_vocabulary_layout(vocab):
    assert len(RESIDUES) == 25
    assert vocab.size == 29
    specials = {vocab.pad_id, vocab.cls_id, vocab.eos_id, vocab.cross_id}
    ids = specials | set(vocab.encode_sequence(RESIDUES, add_eos=False)[1:].tolist())
    assert ids == set(range(vocab.size))
    for special in specials:
        with pytest.raises(TokenizerError):
            vocab.residue_of(special)


def test_encode_empty_sequence(vocab):
    assert vocab.encode_sequence("").tolist() == [
        vocab.cls_id,
        vocab.eos_id,
    ]


def test_encode_round_trip(vocab):
    ids = vocab.encode_sequence("MAV", add_eos=False)
    assert ids[0] == vocab.cls_id
    assert [vocab.residue_of(i) for i in ids[1:].tolist()] == ["M", "A", "V"]
    assert vocab.decode_sequence(ids) == "MAV"


def test_encode_table4_prompt_fragment(vocab):
    fragment = "MAARILLIN"
    prompt = vocab.encode_sequence(fragment, add_eos=False)
    assert len(prompt) == 10 and prompt[0] == vocab.cls_id
    full = vocab.encode_sequence(fragment)
    assert len(full) == 11
    assert full[0] == vocab.cls_id and full[-1] == vocab.eos_id
    assert vocab.decode_sequence(full) == fragment


def test_decode_strips_specials_and_stops_at_eos(vocab):
    m, k, w = vocab.encode_sequence("MKW", add_eos=False)[1:].tolist()
    ids = [vocab.cls_id, m, k, vocab.eos_id]
    assert vocab.decode_sequence(ids) == "MK"
    assert vocab.decode_sequence([vocab.cls_id, vocab.eos_id]) == ""
    after_eos = ids + [w]
    assert vocab.decode_sequence(after_eos) == "MK"


def test_decode_rejects_invalid_id(vocab):
    with pytest.raises(TokenizerError):
        vocab.decode_sequence([vocab.size])


def test_encode_rejects_unknown_character_with_position(vocab):
    with pytest.raises(TokenizerError, match="position 3"):
        vocab.encode_sequence("MAV1")


def test_encode_rejects_over_length(vocab):
    with pytest.raises(TokenizerError):
        vocab.encode_sequence("A" * (MAX_SEQ_TOKENS - 1))
    # exactly at the cap is fine
    ids = vocab.encode_sequence("A" * (MAX_SEQ_TOKENS - 2))
    assert len(ids) == MAX_SEQ_TOKENS


@given(st.text(alphabet=RESIDUES, min_size=0, max_size=80))
@settings(max_examples=1000)
def test_encode_decode_identity(seq):
    vocab = AminoVocabulary()
    assert vocab.decode_sequence(vocab.encode_sequence(seq)) == seq


# -- trainable text provider ---------------------------------------------------


def _encoder(texts):
    return TrainableTextEncoder(TrainableTextEncoder.build_vocabulary(texts))


def test_trainable_shapes_and_mask():
    enc = _encoder(["alpha beta gamma delta epsilon"])
    out = enc.encode("alpha beta gamma delta epsilon")  # ids the model embeds from its live table
    assert out.shape == (5,) and out.dtype == np.int64
    assert (out > 0).all() and out.max() <= len(enc.words)


def test_trainable_is_deterministic():
    enc = _encoder(["one two three"])
    a = enc.encode("one two three")
    b = enc.encode("one two three")
    assert np.array_equal(a, b)
    assert a.dtype == np.int64


def test_trainable_oov_maps_to_shared_unk():
    enc = _encoder(["known words only"])
    out = enc.encode("known unseen1 unseen2")
    assert out[0] != 0
    assert out[1] == 0 and out[2] == 0  # one shared UNK row


def test_trainable_truncates_long_text_with_warning():
    enc = _encoder(["filler"])
    text = " ".join(f"w{i}" for i in range(MAX_TEXT_TOKENS + 10))
    with pytest.warns(UserWarning, match="truncated"):
        out = enc.encode(text)
    assert out.shape == (MAX_TEXT_TOKENS,)


def test_trainable_rejects_empty_text():
    enc = _encoder(["filler"])
    with pytest.raises(TokenizerError):
        enc.encode("")
    with pytest.raises(TokenizerError):
        enc.encode("...")


def test_split_words_lowercases_and_splits_punctuation():
    assert split_words("FUNCTION: Binds DNA; cleaves RNA-like chains.") == [
        "function", "binds", "dna", "cleaves", "rna", "like", "chains",
    ]


# -- precomputed provider --------------------------------------------------------


def test_precomputed_round_trips_exact_rows(tmp_path):
    path = tmp_path / "emb.bin"
    rows = {
        "rec-a": np.array([[1.5, -2.25], [0.5, 4.0]], dtype=np.float32),
        "rec-b": np.array([[7.0, 8.0]], dtype=np.float32),
    }
    write_embedding_file(path, rows)
    enc = PrecomputedTextEncoder(path)
    assert enc.d_text == 2
    out = enc.encode("anything", record_id="rec-a")
    assert out.shape == (2, 2) and out.dtype == np.float32
    assert np.array_equal(out, rows["rec-a"])
    out_b = enc.encode("anything", record_id="rec-b")
    assert np.array_equal(out_b, rows["rec-b"])


def test_precomputed_file_has_one_width(tmp_path):
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"r1": np.ones((2, 8), dtype=np.float32),
                                "r2": np.ones((1, 8), dtype=np.float32)})
    head, manifest, blob = path.read_bytes().split(b"\n", 2)
    manifest = json.loads(manifest)
    assert manifest == {"d_text": 8, "records": {"r1": {"offset": 0, "tokens": 2},
                                                 "r2": {"offset": 64, "tokens": 1}}}
    assert PrecomputedTextEncoder(path).records == {"r1": (0, 2), "r2": (64, 1)}
    # a record may repeat the file's width, as files of earlier writers do
    manifest["records"]["r1"]["d_text"] = 8
    path.write_bytes(b"\n".join([head, json.dumps(manifest).encode(), blob]))
    assert PrecomputedTextEncoder(path).encode("text", record_id="r1").shape == (2, 8)
    manifest["records"]["r2"]["d_text"] = 4
    path.write_bytes(b"\n".join([head, json.dumps(manifest).encode(), blob]))
    with pytest.raises(TokenizerError, match=f"^embedding file {re.escape(str(path))}: record "
                                             "'r2' has d_text 4, the file d_text 8$"):
        PrecomputedTextEncoder(path)


def test_precomputed_rejects_missing_record(tmp_path):
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"only": np.zeros((1, 4), dtype=np.float32)})
    enc = PrecomputedTextEncoder(path)
    with pytest.raises(TokenizerError, match="no precomputed embedding"):
        enc.encode("text", record_id="absent")
    with pytest.raises(TokenizerError):
        enc.encode("text", record_id=None)


def test_precomputed_rejects_a_record_with_no_tokens(tmp_path):
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"full": np.ones((2, 4), dtype=np.float32),
                                "hollow": np.ones((0, 4), dtype=np.float32)})
    enc = PrecomputedTextEncoder(path)
    assert enc.encode("text", record_id="full").shape == (2, 4)
    with pytest.raises(TokenizerError, match="record 'hollow' has no tokens"):
        enc.encode("text", record_id="hollow")


def test_precomputed_truncates_long_text_with_warning(tmp_path):
    path = tmp_path / "emb.bin"
    rows = np.arange((MAX_TEXT_TOKENS + 3) * 2, dtype=np.float32).reshape(-1, 2)
    write_embedding_file(path, {"long": rows})
    with pytest.warns(UserWarning, match=f"{MAX_TEXT_TOKENS + 3} tokens truncated"):
        out = PrecomputedTextEncoder(path).encode("text", record_id="long")
    assert np.array_equal(out, rows[:MAX_TEXT_TOKENS])


def test_precomputed_rejects_a_truncated_blob(tmp_path):
    path = tmp_path / "emb.bin"
    write_embedding_file(path, {"a": np.ones((2, 4), dtype=np.float32),
                                "b": np.ones((3, 4), dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-4])
    enc = PrecomputedTextEncoder(path)
    assert enc.encode("text", record_id="a").shape == (2, 4)
    with pytest.raises(TokenizerError, match="embedding file truncated for record 'b'"):
        enc.encode("text", record_id="b")


@pytest.mark.parametrize("previous", [None, b"an earlier file\n"], ids=["new", "existing"])
def test_failed_embedding_file_write_leaves_no_partial_file(tmp_path, disk_fills, previous):
    path = tmp_path / "emb.bin"
    if previous:
        path.write_bytes(previous)
    disk_fills(path.name)
    with pytest.raises(OSError, match="No space left"):
        write_embedding_file(path, {"a": np.ones((2, 4), dtype=np.float32)})
    assert [p.read_bytes() for p in tmp_path.iterdir()] == ([previous] if previous else [])


def test_precomputed_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOT-AN-EMBED-FILE\n{}\n")
    with pytest.raises(TokenizerError, match="magic"):
        PrecomputedTextEncoder(path)

