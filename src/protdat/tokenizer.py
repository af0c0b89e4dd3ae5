"""Amino-acid tokenization and pluggable text encoders.

Residues are tokenized one per character over the 25-letter extended
IUPAC alphabet, with four special ids (PAD, CLS, EOS, CROSS) sharing the
same vocabulary so cross-modality slots can be embedded through the
shared token table.

Text enters the model either as precomputed embedding matrices read from
a binary container file (mirroring an external biomedical encoder), or
through a small trainable word-embedding table built from the training
split.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

RESIDUES = "ARNDCQEGHILKMFPSTWYVBZXUO"
MAX_TEXT_TOKENS = 512
MAX_SEQ_TOKENS = 1024

EMBED_FILE_MAGIC = "PROTDAT-EMB-1"


class TokenizerError(ValueError):
    pass


class AminoVocabulary:
    """Per-residue vocabulary with PAD/CLS/EOS/CROSS special ids."""

    pad_id = 0
    cls_id = 1
    eos_id = 2
    cross_id = 3
    size = 4 + len(RESIDUES)
    _to_id = {ch: 4 + i for i, ch in enumerate(RESIDUES)}

    def residue_of(self, token_id: int) -> str:
        if not (4 <= token_id < self.size):
            raise TokenizerError(f"id {token_id} is not a residue id")
        return RESIDUES[token_id - 4]

    def is_valid_sequence(self, seq: str) -> bool:
        return all(ch in self._to_id for ch in seq)

    def encode_sequence(self, seq: str, add_eos: bool = True) -> np.ndarray:
        """Encode a residue string as CLS, its residues and, optionally, EOS."""
        ids = [self.cls_id]
        for pos, ch in enumerate(seq):
            if ch not in self._to_id:
                raise TokenizerError(f"invalid residue {ch!r} at position {pos}")
            ids.append(self._to_id[ch])
        if add_eos:
            ids.append(self.eos_id)
        if len(ids) > MAX_SEQ_TOKENS:
            raise TokenizerError(
                f"sequence of {len(ids)} tokens exceeds the {MAX_SEQ_TOKENS}-token cap"
            )
        return np.asarray(ids, dtype=np.int64)

    def decode_sequence(self, ids) -> str:
        """Inverse of encode: strips specials, stops at the first EOS."""
        out = []
        for token_id in np.asarray(ids, dtype=np.int64).tolist():
            if token_id == self.eos_id:
                break
            if token_id in (self.pad_id, self.cls_id, self.cross_id):
                continue
            out.append(self.residue_of(token_id))
        return "".join(out)


@dataclass
class TextEncoding:
    """Encoded description text, one entry per real token: word ids from the
    trainable provider (the model embeds them from its live table), or
    embedding rows from the precomputed one."""

    embeddings: np.ndarray | None = None  # (m_tokens, d_text), precomputed provider
    word_ids: np.ndarray | None = None  # (m_tokens,), trainable provider

    @property
    def n_tokens(self) -> int:
        return len(self.word_ids if self.word_ids is not None else self.embeddings)


_WORD_RE = re.compile(r"[a-z0-9]+")


def split_words(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation."""
    return _WORD_RE.findall(text.lower())


class TrainableTextEncoder:
    """Word-level encoder: word ids into the model's learned embedding table,
    whose row 0 is the UNK shared by every out-of-vocabulary word."""

    def __init__(self, words: list[str]):
        self.words = list(words)
        self.word_to_id = {w: i + 1 for i, w in enumerate(self.words)}

    @staticmethod
    def build_vocabulary(texts: list[str]) -> list[str]:
        """Unique words of the training split, in first-seen order."""
        seen: dict[str, None] = {}
        for text in texts:
            for w in split_words(text):
                seen.setdefault(w, None)
        return list(seen)

    def tokenize(self, text: str) -> np.ndarray:
        words = split_words(text)
        if not words:
            raise TokenizerError("text produced no tokens")
        if len(words) > MAX_TEXT_TOKENS:
            warnings.warn(
                f"text of {len(words)} tokens truncated to {MAX_TEXT_TOKENS}",
                stacklevel=2,
            )
            words = words[:MAX_TEXT_TOKENS]
        return np.asarray([self.word_to_id.get(w, 0) for w in words], dtype=np.int64)

    def encode(self, text: str, record_id: str | None = None) -> TextEncoding:
        if not text:
            raise TokenizerError("empty text")
        return TextEncoding(word_ids=self.tokenize(text))


class PrecomputedTextEncoder:
    """Reads per-record embedding matrices from an embedding container file."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            magic = fh.readline().decode("ascii").strip()
            if magic != EMBED_FILE_MAGIC:
                raise TokenizerError(f"not an embedding file (magic {magic!r})")
            try:
                manifest = json.loads(fh.readline().decode("utf-8"))
                self.d_text = int(manifest["d_text"])
                # record id -> (offset, tokens, d_text)
                self.records = {
                    rec_id: (int(meta["offset"]), int(meta["tokens"]),
                             int(meta.get("d_text", self.d_text)))
                    for rec_id, meta in manifest["records"].items()
                }
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TokenizerError(f"malformed embedding manifest in {path}: {exc!r}") from exc
            self._blob_start = fh.tell()
        if any(min(entry) < 0 for entry in self.records.values()):
            raise TokenizerError(f"malformed embedding manifest in {path}: a negative offset, "
                                 "token count or d_text")

    def encode(self, text: str, record_id: str | None = None) -> TextEncoding:
        if not text:
            raise TokenizerError("empty text")
        if record_id is None or record_id not in self.records:
            raise TokenizerError(f"no precomputed embedding for record {record_id!r}")
        offset, n, d = self.records[record_id]
        if n > MAX_TEXT_TOKENS:
            warnings.warn(f"embedding of {n} tokens truncated to {MAX_TEXT_TOKENS}", stacklevel=2)
            n = MAX_TEXT_TOKENS
        with open(self.path, "rb") as fh:
            fh.seek(self._blob_start + offset)
            raw = fh.read(4 * n * d)
        if len(raw) != 4 * n * d:
            raise TokenizerError(f"embedding file truncated for record {record_id!r}")
        emb = np.frombuffer(raw, dtype="<f4").reshape(n, d).astype(np.float64)
        return TextEncoding(embeddings=emb)


def write_embedding_file(path, entries: dict[str, np.ndarray]) -> None:
    """Write the precomputed-embedding container.

    Layout: magic line, one-line JSON manifest (record id -> offset into
    the blob, token count, d_text), then row-major little-endian float32
    blocks in manifest insertion order.
    """
    if not entries:
        raise TokenizerError("no embedding entries to write")
    d_text = next(iter(entries.values())).shape[1]
    manifest: dict = {"d_text": d_text, "records": {}}
    offset = 0
    blobs = []
    for rec_id, matrix in entries.items():
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != d_text:
            raise TokenizerError(f"entry {rec_id!r} must be (tokens, {d_text})")
        raw = matrix.astype("<f4").tobytes(order="C")
        manifest["records"][rec_id] = {
            "offset": offset,
            "tokens": int(matrix.shape[0]),
            "d_text": d_text,
        }
        blobs.append(raw)
        offset += len(raw)
    with open(path, "wb") as fh:
        fh.write((EMBED_FILE_MAGIC + "\n").encode("ascii"))
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        for raw in blobs:
            fh.write(raw)
