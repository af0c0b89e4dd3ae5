"""Amino-acid tokenization and pluggable text encoders.

Residues are tokenized one per character over the 25-letter extended
IUPAC alphabet, with four special ids (PAD, CLS, EOS, CROSS) sharing the
same vocabulary so cross-modality slots can be embedded through the
shared token table.

Text enters the model as one array per record, made by ``encode(text,
record_id=None)`` of either provider: a trainable encoder gives
``(tokens,)`` int64 word ids into a small word-embedding table built from
the training split; a precomputed encoder gives the ``(tokens, d_text)``
float32 rows of a binary container file (mirroring an external
biomedical encoder), which the model casts to its own dtype.  Either way
a text of no tokens is rejected and one past ``MAX_TEXT_TOKENS`` is
truncated with a warning.  An embedding file
has one width: its ``d_text``, which every record must share.

At the bottom of the import graph, the module also holds ``atomic_open``,
through which every file the package writes is written.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

RESIDUES = "ARNDCQEGHILKMFPSTWYVBZXUO"
MAX_TEXT_TOKENS = 512
MAX_SEQ_TOKENS = 1024

EMBED_FILE_MAGIC = "PROTDAT-EMB-1"


class TokenizerError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode: str):
    """Write through a sibling temp file that replaces ``path`` only when the
    block completes, so a write that fails part-way leaves the previous file
    intact and no temp file behind.  Every file the package writes goes
    through here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


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

    def encode(self, text: str, record_id: str | None = None) -> np.ndarray:
        """The (tokens,) int64 word ids of ``text``; 0 is the UNK id."""
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


class PrecomputedTextEncoder:
    """Reads per-record embedding matrices from an embedding container file."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            magic = fh.readline().decode("ascii", errors="replace").strip()
            if magic != EMBED_FILE_MAGIC:
                raise TokenizerError(f"not an embedding file (magic {magic!r})")
            try:
                manifest = json.loads(fh.readline().decode("utf-8"))
                self.d_text = int(manifest["d_text"])
                records = manifest["records"].items()
                self.records = {rec_id: (int(meta["offset"]), int(meta["tokens"]))
                                for rec_id, meta in records}  # id -> (offset, tokens)
                # a record may repeat the file's d_text (earlier writers did), not differ
                other = [(rec_id, meta["d_text"]) for rec_id, meta in records
                         if int(meta.get("d_text", self.d_text)) != self.d_text]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TokenizerError(f"malformed embedding manifest in {path}: {exc!r}") from exc
            self._blob_start = fh.tell()
        if other:
            raise TokenizerError(f"embedding file {path}: record {other[0][0]!r} has d_text "
                                 f"{other[0][1]}, the file d_text {self.d_text}")
        if self.d_text < 0 or any(min(entry) < 0 for entry in self.records.values()):
            raise TokenizerError(f"malformed embedding manifest in {path}: a negative offset, "
                                 "token count or d_text")

    def encode(self, text: str, record_id: str | None = None) -> np.ndarray:
        """The (tokens, d_text) float32 rows stored for ``record_id``, as a
        read-only array over the bytes read."""
        if record_id is None or record_id not in self.records:
            raise TokenizerError(f"no precomputed embedding for record {record_id!r}")
        (offset, n), d = self.records[record_id], self.d_text
        if n == 0:
            raise TokenizerError(f"precomputed embedding for record {record_id!r} has no tokens")
        if n > MAX_TEXT_TOKENS:
            warnings.warn(f"embedding of {n} tokens truncated to {MAX_TEXT_TOKENS}", stacklevel=2)
            n = MAX_TEXT_TOKENS
        with open(self.path, "rb") as fh:
            fh.seek(self._blob_start + offset)
            raw = fh.read(4 * n * d)
        if len(raw) != 4 * n * d:
            raise TokenizerError(f"embedding file truncated for record {record_id!r}")
        return np.frombuffer(raw, dtype="<f4").reshape(n, d)


def write_embedding_file(path, entries: dict[str, np.ndarray]) -> None:
    """Write the precomputed-embedding container.

    Layout: magic line, one-line JSON manifest (the file's d_text, and
    record id -> offset into the blob and token count), then row-major
    little-endian float32 blocks in manifest insertion order.
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
        manifest["records"][rec_id] = {"offset": offset, "tokens": int(matrix.shape[0])}
        blobs.append(raw)
        offset += len(raw)
    with atomic_open(path, "wb") as fh:
        fh.write((EMBED_FILE_MAGIC + "\n").encode("ascii"))
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        for raw in blobs:
            fh.write(raw)
