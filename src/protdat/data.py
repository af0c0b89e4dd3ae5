"""Dataset ingestion, validation, splitting and batch assembly.

The canonical serialization is jsonl with ``id``/``text``/``sequence``
fields; a 2-column tab-separated import (sequence, description) is also
accepted.  Descriptions must carry at least one of the FUNCTION /
SUBCELLULAR LOCATION / SIMILARITY section headers.

Batch assembly pads each record's text array, as the text encoder gives
it (word ids or embedding rows), and its sequence ids to per-batch maxima,
and builds the three attention masks used by the fused decoder layers:

* text self-attention mask (T, T): real text tokens visible as keys,
* bottleneck cross-attention mask (c_size, T): same key visibility,
* sequence mask (S, c_size + S): the first c_size key columns are always
  visible, the remaining columns are causal (k <= q) and exclude PAD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .tokenizer import AminoVocabulary, MAX_SEQ_TOKENS, MAX_TEXT_TOKENS, TokenizerError, atomic_open

SECTION_HEADERS = ("FUNCTION", "SUBCELLULAR LOCATION", "SIMILARITY")


class DatasetError(ValueError):
    pass


# the values each annotated field type takes: a bool is never a number
_VALUE_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "dict": (dict,)}


def check_types(values: dict, config_cls, error, where: str = "") -> None:
    """Raise ``error`` unless each of ``values`` that names a field of the
    dataclass ``config_cls`` is of the field's annotated type: int, float
    (an int too, a bool never), str or dict, and None only where the
    annotation reads ``| None``.  ``where`` prefixes the message."""
    for f in fields(config_cls):
        if f.name not in values:
            continue
        value = values[f.name]
        kind, _, nullable = f.type.partition(" | ")
        if value is None and nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[kind]):
            prefix = f"{where}: " if where else ""
            raise error(f"{prefix}{f.name} must be {kind}, not {type(value).__name__}")


@dataclass(frozen=True)
class ProteinRecord:
    id: str
    text: str
    sequence: str

    def validate(self) -> None:
        vocab = AminoVocabulary()
        if not self.sequence:
            raise DatasetError(f"record {self.id!r}: empty sequence")
        for pos, ch in enumerate(self.sequence):
            if not vocab.is_valid_sequence(ch):
                raise DatasetError(
                    f"record {self.id!r}: invalid residue {ch!r} at position {pos}"
                )
        if len(self.sequence) + 2 > MAX_SEQ_TOKENS:
            raise DatasetError(
                f"record {self.id!r}: sequence exceeds {MAX_SEQ_TOKENS - 2} residues"
            )
        if not any(h in self.text for h in SECTION_HEADERS):
            raise DatasetError(
                f"record {self.id!r}: text lacks all of {', '.join(SECTION_HEADERS)}"
            )


@dataclass
class LoadReport:
    records: list[ProteinRecord]
    errors: list[str]
    total_rows: int

    @property
    def error_text(self) -> str:
        return "\n".join(self.errors)


def _parse_jsonl_row(line: str) -> ProteinRecord:
    row = json.loads(line)
    if not isinstance(row, dict):
        raise DatasetError(f"expected a JSON object, got {type(row).__name__}")
    missing = [k for k in ("id", "text", "sequence") if k not in row]
    if missing:
        raise DatasetError(f"missing fields: {', '.join(missing)}")
    return ProteinRecord(id=str(row["id"]), text=str(row["text"]), sequence=str(row["sequence"]))


def _parse_table_row(line: str, line_no: int) -> ProteinRecord:
    parts = line.split("\t")
    if len(parts) != 2:
        raise DatasetError(f"expected 2 tab-separated columns, got {len(parts)}")
    sequence, text = parts[0].strip(), parts[1].strip()
    return ProteinRecord(id=f"row-{line_no:06d}", text=text, sequence=sequence)


def read_dataset(path, fmt: str = "jsonl") -> LoadReport:
    """Parse and validate every row; keep order; collect line-addressed errors."""
    if fmt not in ("jsonl", "table"):
        raise DatasetError(f"unknown dataset format {fmt!r}")
    records: list[ProteinRecord] = []
    errors: list[str] = []
    total = 0
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        total += 1
        try:
            rec = _parse_jsonl_row(line) if fmt == "jsonl" else _parse_table_row(line, line_no)
            rec.validate()
        except (DatasetError, TokenizerError, json.JSONDecodeError) as exc:
            errors.append(f"line {line_no}: {exc}")
            continue
        records.append(rec)
    return LoadReport(records=records, errors=errors, total_rows=total)


def accepted_records(report: LoadReport, path) -> list[ProteinRecord]:
    """The valid records of the file at ``path``; the file is rejected outright
    when it has no rows or more than 10% of its rows are invalid."""
    if report.total_rows == 0:
        raise DatasetError(f"{path}: no rows")
    if len(report.errors) > 0.10 * report.total_rows:
        raise DatasetError(
            f"{path}: {len(report.errors)}/{report.total_rows} invalid rows\n"
            + report.error_text
        )
    return report.records


def load_records(path) -> list[ProteinRecord]:
    """Load a jsonl dataset file under the ``accepted_records`` policy."""
    return accepted_records(read_dataset(path), path)


def write_jsonl(path, records: list[ProteinRecord]) -> None:
    with atomic_open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"id": rec.id, "text": rec.text, "sequence": rec.sequence}) + "\n")


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split by counts or fractions, shuffled by ``seed``."""

    train: float
    valid: float
    test: float
    seed: int = 0

    def counts(self, n: int) -> tuple[int, int, int]:
        """Values that sum to 1 or lie in (0, 1) are fractions of ``n`` (they
        must sum to 1), so (1, 0, 0) sends every record to train; other whole
        numbers are counts."""
        parts = (self.train, self.valid, self.test)
        for p in parts:
            if not (p >= 0 and (p < 1 or float(p).is_integer())):
                raise DatasetError(f"split value {p!r} is neither a count nor a fraction in (0, 1)")
        if sum(parts) == 1 or any(0 < p < 1 for p in parts):
            if abs(sum(parts) - 1.0) > 1e-9:
                raise DatasetError("split fractions must sum to 1")
            # rounded one at a time; with no test share, valid takes the rest
            n_train = int(round(self.train * n))
            n_valid = min(int(round(self.valid * n)), n - n_train) if self.test else n - n_train
            return n_train, n_valid, n - n_train - n_valid
        counts = (int(self.train), int(self.valid), int(self.test))
        if sum(counts) > n:
            raise DatasetError(f"split counts {counts} exceed {n} records")
        return counts


def split_records(
    records: list[ProteinRecord], spec: SplitSpec
) -> tuple[list[ProteinRecord], list[ProteinRecord], list[ProteinRecord]]:
    """Deterministic disjoint train/valid/test partition under ``spec.seed``.

    When explicit counts sum to less than the record count, the leftover
    tail of the shuffled order is dropped.
    """
    n_train, n_valid, n_test = spec.counts(len(records))
    order = np.random.default_rng(spec.seed).permutation(len(records))
    shuffled = [records[i] for i in order]
    train = shuffled[:n_train]
    valid = shuffled[n_train : n_train + n_valid]
    test = shuffled[n_train + n_valid : n_train + n_valid + n_test]
    return train, valid, test


@dataclass
class Batch:
    """Padded model input plus the three attention masks.

    ``seq_ids`` rows are [CLS, residues..., EOS, PAD...].  ``text`` holds
    the encoder's arrays, zero-padded: (B, T) int64 word ids, or (B, T,
    d_text) embedding rows.  Since word id 0 is both UNK and padding,
    ``text_mask`` marks the real text tokens.  Mask arrays are boolean
    with True = visible.
    """

    pad_id = AminoVocabulary.pad_id

    seq_ids: np.ndarray  # (B, S) int64
    text: np.ndarray  # (B, T) int64 or (B, T, d_text) float
    text_mask: np.ndarray  # (B, T) bool
    ptm_mask: np.ndarray  # (B, T, T)
    cim_mask: np.ndarray  # (B, c_size, T)
    psm_mask: np.ndarray  # (B, S, c_size + S)

    @property
    def size(self) -> int:
        return self.seq_ids.shape[0]

    def targets(self) -> np.ndarray:
        """Next-token targets: seq_ids shifted one step left, PAD at the end."""
        tgt = np.full_like(self.seq_ids, self.pad_id)
        tgt[:, :-1] = self.seq_ids[:, 1:]
        return tgt


def build_masks(
    seq_ids: np.ndarray, text_mask: np.ndarray, c_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three per-record visibility masks from padded ids."""
    b, s = seq_ids.shape
    t = text_mask.shape[1]
    ptm = np.broadcast_to(text_mask[:, None, :], (b, t, t)).copy()
    cim = np.broadcast_to(text_mask[:, None, :], (b, c_size, t)).copy()
    psm = np.zeros((b, s, c_size + s), dtype=bool)
    psm[:, :, :c_size] = True
    causal = np.tril(np.ones((s, s), dtype=bool))
    key_ok = seq_ids != AminoVocabulary.pad_id
    psm[:, :, c_size:] = causal[None, :, :] & key_ok[:, None, :]
    return ptm, cim, psm


def make_batch(
    records: list[ProteinRecord],
    vocab: AminoVocabulary,
    text_provider,
    c_size: int,
    dtype=np.float32,
) -> Batch:
    """Encode, pad and mask a list of records into one model input."""
    if not records:
        raise DatasetError("make_batch: empty record list")
    if c_size < 1:
        raise DatasetError("make_batch: c_size must be >= 1")
    encoded = [vocab.encode_sequence(r.sequence) for r in records]
    texts = [text_provider.encode(r.text, record_id=r.id) for r in records]
    return assemble_batch(encoded, texts, c_size, dtype)


def assemble_batch(
    seq_rows: list,
    texts: list[np.ndarray],
    c_size: int,
    dtype=np.float32,
) -> Batch:
    """Pad and mask token-id rows and their encoded texts into one model input;
    embedding rows are cast to ``dtype``, word ids stay int64."""
    b = len(seq_rows)
    s_max = max(len(e) for e in seq_rows)
    t_max = max(len(t) for t in texts)
    if t_max > MAX_TEXT_TOKENS:
        raise DatasetError(f"text length {t_max} exceeds the {MAX_TEXT_TOKENS}-token cap")

    seq_ids = np.full((b, s_max), AminoVocabulary.pad_id, dtype=np.int64)
    for i, ids in enumerate(seq_rows):
        seq_ids[i, : len(ids)] = ids

    first = texts[0]  # (tokens,) word ids or (tokens, d_text) rows
    kind = np.int64 if np.issubdtype(first.dtype, np.integer) else dtype
    text = np.zeros((b, t_max) + first.shape[1:], dtype=kind)
    text_mask = np.zeros((b, t_max), dtype=bool)
    for i, row in enumerate(texts):
        text[i, : len(row)] = row
        text_mask[i, : len(row)] = True

    ptm, cim, psm = build_masks(seq_ids, text_mask, c_size)
    return Batch(seq_ids=seq_ids, text=text, text_mask=text_mask, ptm_mask=ptm, cim_mask=cim,
                 psm_mask=psm)


def batches_of(records: list[ProteinRecord], batch_size: int, rng: np.random.Generator):
    """Seeded shuffle then sequential chunking (no length bucketing)."""
    order = rng.permutation(len(records))
    for start in range(0, len(records), batch_size):
        yield [records[i] for i in order[start : start + batch_size]]


_TOY_VERBS = ("Catalyzes", "Mediates", "Regulates", "Transports", "Binds", "Cleaves")
_TOY_SUBSTRATES = (
    "quinate", "shikimate", "malonyl", "biotin", "chorismate",
    "citrate", "glutamate", "pyruvate", "fumarate", "oxalate",
)
_TOY_LOCATIONS = ("Cytoplasm", "Membrane", "Secreted", "Nucleus", "Periplasm")
_TOY_FAMILIES = ("AccA", "MGF", "EspC", "DHQase", "KinB", "LigT", "PortA", "SynQ")
_TOY_RESIDUES = "ARNDCQEGHILKMFPSTWYV"


def synthetic_records(
    n: int, seed: int = 0, min_len: int = 16, max_len: int = 64
) -> list[ProteinRecord]:
    """A deterministic toy corpus of annotation-style texts and random sequences.

    Texts share a small template vocabulary but carry a distinguishing
    index token, so models can learn a text->sequence binding at desk
    scale.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        verb = _TOY_VERBS[int(rng.integers(len(_TOY_VERBS)))]
        substrate = _TOY_SUBSTRATES[int(rng.integers(len(_TOY_SUBSTRATES)))]
        loc = _TOY_LOCATIONS[int(rng.integers(len(_TOY_LOCATIONS)))]
        fam = _TOY_FAMILIES[int(rng.integers(len(_TOY_FAMILIES)))]
        text = (
            f"FUNCTION: {verb} the {substrate} pathway step {i}. "
            f"SUBCELLULAR LOCATION: {loc}. "
            f"SIMILARITY: Belongs to the {fam} {i} family."
        )
        length = int(rng.integers(min_len, max_len + 1))
        seq = "".join(_TOY_RESIDUES[j] for j in rng.integers(0, len(_TOY_RESIDUES), length))
        records.append(ProteinRecord(id=f"toy-{i:04d}", text=text, sequence=seq))
    return records
