"""Pinned output digests of a tiny train / generate / sweep run.

The runs are deterministic under their seeds, so an arithmetic change that
moves a single bit of a loss, a weight or a sampled residue changes one of
these sha256 digests.  A change that moves a digest on purpose updates the
constant here and records the old and new values in CHANGES.md.
``model.ckpt`` is pinned twice: the whole file, whose manifest names the
checkpoint format, and its tensor blob alone (the bytes after the two
header lines), which only the trained weights move.

The digests depend on numpy's BLAS and the CPU.  They were pinned on
numpy 2.4.6 with scipy-openblas 0.3.31 (DYNAMIC_ARCH), Python 3.11, x86-64;
a mismatch on another numpy/BLAS build or CPU does not by itself mean a bug.
"""

import hashlib

from protdat.cli import run_command
from protdat.data import synthetic_records, write_jsonl

TINY_FLAGS = [
    "--d-model", "16", "--n-layers", "2", "--n-heads", "2", "--c-size", "2",
    "--d-text", "16", "--ffn-dim", "32",
]

EXPECTED = {
    "train_log.jsonl": "0430f193f85999a18710507e8c3878f4d079150d620ad9609a01740688d09be0",
    "model.ckpt": "d0f08660492d9e18ae0584425fd23b708be5051ae26092b61d083305ffb6e810",
    "gen.fasta": "f36c28257505bd6467b3b98c731a7bb9f0c55e5ead792021b8a1dedb98baec45",
    "sweep.csv": "243a71a58ceadfc58fb55d4c514a79882fdfd3174a8ebb59eea4437e142b7b86",
}
CKPT_BLOB = "5d3c1ba3c8771c8a37728932cbcad501bf3ede75038b01e7a011d3974551a11a"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def test_tiny_run_outputs_match_pinned_digests(tmp_path):
    records = synthetic_records(8, seed=4, min_len=8, max_len=14)
    train, valid = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
    write_jsonl(train, records[:6])
    write_jsonl(valid, records[6:])
    out = tmp_path / "run"
    assert run_command(
        ["train", "--data", str(train), "--valid", str(valid), "--out", str(out),
         "--epochs", "2", "--max-steps", "4", "--batch-size", "3", "--seed", "7",
         "--lr", "1e-2", *TINY_FLAGS]
    ) == 0
    ckpt = out / "model.ckpt"
    assert run_command(
        ["generate", "--ckpt", str(ckpt), "--text", records[0].text, "--mode", "text+fragment",
         "--fragment", "MK", "--num", "3", "--max-len", "16", "--seed", "7",
         "--out", str(out / "gen.fasta")]
    ) == 0
    assert run_command(
        ["sweep", "--ckpt", str(ckpt), "--data", str(valid), "--top-p", "0.9",
         "--temperature", "0.7,1.3", "--max-len", "12", "--seed", "7",
         "--out", str(out / "sweep.csv")]
    ) == 0
    assert {name: _sha256((out / name).read_bytes()) for name in EXPECTED} == EXPECTED
    assert _sha256(ckpt.read_bytes().split(b"\n", 2)[2]) == CKPT_BLOB
