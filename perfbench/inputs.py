"""Seeded inputs for the workloads, written as the files the program reads.

The same seed gives byte-identical files.  Sequence lengths are a seeded
permutation of a fixed, evenly spaced set and every description has the
same number of words, so each seed asks the program for the same amount
of work; only the content changes.  Training pads each batch to its
longest record and shuffles with the seed, so the training corpus has
enough records of the largest length that every batch holds one.

Checkpoints carry seeded weights and a very negative EOS head bias, so
every sample runs to ``max_len`` and each run decodes the same number of
tokens.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from protdat import data, model
from protdat.model import ModelConfig
from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder

MID = ModelConfig(d_model=128, n_layers=4, n_heads=4, c_size=16, d_text=128, ffn_dim=512)
TOY = ModelConfig(d_model=64, n_layers=2, n_heads=4, c_size=4, d_text=64, ffn_dim=128)

MIN_LEN, MAX_LEN = 32, 128
N_TRAIN, N_VALID = 20, 10
TRAIN_BATCH = 10
FRAGMENT_LEN = 32
N_SWEEP_PROMPTS = 4
EOS_BIAS = -1.0e4

_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
_VERBS = ("Catalyzes", "Mediates", "Regulates", "Transports", "Binds", "Cleaves")
_SUBSTRATES = ("quinate", "shikimate", "malonyl", "biotin", "chorismate", "citrate", "pyruvate")
_LOCATIONS = ("Cytoplasm", "Membrane", "Secreted", "Nucleus", "Periplasm")
_FAMILIES = ("AccA", "MGF", "EspC", "DHQase", "KinB", "LigT", "PortA", "SynQ")


def make_records(n: int, seed: int, tag: str, min_len: int = MIN_LEN,
                 max_len: int = MAX_LEN, n_longest: int = 1) -> list[data.ProteinRecord]:
    """``n`` records whose lengths are a seeded permutation of an even spread
    over [min_len, max_len], ``n_longest`` of them at max_len, and whose
    descriptions all have 17 words."""
    rng = np.random.default_rng([seed, sum(map(ord, tag))])
    spread = np.linspace(min_len, max_len, n - n_longest + 1).round().astype(int)
    lengths = rng.permutation(np.concatenate([spread, np.full(n_longest - 1, max_len)]))
    records = []
    for i, length in enumerate(lengths):
        verb, substrate, location, family = (
            options[int(rng.integers(len(options)))]
            for options in (_VERBS, _SUBSTRATES, _LOCATIONS, _FAMILIES)
        )
        text = (
            f"FUNCTION: {verb} the {substrate} pathway step {i}. "
            f"SUBCELLULAR LOCATION: {location}. "
            f"SIMILARITY: Belongs to the {family} {i} family."
        )
        seq = "".join(_RESIDUES[j] for j in rng.integers(0, len(_RESIDUES), int(length)))
        records.append(data.ProteinRecord(id=f"{tag}-{i:03d}", text=text, sequence=seq))
    return records


def write_fixed_length_checkpoint(config: ModelConfig, records, seed: int, path: Path) -> None:
    """Seeded weights whose EOS logit is pushed far below every residue."""
    words = TrainableTextEncoder.build_vocabulary([r.text for r in records])
    params = model.init_params(config, seed=seed, text_words=words)
    params.head.b.data[AminoVocabulary().eos_id] = EOS_BIAS
    model.save_checkpoint(params, path)


def write_train_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    paths = {"train": out_dir / "train.jsonl", "valid": out_dir / "valid.jsonl"}
    longest = N_TRAIN - TRAIN_BATCH + 1  # more than any batch can leave out
    data.write_jsonl(paths["train"], make_records(N_TRAIN, seed, "train", n_longest=longest))
    data.write_jsonl(paths["valid"], make_records(N_VALID, seed, "valid"))
    return paths


def write_decode_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    """One prompt whose whole sequence is the fragment, and a mid-size checkpoint."""
    records = make_records(1, seed, "decode", FRAGMENT_LEN, FRAGMENT_LEN)
    paths = {"prompts": out_dir / "prompt.jsonl", "checkpoint": out_dir / "decode.ckpt"}
    data.write_jsonl(paths["prompts"], records)
    write_fixed_length_checkpoint(MID, records, seed, paths["checkpoint"])
    return paths


def write_sweep_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    """Prompts with reference sequences, and a toy-size checkpoint."""
    records = make_records(N_SWEEP_PROMPTS, seed, "sweep")
    paths = {"prompts": out_dir / "prompts.jsonl", "checkpoint": out_dir / "sweep.ckpt"}
    data.write_jsonl(paths["prompts"], records)
    write_fixed_length_checkpoint(TOY, records, seed, paths["checkpoint"])
    return paths


WRITERS = {"train": write_train_inputs, "decode": write_decode_inputs, "sweep": write_sweep_inputs}
