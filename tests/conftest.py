import numpy as np
import pytest

from protdat.data import ProteinRecord, make_batch
from protdat.model import ModelConfig, init_params
from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder


@pytest.fixture(scope="session")
def vocab():
    return AminoVocabulary()


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        d_model=16,
        n_layers=2,
        n_heads=2,
        c_size=3,
        d_text=16,
        ffn_dim=32,
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_records() -> list[ProteinRecord]:
    return [
        ProteinRecord(
            "r1",
            "FUNCTION: Binds alpha widgets tightly. SIMILARITY: Belongs to the widget family.",
            "MKV",
        ),
        ProteinRecord(
            "r2",
            "FUNCTION: Transports beta gadgets. SUBCELLULAR LOCATION: Membrane.",
            "ARNDC",
        ),
    ]


def tiny_model(config=None, seed=1, records=None):
    """(params, records, batch) for a small trainable-provider setup."""
    config = config or tiny_config()
    records = records or small_records()
    words = TrainableTextEncoder.build_vocabulary([r.text for r in records])
    params = init_params(config, seed=seed, text_words=words)
    batch = make_batch(
        records, AminoVocabulary(), params.text_encoder(), config.c_size, dtype=config.np_dtype
    )
    return params, records, batch


def scale_weights(params, factor: float) -> None:
    """Push weights above the finite-difference noise floor for grad checks."""
    for name, p in params.named_parameters():
        if name.endswith(".w") or "embedding" in name:
            p.data = p.data * factor


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
