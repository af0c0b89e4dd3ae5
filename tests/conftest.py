import builtins
import errno
import os

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


class _DiskFillsAfterOneLine:
    """A file handle whose writes stop with ENOSPC once a line is written."""

    def __init__(self, fh):
        self._fh, self._full = fh, False

    def write(self, data):
        if self._full:
            raise OSError(errno.ENOSPC, "No space left on device")
        end = data.find(b"\n" if isinstance(data, bytes) else "\n") + 1
        if end:  # the first line ends here, and nothing after it fits
            self._full = True
            self._fh.write(data[:end])
            if end < len(data):
                raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data[end:])

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture()
def disk_fills(monkeypatch):
    """``disk_fills(name)``: from then on, a file named ``name`` (or its
    ``.tmp`` sibling) opened for writing takes one line, then its next
    write fails as on a full disk."""
    real_open, names = builtins.open, set()

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and not isinstance(file, int) \
                and os.path.basename(file).removesuffix(".tmp") in names:
            return _DiskFillsAfterOneLine(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_)
    return names.add
