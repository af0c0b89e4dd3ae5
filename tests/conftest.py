import builtins
import errno
import os
from typing import Callable

import numpy as np
import pytest

from protdat import numerics as nx
from protdat.data import ProteinRecord, make_batch
from protdat.model import ModelConfig, init_params
from protdat.numerics import Tensor
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
    batch = make_batch(records, AminoVocabulary(), params.text_encoder(), config.c_size)
    return params, records, batch


def total(x: Tensor) -> Tensor:
    """The sum of the entries of ``x``, as a scalar op output to call backward
    on: a row view of ``x``, a product with a ones column and a scalar view,
    each view an op made here through ``numerics._make``."""
    def view(t, shape):
        in_shape = t.shape
        return nx._make(t.data.reshape(shape), (t,), lambda g: (g.reshape(in_shape),))

    row = view(x, (1, -1))
    return view(nx.matmul(row, Tensor(np.ones((row.shape[1], 1), dtype=x.dtype))), ())


def grad_or_zeros(p: Tensor) -> np.ndarray:
    """``p``'s gradient, or zeros of its shape when no backward reached it."""
    return p.grad if p.grad is not None else np.zeros_like(p.data)


GRAD_CHECK_DENOM_FLOOR = 1e-6


def finite_difference_grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int = 8,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` must be a deterministic function of the current parameter
    values.  Coordinates are sampled per parameter (all of them when the
    tensor is small).  Returns the worst relative error
    |analytic - numeric| / max(|analytic| + |numeric|, GRAD_CHECK_DENOM_FLOOR);
    the floor keeps gradients below the difference quotient's own resolution
    from registering as spurious disagreement.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise nx.NumericsError("finite_difference_grad_check: eps outside [1e-6, 1e-4]")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise nx.NumericsError(f"grad check requires float64 parameters ({name} is {p.data.dtype})")
    for p in params.values():
        p.zero_grad()
    loss_fn().backward()
    analytic_grads = {name: grad_or_zeros(p).copy() for name, p in params.items()}
    for p in params.values():
        p.zero_grad()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        if size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        flat = p.data.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(loss_fn().data)
            flat[idx] = orig - eps
            f_minus = float(loss_fn().data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = float(analytic_grads[name].reshape(-1)[idx])
            denom = max(abs(analytic) + abs(numeric), GRAD_CHECK_DENOM_FLOOR)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst


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
