"""Next-token training loop: decoupled-weight-decay Adam over batches.

The loss is cross-entropy on the sequence branch only; text and slot
branches receive gradients exclusively through the concatenated
attention path.  Runs are bit-for-bit reproducible under a fixed seed:
shuffling, initialization and batch assembly all derive from one root
seed, and the emitted loss log carries no wall-clock fields (timings go
to a separate sidecar so log files from identical runs compare equal).

Adam's betas and epsilon are the fixed ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``; ``TrainingConfig`` holds what a run sets: batch size,
learning rate, weight decay and the clipping norm.

``fit`` sets glibc's mmap and trim thresholds (``keep_heap``) for the whole
process, for good: freed step arrays then stay in the heap for the next step.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nx
from .data import Batch, ProteinRecord, batches_of, check_types, make_batch
from .model import ModelConfig, ModelParams, init_params, model_forward, save_checkpoint
from .tokenizer import AminoVocabulary, TrainableTextEncoder, atomic_open


class TrainingError(RuntimeError):
    pass


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-9

# glibc's mallopt parameters and the values fit sets them to
M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES = -3, 32 << 20
M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES = -1, 1 << 30


def keep_heap() -> None:
    """Keep one step's freed arrays in the heap to serve the next step.

    Both thresholds are needed: the trim threshold alone (or M_TOP_PAD) turns
    off glibc's dynamic mmap threshold at 128 KiB, so every larger array is
    mmapped and faulted in afresh.  Skipped where the C library has no
    ``mallopt`` (musl, macOS) and on Windows, which has no ``CDLL(None)``.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 10
    lr: float = 1.5e-5
    weight_decay: float = 0.1
    clip_norm: float | None = 1.0

    def __post_init__(self):
        check_types(vars(self), TrainingConfig, TrainingError)
        # each bound is written so that NaN fails it
        if not self.batch_size >= 1:
            raise TrainingError("batch_size must be >= 1")
        if not (0 <= self.lr < np.inf):
            raise TrainingError("lr must be finite and >= 0")
        if not (0 <= self.weight_decay < np.inf):
            raise TrainingError("weight_decay must be finite and >= 0")
        if self.clip_norm is not None and not (0 < self.clip_norm < np.inf):
            raise TrainingError("clip_norm must be null or finite and > 0")


class OptimizerState:
    """Per-parameter Adam moments plus the shared step counter.

    Weight decay is decoupled and skipped for norm gains/offsets and the
    PAD row of the token embedding.  A parameter that received no gradient
    is not updated, decayed or given moments.
    """

    def __init__(self, params: ModelParams, config: TrainingConfig):
        self.config = config
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.decay_mask: dict[str, np.ndarray | float] = {}
        for name, p in params.named_parameters():
            self.m[name] = np.zeros_like(p.data)
            self.v[name] = np.zeros_like(p.data)
            if ".ln" in name and (name.endswith(".gamma") or name.endswith(".beta")):
                self.decay_mask[name] = 0.0
            elif name == "token_embedding":
                mask = np.ones(p.shape[0], dtype=p.data.dtype)
                mask[AminoVocabulary.pad_id] = 0.0
                self.decay_mask[name] = mask[:, None]
            else:
                self.decay_mask[name] = 1.0

    def apply(self, params: ModelParams) -> None:
        cfg = self.config
        self.step += 1
        t = self.step
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for name, p in params.named_parameters():
            g = p.grad
            if g is None:  # as in AdamW
                continue
            # two buffers per parameter; p.grad may be shared and is never written
            m = self.m[name]
            v = self.v[name]
            buf = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += buf
            np.multiply(g, 1.0 - ADAM_BETA2, out=buf)
            buf *= g
            v *= ADAM_BETA2
            v += buf
            # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * mask * p]
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += ADAM_EPS
            update = np.divide(m, bc1)
            update /= buf
            if cfg.weight_decay:
                update += np.multiply(cfg.weight_decay * self.decay_mask[name], p.data, out=buf)
            update *= cfg.lr
            p.data = np.subtract(p.data, update, out=update)  # a fresh array, not written in place


def clip_gradients(params: ModelParams, max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm.

    A non-finite norm raises before any gradient is scaled: the scale
    max_norm/inf is 0, and inf * 0 would spread NaN into the update.
    """
    total = 0.0
    for _, p in params.named_parameters():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise TrainingError(f"non-finite gradient norm {norm}; step aborted")
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, p in params.named_parameters():
            if p.grad is not None:
                p.grad = p.grad * scale  # out of place: a gradient array may be shared
    return norm


def compute_loss(batch: Batch, params: ModelParams) -> nx.Tensor:
    """Sequence-branch next-token cross-entropy; PAD targets contribute nothing."""
    logits, _ = model_forward(batch, params)
    return nx.next_token_cross_entropy(logits, batch.targets(), ignore_id=batch.pad_id)


def training_step(batch: Batch, params: ModelParams, opt: OptimizerState) -> float:
    """One forward/backward/update.  A non-finite loss or gradient norm
    aborts before any parameter or optimizer mutation."""
    params.zero_grad()
    loss = compute_loss(batch, params)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingError(f"non-finite loss {loss_value}; step aborted")
    loss.backward()
    # without clipping the norm is still taken, for its finiteness check
    clip_norm = opt.config.clip_norm
    clip_gradients(params, np.inf if clip_norm is None else clip_norm)
    opt.apply(params)
    return loss_value


@dataclass
class LogEntry:
    step: int
    split: str
    loss: float
    wall_time: float


@dataclass
class TrainLog:
    entries: list[LogEntry] = field(default_factory=list)

    def losses(self, split: str = "train") -> list[float]:
        return [e.loss for e in self.entries if e.split == split]

    def write(self, out_dir) -> None:
        """Loss curve (deterministic fields only) plus a timing sidecar."""
        out_dir = Path(out_dir)
        with atomic_open(out_dir / "train_log.jsonl", "w") as fh:
            for e in self.entries:
                fh.write(json.dumps({"step": e.step, "split": e.split, "loss": e.loss}) + "\n")
        with atomic_open(out_dir / "timing.jsonl", "w") as fh:
            for e in self.entries:
                fh.write(json.dumps({"step": e.step, "wall_time": e.wall_time}) + "\n")


def evaluate_loss(records: list[ProteinRecord], params: ModelParams, provider,
                  batch_size: int) -> float:
    """Mean per-token loss over a record list (no gradients)."""
    total, count = 0.0, 0
    with nx.no_grad():
        for start in range(0, len(records), batch_size):
            chunk = records[start : start + batch_size]
            batch = make_batch(chunk, AminoVocabulary(), provider, params.config.c_size)
            loss = compute_loss(batch, params)
            n = int((batch.targets() != batch.pad_id).sum())
            total += float(loss.data) * n
            count += n
    return total / max(count, 1)


def fit(
    train_records: list[ProteinRecord],
    valid_records: list[ProteinRecord],
    model_config: ModelConfig,
    train_config: TrainingConfig,
    epochs: int,
    seed: int,
    out_dir=None,
    embedding_path=None,
    max_steps: int | None = None,
    stop_below_loss: float | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Train a fresh model; returns final parameters and the step log.

    Deterministic under ``seed``: initialization, epoch shuffles and
    batch composition all derive from it.  The model reads ``embedding_path``,
    which must hold rows for every train and valid record, or else gets a
    word table.
    When ``out_dir`` is given the best-validation checkpoint and log files
    are written there.
    """
    if epochs < 0:
        raise TrainingError("epochs must be >= 0")
    if seed < 0:
        raise TrainingError(f"seed must be >= 0, got {seed}")
    if max_steps is not None and max_steps < 1:
        raise TrainingError("max_steps must be >= 1")
    if not train_records:
        raise TrainingError("empty training set")
    keep_heap()
    vocab = AminoVocabulary()
    words = (TrainableTextEncoder.build_vocabulary([r.text for r in train_records])
             if embedding_path is None else None)
    params = init_params(model_config, seed=seed, text_words=words)
    provider = params.text_encoder(embedding_path)
    if embedding_path is not None:  # a record absent or of no rows would fail mid-run
        missing = [r.id for r in train_records + valid_records
                   if provider.records.get(r.id, (0, 0))[1] == 0]
        if missing:
            raise TrainingError(f"embedding file {embedding_path} has no rows for record "
                                f"{missing[0]!r}")
    opt = OptimizerState(params, train_config)
    log = TrainLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    best_valid = np.inf
    step = 0
    t0 = time.monotonic()
    stop = False
    for _epoch in range(epochs):
        epoch_losses = []
        for chunk in batches_of(train_records, train_config.batch_size, rng):
            batch = make_batch(chunk, vocab, provider, model_config.c_size)
            loss = training_step(batch, params, opt)
            step += 1
            epoch_losses.append(loss)
            log.entries.append(LogEntry(step=step, split="train", loss=loss,
                                        wall_time=time.monotonic() - t0))
            if max_steps is not None and step >= max_steps:
                stop = True
                break
        if stop_below_loss is not None and epoch_losses:
            if float(np.mean(epoch_losses)) < stop_below_loss:
                stop = True
        if valid_records:
            vloss = evaluate_loss(valid_records, params, provider, train_config.batch_size)
            if not np.isfinite(vloss):
                raise TrainingError(f"validation loss became {vloss}; aborting")
            log.entries.append(LogEntry(step=step, split="valid", loss=vloss,
                                        wall_time=time.monotonic() - t0))
            if vloss < best_valid and out_dir is not None:
                best_valid = vloss
                save_checkpoint(params, out_dir / "best.ckpt")
        if stop:
            break
    if out_dir is not None:
        save_checkpoint(params, out_dir / "model.ckpt")
        log.write(out_dir)
    return params, log
