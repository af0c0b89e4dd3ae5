"""Autoregressive decoding with temperature, nucleus filtering and a
repetition penalty.

One prompt pass encodes the text and slots into each layer's (K, V), one
sequence pass prefills CLS and any fragment, then each new token is one
query row against the K/V, which grows by that row.  ``trace_attention``
adds one full ``model_forward`` over the final sequence.

Two prompt modes: text only (the sequence starts from CLS) and text plus
a leading residue fragment (the fragment is emitted verbatim before new
tokens).  Sampling order per step: repetition penalty, temperature,
softmax, nucleus truncation, draw.  temperature=0 or top_p=0 selects the
argmax corner.  PAD/CLS/slot ids are never sampled; EOS terminates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nx
from .data import assemble_batch
from .model import ModelParams, model_forward, prompt_forward, sequence_forward
from .numerics import softmax_with_temperature
from .tokenizer import AminoVocabulary

MODE_TEXT_ONLY = "text-only"
MODE_TEXT_FRAGMENT = "text+fragment"


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 1.0
    top_p: float = 0.85
    repetition_penalty: float = 1.2
    max_len: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.temperature < 0:
            raise GenerationError("temperature must be >= 0 (0 selects argmax)")
        if not (0 <= self.top_p <= 1):
            raise GenerationError("top_p must lie in [0, 1] (0 selects argmax)")
        if self.repetition_penalty < 1:
            raise GenerationError("repetition_penalty must be >= 1")
        if self.max_len < 1:
            raise GenerationError("max_len must be >= 1")

    @property
    def argmax_mode(self) -> bool:
        return self.temperature == 0 or self.top_p == 0

    @classmethod
    def argmax(cls, max_len: int = 500, seed: int = 0) -> "GenerationParams":
        return cls(temperature=0.0, top_p=1.0, repetition_penalty=1.0, max_len=max_len, seed=seed)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class PromptSpec:
    mode: str
    text: str
    fragment: str = ""

    def __post_init__(self):
        if self.mode not in (MODE_TEXT_ONLY, MODE_TEXT_FRAGMENT):
            raise GenerationError(f"unknown prompt mode {self.mode!r}")
        if not self.text:
            raise GenerationError("prompt text must be non-empty")
        if self.mode == MODE_TEXT_FRAGMENT:
            if not self.fragment:
                raise GenerationError("text+fragment mode needs a non-empty fragment")
            if not AminoVocabulary().is_valid_sequence(self.fragment):
                raise GenerationError("fragment contains invalid residues")
        elif self.fragment:
            raise GenerationError("text-only mode must not carry a fragment")


def apply_repetition_penalty(logits: np.ndarray, history: set[int], penalty: float) -> np.ndarray:
    """CTRL-style: divide positive logits of seen tokens, multiply negative."""
    if penalty < 1:
        raise GenerationError("repetition penalty must be >= 1")
    out = np.asarray(logits, dtype=np.float64).copy()
    for token_id in history:
        if out[token_id] > 0:
            out[token_id] /= penalty
        else:
            out[token_id] *= penalty
    return out


def nucleus_filter(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimal descending-probability prefix with cumulative mass >= top_p.

    Ties in the sort break by token id.  Returns (kept token ids in sort
    order, renormalized probabilities).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise GenerationError("nucleus_filter: need a probability vector")
    if (probs < -1e-12).any() or abs(probs.sum() - 1.0) > 1e-6:
        raise GenerationError("nucleus_filter: input is not a distribution")
    if not (0 < top_p <= 1):
        raise GenerationError("nucleus_filter: top_p must lie in (0, 1]")
    order = np.lexsort((np.arange(probs.size), -probs))
    sorted_probs = probs[order]
    cum = np.cumsum(sorted_probs)
    cut = int(np.searchsorted(cum, top_p - 1e-12)) + 1
    kept = order[:cut]
    kept_probs = sorted_probs[:cut]
    return kept, kept_probs / kept_probs.sum()


def nucleus_sample(probs: np.ndarray, top_p: float, rng: np.random.Generator) -> int:
    kept, kept_probs = nucleus_filter(probs, top_p)
    return int(rng.choice(kept, p=kept_probs))


@dataclass
class GenerationStep:
    index: int
    token_id: int
    token: str
    nucleus_size: int
    nucleus_rank: int
    penalized_logit: float


@dataclass
class GenerationResult:
    sequence: str
    steps: list[GenerationStep] = field(default_factory=list)


def generate(
    prompt: PromptSpec,
    params: ModelParams,
    gp: GenerationParams,
    text_provider=None,
    record_id: str | None = None,
    trace_attention: bool = False,
):
    """Decode one sequence for a prompt; deterministic under ``gp.seed``.

    Returns a GenerationResult, or (result, AttentionTrace) when
    ``trace_attention`` is set (the trace is from the final forward).
    """
    config = params.config
    vocab = AminoVocabulary()
    if gp.max_len > config.max_seq - 2:
        raise GenerationError(f"max_len {gp.max_len} exceeds the model cap {config.max_seq - 2}")
    provider = text_provider if text_provider is not None else params.text_encoder()
    encoding = provider.encode(prompt.text, record_id=record_id)

    if len(prompt.fragment) > gp.max_len:
        raise GenerationError("fragment longer than max_len")
    ids: list[int] = vocab.encode_sequence(prompt.fragment, add_eos=False).tolist()

    never_sampled = np.zeros(config.vocab_size, dtype=bool)
    for special in (vocab.pad_id, vocab.cls_id, vocab.cross_id):
        never_sampled[special] = True

    rng = np.random.default_rng(gp.seed)
    steps: list[GenerationStep] = []
    batch = assemble_batch([ids], [encoding], config.c_size, config.np_dtype)
    with nx.no_grad():
        kv, _ = prompt_forward(batch, params)
        new_ids, psm = batch.seq_ids, batch.psm_mask  # prefill CLS and the fragment
        while len(ids) - 1 < gp.max_len:
            logits, kv, _ = sequence_forward(new_ids, len(ids) - new_ids.shape[1], kv, psm, params)
            last = logits.data[0, -1].astype(np.float64)
            last[never_sampled] = -np.inf
            history = set(ids[1:])
            penalized = apply_repetition_penalty(last, history, gp.repetition_penalty)
            if gp.argmax_mode:
                token_id = int(np.argmax(penalized))
                nucleus_size, rank = 1, 0
            else:
                probs = softmax_with_temperature(
                    np.where(np.isfinite(penalized), penalized, -1e30), gp.temperature
                )
                kept, kept_probs = nucleus_filter(probs, gp.top_p)
                token_id = int(rng.choice(kept, p=kept_probs))
                nucleus_size = len(kept)
                rank = int(np.nonzero(kept == token_id)[0][0])
            steps.append(
                GenerationStep(
                    index=len(steps),
                    token_id=token_id,
                    token="<EOS>" if token_id == vocab.eos_id else vocab.residue_of(token_id),
                    nucleus_size=nucleus_size,
                    nucleus_rank=rank,
                    penalized_logit=float(penalized[token_id]),
                )
            )
            if token_id == vocab.eos_id:
                break
            ids.append(token_id)
            new_ids, psm = np.array([[token_id]]), None  # one row sees every key
    sequence = vocab.decode_sequence(ids)
    result = GenerationResult(sequence=sequence, steps=steps)
    if trace_attention:
        final = assemble_batch([ids], [encoding], config.c_size, config.np_dtype)
        with nx.no_grad():
            _, trace = model_forward(final, params, trace=True)
        return result, trace
    return result


def generate_candidates(
    prompt: PromptSpec,
    params: ModelParams,
    gp: GenerationParams,
    n_samples: int,
    text_provider=None,
    record_id: str | None = None,
) -> list[GenerationResult]:
    """Draw ``n_samples`` independent candidates, seeds ``gp.seed + i``."""
    return [
        generate(prompt, params, replace(gp, seed=gp.seed + i), text_provider=text_provider,
                 record_id=record_id)
        for i in range(n_samples)
    ]


def fasta_header(name: str, prompt: PromptSpec, gp: GenerationParams) -> str:
    return f"{name} mode={prompt.mode} digest={gp.digest()}"


def write_fasta(entries: list[tuple[str, str]], fh) -> None:
    """entries: (header, sequence) pairs; wraps sequence lines at 60 chars."""
    for header, seq in entries:
        fh.write(f">{header}\n")
        for start in range(0, len(seq), 60):
            fh.write(seq[start : start + 60] + "\n")


def write_trace(steps: list[GenerationStep], fh) -> None:
    """Line-delimited per-step decoding records."""
    for s in steps:
        record = asdict(s)
        del record["token_id"]
        fh.write(json.dumps(record) + "\n")
