"""Autoregressive decoding with temperature, nucleus filtering and a
repetition penalty.

One prompt pass encodes the text and slots into each layer's (K, V),
which is copied into a buffer with room for every position the decode
can feed, and one sequence pass prefills CLS and any fragment, once for
all samples of a prompt; the samples then decode as the rows of one
batch, each new token one query row per sample against its K/V, whose
buffer takes that row.  A sample that emits EOS leaves the batch.  ``trace_attention`` runs one
full ``model_forward`` over a final sequence.

Two prompt modes: text only (the sequence starts from CLS) and text plus
a leading residue fragment (the fragment is emitted verbatim before new
tokens).  ``sample_token`` draws every token: repetition penalty,
temperature softmax, nucleus truncation, draw.  temperature=0 or top_p=0
selects the argmax corner.  ``GenerationParams`` owns each setting's
range, so the sampling helpers check only what a faulty model breaks:
NaN, +inf or no finite logit.  PAD/CLS/slot ids get a -inf logit, so
they are never sampled; EOS terminates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nx
from .data import assemble_batch, check_types
from .model import AttentionTrace, ModelParams, model_forward, prompt_forward, sequence_forward
from .tokenizer import MAX_SEQ_TOKENS, AminoVocabulary

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
        check_types(vars(self), GenerationParams, GenerationError)
        # each bound is written so that NaN fails it
        if not (0 <= self.temperature < np.inf):
            raise GenerationError("temperature must be finite and >= 0 (0 selects argmax)")
        if not (0 <= self.top_p <= 1):
            raise GenerationError("top_p must lie in [0, 1] (0 selects argmax)")
        if not (1 <= self.repetition_penalty < np.inf):
            raise GenerationError("repetition_penalty must be finite and >= 1")
        if not 1 <= self.max_len <= MAX_SEQ_TOKENS - 2:  # CLS and EOS take the rest
            raise GenerationError(f"max_len must lie in [1, {MAX_SEQ_TOKENS - 2}]")
        if self.seed < 0:
            raise GenerationError("seed must be >= 0")

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
    record_id: str | None = None  # the text's record in an embedding file

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
    """CTRL-style: divide positive logits of seen tokens, multiply negative.
    Returns a float64 copy; ``GenerationParams`` owns ``penalty >= 1``."""
    out = np.array(logits, dtype=np.float64)
    for token_id in history:
        if out[token_id] > 0:
            out[token_id] /= penalty
        else:
            out[token_id] *= penalty
    return out


def nucleus_filter(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimal descending-probability prefix with cumulative mass >= top_p.

    ``probs`` is ``softmax_with_temperature``'s output and ``top_p`` lies in
    (0, 1], which ``GenerationParams`` and ``argmax_mode`` own.  The stable
    sort breaks ties by token id.  Returns (kept token ids in sort order,
    renormalized probabilities).
    """
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    cum = np.cumsum(sorted_probs)
    cut = int(np.searchsorted(cum, top_p - 1e-12)) + 1
    kept = order[:cut]
    kept_probs = sorted_probs[:cut]
    return kept, kept_probs / kept_probs.sum()


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Stable softmax of a float64 vector of logits scaled by 1/temperature,
    where ``temperature > 0`` (``GenerationParams`` and ``argmax_mode``).

    A -inf logit is a blocked token: its probability is exactly 0.  NaN,
    +inf and a vector with no finite logit, which only a faulty model
    gives, are rejected."""
    z = logits / temperature
    top = z.max()  # NaN if any logit is NaN
    if not np.isfinite(top):
        raise nx.NumericsError("softmax_with_temperature: NaN, +inf or no finite logit")
    e = np.exp(z - top)
    return e / e.sum()


def sample_token(logits: np.ndarray, history: set[int], gp: GenerationParams,
                 rng: np.random.Generator) -> tuple[int, int, int, float]:
    """One token from one row of logits, where -inf blocks a token: the
    repetition penalty over ``history``, then the argmax, or the temperature
    softmax, the nucleus cut and one draw from ``rng``.  Either way a row
    with a NaN, a +inf or no finite logit is an error.  The draw is
    ``Generator.choice(len(kept), p=kept_probs)``'s arithmetic without its
    re-check of ``p``: one ``rng.random()`` searched in the normalized
    cumulative sum.  Returns (token id, nucleus size, the token's rank in
    the nucleus, its penalized logit)."""
    penalized = apply_repetition_penalty(logits, history, gp.repetition_penalty)
    if gp.argmax_mode:
        token_id, nucleus_size, rank = int(np.argmax(penalized)), 1, 0
        if not np.isfinite(penalized[token_id]):  # argmax finds a NaN first
            raise nx.NumericsError("sample_token: NaN, +inf or no finite logit")
    else:
        probs = softmax_with_temperature(penalized, gp.temperature)
        kept, kept_probs = nucleus_filter(probs, gp.top_p)
        cdf = np.cumsum(kept_probs)
        rank = int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))
        token_id, nucleus_size = int(kept[rank]), len(kept)
    return token_id, nucleus_size, rank, float(penalized[token_id])


@dataclass
class GenerationStep:
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
) -> GenerationResult:
    """Decode one sequence for a prompt; deterministic under ``gp.seed``."""
    return generate_candidates(prompt, params, gp, 1, text_provider)[0]


def trace_attention(prompt: PromptSpec, sequence: str, params: ModelParams,
                    text_provider=None) -> AttentionTrace:
    """The attention weights of one full forward over ``sequence`` (a
    generated sequence, fragment included) under ``prompt``'s text."""
    text = (text_provider or params.text_encoder()).encode(prompt.text, prompt.record_id)
    ids = AminoVocabulary().encode_sequence(sequence, add_eos=False).tolist()
    final = assemble_batch([ids], [text], params.config.c_size)
    with nx.no_grad():
        return model_forward(final, params, trace=True)[1]


def generate_candidates(
    prompt: PromptSpec,
    params: ModelParams,
    gp: GenerationParams,
    n_samples: int,
    text_provider=None,
) -> list[GenerationResult]:
    """Draw ``n_samples`` candidates as the rows of one batch; rows never
    attend to each other, so sample i is what ``generate`` draws with seed
    ``gp.seed + i``."""
    if n_samples < 1:
        raise GenerationError("n_samples must be >= 1")
    config = params.config
    vocab = AminoVocabulary()
    text = (text_provider or params.text_encoder()).encode(prompt.text, prompt.record_id)

    if len(prompt.fragment) > gp.max_len:
        raise GenerationError("fragment longer than max_len")
    prefix: list[int] = vocab.encode_sequence(prompt.fragment, add_eos=False).tolist()

    rngs = [np.random.default_rng(gp.seed + i) for i in range(n_samples)]
    steps: list[list[GenerationStep]] = [[] for _ in range(n_samples)]
    histories = [set(prefix[1:]) for _ in range(n_samples)]  # the ids each penalty reads
    live = list(range(n_samples))  # the sample each batch row decodes
    rows = np.zeros(n_samples, dtype=np.intp)  # each live sample's row of the last pass
    length = len(prefix)  # every live sample has this many ids
    batch = assemble_batch([prefix], [text], config.c_size)
    with nx.no_grad():
        kv = [tuple(np.pad(t.data, [(0, 0), (0, gp.max_len), (0, 0)]) for t in layer_kv)
              for layer_kv in prompt_forward(batch, params)[0]]
        new_ids, psm = batch.seq_ids, batch.psm_mask  # prefill CLS and the fragment once
        while live and length - 1 < gp.max_len:
            logits, kv, _ = sequence_forward(new_ids, length - new_ids.shape[1], kv, psm, params)
            last = logits.data[rows, -1]  # a copy; the penalty makes each row float64
            last[:, [vocab.pad_id, vocab.cls_id, vocab.cross_id]] = -np.inf  # never sampled
            for sample, row_logits in zip(live, last):
                token_id, *draw = sample_token(row_logits, histories[sample], gp, rngs[sample])
                histories[sample].add(token_id)
                token = "<EOS>" if token_id == vocab.eos_id else vocab.residue_of(token_id)
                steps[sample].append(GenerationStep(token_id, token, *draw))
            keep = [i for i, s in enumerate(live) if steps[s][-1].token_id != vocab.eos_id]
            if len(keep) != kv[0][0].shape[0]:  # the prefill row fans out, or rows left
                kv = [(k[rows[keep]], v[rows[keep]]) for k, v in kv]
            live, rows, length = [live[i] for i in keep], np.arange(len(keep)), length + 1
            # one new row per sample, and each sees every key
            new_ids, psm = np.array([[steps[s][-1].token_id] for s in live]), None
    return [GenerationResult(vocab.decode_sequence(prefix + [s.token_id for s in sample_steps]),
                             sample_steps) for sample_steps in steps]


def fasta_header(name: str, prompt: PromptSpec, gp: GenerationParams) -> str:
    return f"{name} mode={prompt.mode} digest={gp.digest()}"


def write_fasta(entries: list[tuple[str, str]], fh) -> None:
    """entries: (header, sequence) pairs; wraps sequence lines at 60 chars."""
    for header, seq in entries:
        fh.write(f">{header}\n")
        for start in range(0, len(seq), 60):
            fh.write(seq[start : start + 60] + "\n")


def write_trace(results: list[GenerationResult], fh) -> None:
    """Line-delimited per-step decoding records; ``sample`` is the result's
    position in ``results`` and ``index`` the step within that sample."""
    for sample, result in enumerate(results):
        for index, s in enumerate(result.steps):
            record = {"sample": sample, "index": index, **asdict(s)}
            del record["token_id"]
            fh.write(json.dumps(record) + "\n")
