"""Text-conditioned decoder stack with fused three-branch attention.

Every decoder layer runs three coupled attention paths over a shared
multi-head kernel:

* text branch: self-attention over the description embedding,
* bottleneck branch: a fixed-length slot tensor querying the text keys
  and values, then projected into extra keys/values,
* sequence branch: causal attention over the concatenation of bottleneck
  keys/values and the sequence's own keys/values.

Wiring is pre-norm residual (x + block(norm(x))) per branch, with a
per-branch feedforward sublayer.  Rotary embeddings rotate text
queries/keys in the text branch and sequence queries plus sequence-region
keys in the sequence branch; bottleneck queries/keys stay unrotated (the
slots carry no positional semantics).

Only the sequence branch feeds the output head; the text and bottleneck
branches shape it through the concatenated attention.  They never read a
sequence token, so the forward is two passes: ``prompt_forward`` runs them
once and gives each layer its (K, V), the slot keys/values; then
``sequence_forward`` runs new rows at positions start..start+n against
[layer K/V | their rotated keys and values] and hands back that K/V
grown by the rows (``_grow_kv``).  ``model_forward`` is the two in turn.

Nothing reads the text or slot stream after the final layer's K/V, so that
layer has no text output projection and no text or slot residual FFN, and
its text self-attention, which feeds only the ``ptm`` trace, runs only when
``model_forward`` traces.

A model with a word list (``text_words``) reads word ids through its word
table; a model without one reads the rows of a ``d_text``-wide embedding file.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nx
from .data import Batch, check_types
from .numerics import Tensor
from .tokenizer import AminoVocabulary, PrecomputedTextEncoder, TrainableTextEncoder, atomic_open

CHECKPOINT_FORMAT = "protdat-ckpt-5"


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 768
    n_layers: int = 12
    n_heads: int = 12
    c_size: int = 50
    d_text: int = 768
    ffn_dim: int = 0  # 0 -> 4 * d_model
    dtype: str = "float32"

    def __post_init__(self):
        check_types(vars(self), ModelConfig, ModelError)  # a flag, YAML or a checkpoint
        for name in ("d_model", "n_layers", "n_heads", "c_size", "d_text"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ModelError("head dimension must be even for rotary embeddings")
        if self.ffn_dim and self.ffn_dim < self.d_model:
            raise ModelError("ffn_dim must be >= d_model")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unsupported dtype {self.dtype!r}")

    @property
    def ffn(self) -> int:
        return self.ffn_dim or 4 * self.d_model

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class DecoderLayerParams:
    ln_t: NormParams
    ln_c: NormParams
    ln_s: NormParams
    ln2_t: NormParams | None
    ln2_c: NormParams | None
    ln2_s: NormParams
    wq_t: LinearParams
    wk_t: LinearParams
    wv_t: LinearParams
    wo_t: LinearParams | None
    wq_c: LinearParams
    wo_c: LinearParams
    w_kc: LinearParams
    w_vc: LinearParams
    wq_s: LinearParams
    wk_s: LinearParams
    wv_s: LinearParams
    wo_s: LinearParams
    ffn_t: FfnParams | None
    ffn_c: FfnParams | None
    ffn_s: FfnParams


def _collect_parameters(node, prefix: str, out: list) -> None:
    """Append ``(dotted name, Tensor)`` for every Tensor under the dataclass
    ``node``, depth first in field order: the generated ``__init__`` fills
    ``vars(node)`` in that order.  A list element is named by its index;
    ``config`` and ``text_words`` hold no parameters."""
    for key, value in vars(node).items():
        if value is None or key in ("config", "text_words"):
            continue
        name = prefix + key
        if isinstance(value, Tensor):
            out.append((name, value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                _collect_parameters(item, f"{name}.{i}.", out)
        else:
            _collect_parameters(value, name + ".", out)


@dataclass
class ModelParams:
    """The parameter tree.  Its field order, depth first, is the order of
    the checkpoint's tensor directory."""

    config: ModelConfig
    token_embedding: Tensor  # (AminoVocabulary.size, d_model), shared by sequence and slot ids
    text_word_embedding: Tensor | None  # (n_words + 1, d_text), row 0 = UNK; None: no words
    text_projection: LinearParams | None  # None when d_text == d_model (identity)
    layers: list[DecoderLayerParams]
    head: LinearParams  # (d_model, AminoVocabulary.size)
    text_words: list[str] | None = None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        _collect_parameters(self, "", out)
        return out

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def text_encoder(self, embedding_path=None):
        """The word encoder of this model's word list, which takes no embedding
        file, or, without a word list, the precomputed encoder of
        ``embedding_path``, which must be ``d_text`` wide."""
        if self.text_words is not None:
            if embedding_path is not None:
                raise ModelError(f"a model with a word list reads no embedding file, "
                                 f"got {embedding_path}")
            return TrainableTextEncoder(self.text_words)
        if embedding_path is None:
            raise ModelError("a model without a word list needs an embedding file")
        encoder = PrecomputedTextEncoder(embedding_path)
        if encoder.d_text != self.config.d_text:
            raise ModelError(f"embedding file {embedding_path} has d_text {encoder.d_text}, "
                             f"the model d_text {self.config.d_text}")
        return encoder


def _build_params(config: ModelConfig, text_words: list[str] | None, fill) -> ModelParams:
    """The parameter tree of ``config``, with a word table if ``text_words`` is
    a list.  ``fill(shape, kind)`` makes each array ("normal", "zeros" or
    "ones"), called in one fixed order, which fixes ``init_params``'s draws.
    The final layer's text and slot tensors past its K/V are made, then dropped."""
    d, f = config.d_model, config.ffn

    def param(shape, kind):
        return Tensor(fill(shape, kind), requires_grad=True)

    def lin(n_in, n_out):
        return LinearParams(w=param((n_in, n_out), "normal"), b=param((n_out,), "zeros"))

    def norm():
        return NormParams(gamma=param((d,), "ones"), beta=param((d,), "zeros"))

    def ffn():
        return FfnParams(
            w1=param((d, f), "normal"),
            b1=param((f,), "zeros"),
            w2=param((f, d), "normal"),
            b2=param((d,), "zeros"),
        )

    token_embedding = param((AminoVocabulary.size, d), "normal")
    text_projection = None if config.d_text == d else lin(config.d_text, d)
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            DecoderLayerParams(
                ln_t=norm(), ln_c=norm(), ln_s=norm(),
                wq_t=lin(d, d), wk_t=lin(d, d), wv_t=lin(d, d), wo_t=lin(d, d),
                wq_c=lin(d, d), wo_c=lin(d, d),
                w_kc=lin(d, d), w_vc=lin(d, d),
                wq_s=lin(d, d), wk_s=lin(d, d), wv_s=lin(d, d), wo_s=lin(d, d),
                ln2_t=norm(), ln2_c=norm(), ln2_s=norm(),
                ffn_t=ffn(), ffn_c=ffn(), ffn_s=ffn(),
            )
        )
    for last in layers[-1:]:
        last.wo_t = last.ln2_t = last.ffn_t = last.ln2_c = last.ffn_c = None
    head = lin(d, AminoVocabulary.size)
    text_word_embedding = (None if text_words is None
                           else param((len(text_words) + 1, config.d_text), "normal"))
    return ModelParams(
        config=config,
        token_embedding=token_embedding,
        text_projection=text_projection,
        layers=layers,
        head=head,
        text_words=list(text_words) if text_words is not None else None,
        text_word_embedding=text_word_embedding,
    )


def init_params(
    config: ModelConfig, seed: int = 0, text_words: list[str] | None = None
) -> ModelParams:
    """Fresh parameters: normal(0, 0.02) weights, zero biases, unit norms."""
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dt = config.np_dtype

    def fill(shape, kind):
        if kind == "normal":
            return rng.normal(0.0, 0.02, size=shape).astype(dt)
        return (np.zeros if kind == "zeros" else np.ones)(shape, dtype=dt)

    return _build_params(config, text_words, fill)


@dataclass
class AttentionTrace:
    """Per-layer head-averaged attention weights of a single-record forward.
    The final layer's ``ptm`` queries come from its ``wq_t``, which only a
    traced forward reads: no gradient reaches it, so it keeps its initial values."""

    ptm: list[np.ndarray] = field(default_factory=list)  # (T, T)
    cim: list[np.ndarray] = field(default_factory=list)  # (c_size, T)
    cca: list[np.ndarray] = field(default_factory=list)  # (S, c_size + S)


def _apply_linear(x: Tensor, lin: LinearParams) -> Tensor:
    return nx.matmul(x, lin.w, lin.b)


def _apply_norm(x: Tensor, norm: NormParams) -> Tensor:
    return nx.layer_norm(x, norm.gamma, norm.beta)


def _residual_ffn(x: Tensor, delta: Tensor, norm: NormParams, ffn: FfnParams) -> Tensor:
    """y = x + delta, then y + FFN(norm(y))."""
    x = nx.add(x, delta)
    h = nx.gelu(nx.matmul(_apply_norm(x, norm), ffn.w1, ffn.b1))
    return nx.add(x, nx.matmul(h, ffn.w2, ffn.b2))


def prompt_mcm_forward(
    c_n: Tensor, t_n: Tensor, masks: tuple, layer: DecoderLayerParams, config: ModelConfig,
    trace: bool = False,
):
    """The text and slot half of the fused attention block, on pre-normalized
    inputs under the (ptm, cim) masks of a Batch.  Returns the pre-residual
    slot and text outputs (text None in the final layer), the slot
    keys/values (k_c, v_c) that seed the layer's K/V, and the (ptm, cim)
    attention weights (head axis intact; the final layer's ptm weights only
    under ``trace``, else None).
    """
    ptm, cim = masks
    h, hd = config.n_heads, config.head_dim

    # text branch: rotary self-attention
    k_t = _apply_linear(t_n, layer.wk_t)
    v_t = _apply_linear(t_n, layer.wv_t)
    ptm_raw = ptm_w = None
    if layer.wo_t is not None or trace:
        q_t = _apply_linear(t_n, layer.wq_t)
        ptm_raw, ptm_w = nx.masked_attention(
            nx.rope_rotate(q_t, 0, hd), nx.rope_rotate(k_t, 0, hd), v_t, ptm, h
        )
    t_out = None if layer.wo_t is None else _apply_linear(ptm_raw, layer.wo_t)

    # bottleneck branch: slot queries against unrotated text keys/values
    q_c = _apply_linear(c_n, layer.wq_c)
    cim_raw, cim_w = nx.masked_attention(q_c, k_t, v_t, cim, h)
    c_out = _apply_linear(cim_raw, layer.wo_c)

    kv = (_apply_linear(c_out, layer.w_kc), _apply_linear(c_out, layer.w_vc))
    return c_out, t_out, kv, (ptm_w, cim_w)


def _grow_kv(kv: tuple, k: Tensor, v: Tensor, filled: int) -> tuple[tuple, tuple]:
    """Grow a layer's (K, V), whose first ``filled`` rows are the slots and
    earlier positions, by the rows ``k`` and ``v``.  Returns the grown (K, V)
    and the Tensors attention reads.  Tensors grow by ``concat``, whose
    backward splits the gradient; (B, rows, d_model) arrays are a no-grad
    decode's preallocated buffers, written once per row and read as a view."""
    if isinstance(kv[0], Tensor):
        grown = (nx.concat([kv[0], k], axis=-2), nx.concat([kv[1], v], axis=-2))
        return grown, grown
    end = filled + k.shape[-2]
    kv[0][:, filled:end], kv[1][:, filled:end] = k.data, v.data
    return kv, (Tensor(kv[0][:, :end]), Tensor(kv[1][:, :end]))


def mcm_forward(
    e_s: Tensor, start: int, kv: tuple, psm, layer: DecoderLayerParams, config: ModelConfig
):
    """The sequence half of the fused attention block: pre-normalized rows at
    positions ``start..start+n`` attend over [layer K/V | their own rotated
    keys and values] under ``psm`` (None: every key visible).  Returns the
    pre-residual output, the (K, V) grown by ``_grow_kv`` and the weights
    (head axis intact).
    """
    h, hd = config.n_heads, config.head_dim
    q_s = _apply_linear(e_s, layer.wq_s)
    k_s = _apply_linear(e_s, layer.wk_s)
    v_s = _apply_linear(e_s, layer.wv_s)
    kv, (k_all, v_all) = _grow_kv(kv, nx.rope_rotate(k_s, start, hd), v_s, config.c_size + start)
    psm_raw, cca_w = nx.masked_attention(nx.rope_rotate(q_s, start, hd), k_all, v_all, psm, h)
    return _apply_linear(psm_raw, layer.wo_s), kv, cca_w


def decoder_layer_forward(
    e_s: Tensor, start: int, kv: tuple, psm, layer: DecoderLayerParams, config: ModelConfig
):
    """Pre-norm residual wrapper of ``mcm_forward``: x + MCM(norm(x)), then
    x + FFN(norm(x)).  Also returns the grown (K, V) and the weights."""
    ds, kv, cca_w = mcm_forward(_apply_norm(e_s, layer.ln_s), start, kv, psm, layer, config)
    return _residual_ffn(e_s, ds, layer.ln2_s, layer.ffn_s), kv, cca_w


def prompt_forward(batch: Batch, params: ModelParams, trace: bool = False):
    """The prompt pass: the text and slot branches of every layer.  The slot
    stream starts as ``config.c_size`` copies of the CROSS id's row of the
    shared token table; integer text is looked up in the word table, float
    text is taken as embedding rows.  Returns the per-layer (K, V), each the
    layer's slot keys and values (k_c, v_c), and the per-layer (ptm, cim)
    attention weights."""
    config = params.config
    slot_ids = np.full((batch.size, config.c_size), AminoVocabulary.cross_id, dtype=np.int64)
    e_c = nx.embedding(params.token_embedding, slot_ids)
    if np.issubdtype(batch.text.dtype, np.integer):  # word ids
        if params.text_word_embedding is None:
            raise ModelError("batch carries text ids but the model has no word table")
        e_t = nx.embedding(params.text_word_embedding, batch.text)
    else:
        e_t = Tensor(batch.text.astype(config.np_dtype, copy=False))
    if params.text_projection is not None:
        e_t = _apply_linear(e_t, params.text_projection)

    masks = (batch.ptm_mask, batch.cim_mask)
    kv, weights = [], []
    for layer in params.layers:
        c_out, t_out, layer_kv, layer_weights = prompt_mcm_forward(
            _apply_norm(e_c, layer.ln_c), _apply_norm(e_t, layer.ln_t), masks, layer, config,
            trace,
        )
        if t_out is not None:
            e_c = _residual_ffn(e_c, c_out, layer.ln2_c, layer.ffn_c)
            e_t = _residual_ffn(e_t, t_out, layer.ln2_t, layer.ffn_t)
        kv.append(layer_kv)
        weights.append(layer_weights)
    return kv, weights


def sequence_forward(seq_ids: np.ndarray, start: int, kv: list, psm, params: ModelParams):
    """The sequence pass: token rows ``seq_ids`` (B, n) at positions
    ``start..start+n`` against each layer's (K, V).  Returns (B, n, vocab)
    raw logits, the grown per-layer (K, V) and the per-layer weights."""
    config = params.config
    e_s = nx.embedding(params.token_embedding, seq_ids)
    grown, weights = [], []
    for layer, layer_kv in zip(params.layers, kv):
        e_s, layer_kv, cca_w = decoder_layer_forward(e_s, start, layer_kv, psm, layer, config)
        grown.append(layer_kv)
        weights.append(cca_w)
    return _apply_linear(e_s, params.head), grown, weights


def model_forward(batch: Batch, params: ModelParams, trace: bool = False):
    """Full forward pass: the prompt pass, then one sequence pass over the
    whole batch under its psm mask; (B, S, vocab) logits and, when
    ``trace`` is set, an AttentionTrace.

    Logits at position t depend only on sequence tokens <= t, the full
    text encoding and the slot tensor; the head emits raw logits.
    """
    if trace and batch.size != 1:
        raise ModelError("attention tracing expects a single-record batch")
    kv, prompt_weights = prompt_forward(batch, params, trace)
    logits, _, cca = sequence_forward(batch.seq_ids, 0, kv, batch.psm_mask, params)
    if not trace:
        return logits, None
    return logits, AttentionTrace(
        ptm=[ptm_w.mean(axis=-3)[0] for ptm_w, _ in prompt_weights],
        cim=[cim_w.mean(axis=-3)[0] for _, cim_w in prompt_weights],
        cca=[cca_w.mean(axis=-3)[0] for cca_w in cca],
    )


# -- persistence -------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a checkpoint: format line, JSON manifest, LE blocks in the config's dtype."""
    named = params.named_parameters()
    block = np.dtype(params.config.np_dtype).newbyteorder("<")
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "tensors": [{"name": name, "shape": list(p.shape)} for name, p in named],
        "text_words": params.text_words,
    }
    with atomic_open(path, "wb") as fh:
        fh.write((CHECKPOINT_FORMAT + "\n").encode("ascii"))
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        for _, p in named:
            fh.write(p.data.astype(block, copy=False).tobytes(order="C"))


def load_checkpoint(path) -> ModelParams:
    """Rebuild a model from a checkpoint, rejecting version/shape mismatches.
    Each tensor is read from the file straight into its own array."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").strip()
        if magic != CHECKPOINT_FORMAT:
            raise ModelError(f"checkpoint format {magic!r} != {CHECKPOINT_FORMAT!r}")
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ModelError(f"malformed checkpoint manifest in {path}: {exc!r}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise ModelError("manifest format mismatch")
        try:
            config = ModelConfig(**manifest["config"])
        except (KeyError, TypeError, ModelError) as exc:
            raise ModelError(f"checkpoint manifest has no valid model config: {exc!r}") from exc
        words = manifest.get("text_words")
        if words is not None and not (isinstance(words, list)
                                      and all(isinstance(w, str) for w in words)):
            raise ModelError("checkpoint manifest: text_words must be null or a list of strings")
        dt = np.dtype(config.np_dtype)
        # every array is read from the file below, so each placeholder is a
        # broadcast view of one scalar and allocates nothing
        params = _build_params(config, words,
                               lambda shape, _kind: np.broadcast_to(np.empty((), dtype=dt), shape))
        named = params.named_parameters()
        expected = [{"name": name, "shape": list(p.shape)} for name, p in named]
        if expected != manifest.get("tensors"):
            raise ModelError("checkpoint tensor directory does not match the config")
        total = sum(int(np.prod(t["shape"])) for t in manifest["tensors"])
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != dt.itemsize * total:
            raise ModelError(f"checkpoint blob has {size} bytes, expected "
                             f"{dt.itemsize * total} (corrupt file?)")
        for _, p in named:
            block = np.empty(p.shape, dtype=dt.newbyteorder("<"))
            fh.readinto(block)
            p.data = block.astype(dt, copy=False)
    return params
